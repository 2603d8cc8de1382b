// The controller's flight recorder: an append-only decision log in the
// CRC-sealed format of io/sealed_log.hpp, shared with the campaign
// manifest. A record commits when its newline is written: a torn final
// line is dropped on load and cut off when the journal is reopened;
// mid-journal damage throws.
//
// A journal holds the controller config (first line) followed by one tick
// record per control tick: the sensor reading the controller saw and the
// decision it made. Because SloController is a pure function of (config,
// reading sequence) and every decision-relevant sensor field is an
// integer, `replay()` over the loaded readings reproduces the journaled
// decisions identically — the audit property the ROADMAP asks of the
// adaptive serve path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "io/sealed_log.hpp"
#include "serve/control/controller.hpp"

namespace adaparse::serve::control {

/// One journaled control tick: what the controller saw and what it did.
struct TickRecord {
  SensorReading reading;
  Action action = Action::kHold;
  Level level = Level::kNormal;  ///< ladder level after the action
  std::string reason;
};

/// Everything replayed from a decision journal.
struct DecisionLog {
  std::optional<ControlConfig> config;
  std::vector<TickRecord> ticks;
  /// True when the journal ended in a torn line (dropped, as with the
  /// campaign manifest: the tick it described simply never happened).
  bool dropped_torn_tail = false;
};

/// Loads a journal. A missing file yields an empty log; a torn final line
/// is dropped; a malformed non-final line throws std::runtime_error.
DecisionLog load_decision_log(const std::string& path);

/// Append-only journal writer. Not thread-safe; the service's control tick
/// is the only writer. Each append flushes.
class DecisionJournal {
 public:
  /// Opens `path` for append, creating it if absent and cutting a torn tail
  /// off first.
  explicit DecisionJournal(const std::string& path);

  void append(const ControlConfig& config);
  void append(const TickRecord& record);

 private:
  io::SealedLog log_;
};

/// Feeds `readings` through a fresh SloController under `config` and
/// returns the re-derived tick records. A journaled run is replayable iff
/// this equals the journal's own tick records (tests assert exactly that).
std::vector<TickRecord> replay(const ControlConfig& config,
                               const std::vector<SensorReading>& readings);

bool operator==(const SensorReading& a, const SensorReading& b);
bool operator==(const TickRecord& a, const TickRecord& b);

}  // namespace adaparse::serve::control
