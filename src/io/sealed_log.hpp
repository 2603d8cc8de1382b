// The CRC-sealed append-only log: the one on-disk format of the campaign
// manifest (campaign/manifest.hpp) and the SLO decision journal
// (serve/control/journal.hpp).
//
// Each record is one line: a JSON object plus a crc field, the decimal
// FNV-1a of the object serialized without it (std::map keys make that
// dump canonical). The newline is the commit point: a record is in the log
// once its '\n' is, so the log's valid prefix is empty or ends in '\n'.
//
// Load policy: a final line that is unterminated — even if it parses — or
// fails its CRC is a torn tail, the trace of a process that died
// mid-append; it is dropped. Damage on any earlier line is real corruption
// and throws std::runtime_error. Opening a log for append first cuts it
// back to its valid prefix, so a new record never merges into a torn
// fragment.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace adaparse::io {

/// A loaded log: every committed record, with its crc field removed.
struct SealedLogContents {
  std::vector<util::JsonObject> records;
  bool dropped_torn_tail = false;
  /// Bytes up to and including the last committed record's newline.
  std::size_t valid_prefix_bytes = 0;
};

/// Loads the log at `path`; a missing file is an empty log. `context`
/// names the log in error messages ("manifest", "decision log").
SealedLogContents load_sealed_log(const std::string& path, const char* context);

/// Append-only writer. Not thread-safe. Each append is flushed to the OS,
/// not fsync'd.
class SealedLog {
 public:
  /// Opens `path` for append, creating it if absent, after cutting a torn
  /// tail off. Throws std::runtime_error if the file cannot be opened or is
  /// damaged before its tail.
  SealedLog(const std::string& path, const char* context);

  void append(util::JsonObject record);

  /// Failure-injection hook: writes only the first half of the sealed line
  /// (no newline), a torn write. The caller must treat the process as dead
  /// afterwards; the next load drops the torn tail.
  void append_torn(util::JsonObject record);

 private:
  std::ofstream out_;
  std::string path_;
  const char* context_;
};

}  // namespace adaparse::io
