// Tests for the serve::control subsystem: the SLO-guardian degradation
// ladder (escalation/restoration streaks, hysteresis dead band, cooldown),
// the CRC-protected decision journal (round-trip, torn tail, mid-journal
// damage), bit-identical replay, a randomized sensor-noise sweep asserting
// the anti-oscillation invariants, and the ParseService integration
// (journaled live ticks replay identically; disabled controller exports
// nothing).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/doc_source.hpp"
#include "doc/generator.hpp"
#include "io/fsio.hpp"
#include "serve/control/controller.hpp"
#include "serve/control/journal.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace adaparse::serve::control {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

/// Small, fast ladder for unit tests: breach after 2 ticks, restore after
/// 3 clear ticks + 5-tick cooldown, SLO 100 ms with a 70 ms clear line.
ControlConfig test_config() {
  ControlConfig config;
  config.slo_p95_micros = 100000;
  config.recover_fraction = 0.7;  // clear line: 70000 us
  config.queue_high = 10;
  config.queue_low = 4;
  config.breach_ticks_to_escalate = 2;
  config.clear_ticks_to_restore = 3;
  config.cooldown_ticks = 5;
  return config;
}

SensorReading reading(std::uint64_t tick, std::uint64_t p95_micros,
                      std::size_t window, std::size_t queued) {
  SensorReading r;
  r.tick = tick;
  r.p95_micros = p95_micros;
  r.window_count = window;
  r.queued_jobs = queued;
  return r;
}

fs::path temp_file(const std::string& name) {
  return fs::path(::testing::TempDir()) / name;
}

// ------------------------------------------------------------ ladder ----

TEST(SloControllerTest, EscalatesOnlyAfterBreachStreak) {
  SloController c(test_config());
  auto d = c.step(reading(1, 150000, 5, 0));  // breach #1: hold
  EXPECT_EQ(d.action, Action::kHold);
  EXPECT_EQ(d.reason, "hold:breach");
  EXPECT_EQ(c.level(), Level::kNormal);

  d = c.step(reading(2, 150000, 5, 0));  // breach #2: escalate
  EXPECT_EQ(d.action, Action::kEscalate);
  EXPECT_EQ(d.reason, "p95-breach");
  EXPECT_EQ(d.level, Level::kBudgetShrink);
  EXPECT_EQ(c.transitions_up(), 1U);
}

TEST(SloControllerTest, QueuePressureBreachesWithoutLatencyEvidence) {
  // A fully stalled service completes nothing: the latency window is empty
  // and p95 alone would read healthy. Queue depth must carry the breach.
  SloController c(test_config());
  c.step(reading(1, 0, 0, 11));
  const auto d = c.step(reading(2, 0, 0, 11));
  EXPECT_EQ(d.action, Action::kEscalate);
  EXPECT_EQ(d.reason, "queue-breach");
}

TEST(SloControllerTest, DeadBandReadingResetsBothStreaks) {
  SloController c(test_config());
  c.step(reading(1, 150000, 5, 0));       // breach #1
  auto d = c.step(reading(2, 85000, 5, 0));  // between clear and SLO
  EXPECT_EQ(d.reason, "hold:dead-band");
  d = c.step(reading(3, 150000, 5, 0));  // breach #1 again, not #2
  EXPECT_EQ(d.action, Action::kHold);
  EXPECT_EQ(c.level(), Level::kNormal);
  d = c.step(reading(4, 150000, 5, 0));
  EXPECT_EQ(d.action, Action::kEscalate);
}

TEST(SloControllerTest, WalksOneLevelPerStreakDownToTheFloor) {
  SloController c(test_config());
  std::vector<Level> levels;
  for (std::uint64_t t = 1; t <= 10; ++t) {
    const auto d = c.step(reading(t, 200000, 5, 0));
    if (d.action == Action::kEscalate) levels.push_back(d.level);
    if (t == 10) {
      EXPECT_EQ(d.reason, "hold:floor");  // pinned at L3
    }
  }
  EXPECT_EQ(levels, (std::vector<Level>{Level::kBudgetShrink,
                                        Level::kHedgeOff,
                                        Level::kAdmissionTight}));
  EXPECT_EQ(c.transitions_up(), 3U);
  EXPECT_EQ(c.level(), Level::kAdmissionTight);
}

TEST(SloControllerTest, RestorationWaitsForClearStreakAndCooldown) {
  SloController c(test_config());
  c.step(reading(1, 200000, 5, 0));
  c.step(reading(2, 200000, 5, 0));  // escalate at tick 2
  ASSERT_EQ(c.level(), Level::kBudgetShrink);

  // Clear readings from tick 3 on. Cooldown (5 ticks since the transition)
  // gates until tick 7; the 3-tick clear streak is long since satisfied,
  // so the first restorable tick is 7.
  std::uint64_t restored_at = 0;
  for (std::uint64_t t = 3; t <= 8; ++t) {
    const auto d = c.step(reading(t, 10000, 5, 0));
    if (d.action == Action::kRestore) {
      restored_at = t;
      EXPECT_EQ(d.reason, "recovered");
      break;
    }
    EXPECT_TRUE(d.reason == "hold:cooldown" || d.reason == "hold:clear-streak")
        << "tick " << t << ": " << d.reason;
  }
  EXPECT_EQ(restored_at, 7U);
  EXPECT_EQ(c.level(), Level::kNormal);
  EXPECT_EQ(c.transitions_down(), 1U);
}

TEST(SloControllerTest, EmptyWindowClearsOnlyWithDrainedQueue) {
  auto config = test_config();
  SloController c(config);
  c.step(reading(1, 200000, 5, 0));
  c.step(reading(2, 200000, 5, 0));  // -> kBudgetShrink
  ASSERT_EQ(c.level(), Level::kBudgetShrink);

  // Empty window + queue above the low watermark: no evidence either way,
  // so the clear streak must NOT advance (dead band).
  for (std::uint64_t t = 3; t <= 20; ++t) {
    const auto d = c.step(reading(t, 0, 0, 7));
    EXPECT_EQ(d.action, Action::kHold);
    EXPECT_EQ(d.reason, "hold:dead-band");
  }
  EXPECT_EQ(c.level(), Level::kBudgetShrink);

  // Empty window + drained queue: counts as clear; restores once the
  // streak builds (cooldown long expired).
  Action last = Action::kHold;
  for (std::uint64_t t = 21; t <= 23; ++t) {
    last = c.step(reading(t, 0, 0, 0)).action;
  }
  EXPECT_EQ(last, Action::kRestore);
  EXPECT_EQ(c.level(), Level::kNormal);
}

TEST(SloControllerTest, LevelEffectsFollowTheLadder) {
  const auto config = test_config();
  EXPECT_EQ(SloController::alpha_scale_for(config, Level::kNormal), 1.0);
  EXPECT_EQ(SloController::alpha_scale_for(config, Level::kBudgetShrink),
            config.alpha_scale_l1);
  EXPECT_EQ(SloController::alpha_scale_for(config, Level::kHedgeOff),
            config.alpha_scale_l2);
  EXPECT_EQ(SloController::alpha_scale_for(config, Level::kAdmissionTight),
            config.alpha_scale_l3);
  EXPECT_EQ(SloController::admission_scale_for(config, Level::kHedgeOff),
            1.0);
  EXPECT_EQ(
      SloController::admission_scale_for(config, Level::kAdmissionTight),
      config.admission_scale);

  SloController c(config);
  EXPECT_FALSE(c.hedge_suspended());
  for (std::uint64_t t = 1; t <= 4; ++t) c.step(reading(t, 200000, 5, 0));
  EXPECT_EQ(c.level(), Level::kHedgeOff);
  EXPECT_TRUE(c.hedge_suspended());
}

// --------------------------------------------- randomized noise sweep ----

TEST(SloControllerTest, NoisySensorSweepNeverViolatesLadderInvariants) {
  // 5000 random readings straddling every threshold. An independent
  // re-classification of each reading (breach / clear / dead-band, exactly
  // the documented semantics) tracks the streaks the controller is allowed
  // to act on; any transition outside those rules is an invariant
  // violation, whatever the noise does.
  const auto config = test_config();
  SloController c(config);
  SloController twin(config);  // determinism witness
  util::Rng rng(0xC0117201);

  const std::uint64_t clear_line = 70000;  // slo * recover_fraction
  std::size_t breach_streak = 0, clear_streak = 0;
  std::uint64_t ticks_since_transition = 1000;  // boot counts as "old"
  auto level = Level::kNormal;

  for (std::uint64_t t = 1; t <= 5000; ++t) {
    SensorReading r;
    r.tick = t;
    r.window_count = rng.below(4);  // empty windows are common
    r.p95_micros = r.window_count == 0 ? 0 : rng.below(220000);
    r.queued_jobs = rng.below(16);
    const Decision d = c.step(r);
    const Decision d_twin = twin.step(r);
    EXPECT_EQ(d.action, d_twin.action) << "nondeterministic at tick " << t;
    EXPECT_EQ(d.level, d_twin.level);
    EXPECT_EQ(d.reason, d_twin.reason);

    const bool is_breach =
        (r.window_count > 0 && r.p95_micros > config.slo_p95_micros) ||
        r.queued_jobs > config.queue_high;
    const bool is_clear =
        !is_breach &&
        (r.window_count == 0 || r.p95_micros < clear_line) &&
        r.queued_jobs <= config.queue_low;
    if (is_breach) {
      ++breach_streak;
      clear_streak = 0;
    } else if (is_clear) {
      ++clear_streak;
      breach_streak = 0;
    } else {
      breach_streak = 0;
      clear_streak = 0;
    }
    ++ticks_since_transition;

    const int step = static_cast<int>(d.level) - static_cast<int>(level);
    EXPECT_GE(step, -1) << "tick " << t;
    EXPECT_LE(step, 1) << "tick " << t;
    if (d.action == Action::kEscalate) {
      EXPECT_EQ(step, 1) << "tick " << t;
      EXPECT_TRUE(is_breach) << "tick " << t;
      EXPECT_GE(breach_streak, config.breach_ticks_to_escalate)
          << "tick " << t;
    } else if (d.action == Action::kRestore) {
      EXPECT_EQ(step, -1) << "tick " << t;
      EXPECT_TRUE(is_clear) << "tick " << t;
      EXPECT_GE(clear_streak, config.clear_ticks_to_restore) << "tick " << t;
      EXPECT_GE(ticks_since_transition, config.cooldown_ticks)
          << "restore inside cooldown at tick " << t;
    } else {
      EXPECT_EQ(step, 0) << "tick " << t;
    }
    if (d.action != Action::kHold) {
      ticks_since_transition = 0;
      breach_streak = 0;
      clear_streak = 0;
    }
    level = d.level;
  }
  // The sweep must have actually exercised the ladder in both directions.
  EXPECT_GT(c.transitions_up(), 0U);
  EXPECT_GT(c.transitions_down(), 0U);
}

// ----------------------------------------------------------- journal ----

std::vector<SensorReading> synthetic_readings() {
  // Breach burst, recovery, a dead-band wobble, a queue-pressure stall.
  std::vector<SensorReading> readings;
  std::uint64_t t = 0;
  for (int i = 0; i < 4; ++i) readings.push_back(reading(++t, 180000, 3, 2));
  for (int i = 0; i < 12; ++i) readings.push_back(reading(++t, 20000, 3, 0));
  readings.push_back(reading(++t, 85000, 2, 0));
  for (int i = 0; i < 3; ++i) readings.push_back(reading(++t, 0, 0, 12));
  for (int i = 0; i < 12; ++i) readings.push_back(reading(++t, 10000, 1, 0));
  return readings;
}

TEST(DecisionJournalTest, RoundTripsAndReplaysIdentically) {
  const auto path = temp_file("adaparse_journal_roundtrip.jsonl");
  fs::remove(path);
  const auto config = test_config();
  const auto readings = synthetic_readings();

  std::vector<TickRecord> written;
  {
    DecisionJournal journal(path.string());
    journal.append(config);
    SloController c(config);
    for (const auto& r : readings) {
      const Decision d = c.step(r);
      TickRecord record;
      record.reading = r;
      record.action = d.action;
      record.level = d.level;
      record.reason = d.reason;
      journal.append(record);
      written.push_back(std::move(record));
    }
  }

  const auto log = load_decision_log(path.string());
  ASSERT_TRUE(log.config.has_value());
  EXPECT_FALSE(log.dropped_torn_tail);
  EXPECT_EQ(log.config->slo_p95_micros, config.slo_p95_micros);
  EXPECT_EQ(log.config->breach_ticks_to_escalate,
            config.breach_ticks_to_escalate);
  EXPECT_EQ(log.config->cooldown_ticks, config.cooldown_ticks);
  ASSERT_EQ(log.ticks.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_TRUE(log.ticks[i] == written[i]) << "tick " << i;
  }
  // The audit property: replaying the journaled readings under the
  // journaled config reproduces the journaled decisions bit-identically.
  EXPECT_TRUE(replay(*log.config, readings) == log.ticks);
}

TEST(DecisionJournalTest, TornTailIsDroppedNotFatal) {
  const auto path = temp_file("adaparse_journal_torn.jsonl");
  fs::remove(path);
  {
    DecisionJournal journal(path.string());
    journal.append(test_config());
    TickRecord record;
    record.reading = reading(1, 50000, 2, 0);
    record.reason = "hold";
    journal.append(record);
  }
  {
    // Simulate a crash mid-append: a trailing half-written line.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"type\":\"tick\",\"tick\":\"2\",\"p95";
  }
  const auto log = load_decision_log(path.string());
  EXPECT_TRUE(log.dropped_torn_tail);
  ASSERT_TRUE(log.config.has_value());
  ASSERT_EQ(log.ticks.size(), 1U);
  EXPECT_EQ(log.ticks[0].reading.tick, 1U);
}

TEST(DecisionJournalTest, MidJournalDamageThrows) {
  const auto path = temp_file("adaparse_journal_damaged.jsonl");
  fs::remove(path);
  {
    DecisionJournal journal(path.string());
    journal.append(test_config());
    for (std::uint64_t t = 1; t <= 3; ++t) {
      TickRecord record;
      record.reading = reading(t, 50000, 2, 0);
      record.reason = "hold";
      journal.append(record);
    }
  }
  // Flip bytes in the middle of the file: a CRC mismatch that is NOT the
  // final line must be treated as corruption, not silently skipped.
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto middle = bytes.find("\"tick\":\"2\"");
  ASSERT_NE(middle, std::string::npos);
  bytes[middle + 9] = '9';  // tamper with a field the CRC covers
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(load_decision_log(path.string()), std::runtime_error);
}

TEST(DecisionJournalTest, ReopenAfterTornAppendCutsTheTail) {
  const auto path = temp_file("adaparse_journal_reopen_torn.jsonl");
  fs::remove(path);
  {
    DecisionJournal journal(path.string());
    journal.append(test_config());
    TickRecord record;
    record.reading = reading(1, 50000, 2, 0);
    record.reason = "hold";
    journal.append(record);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"type\":\"tick\",\"tick\":\"2\",\"p95";
  }
  {
    // A restarted service reopens its journal: the torn fragment must be
    // cut, or the next tick merges into it and the journal never loads.
    DecisionJournal journal(path.string());
    TickRecord record;
    record.reading = reading(2, 60000, 2, 0);
    record.reason = "hold";
    journal.append(record);
  }
  const auto log = load_decision_log(path.string());
  EXPECT_FALSE(log.dropped_torn_tail);
  ASSERT_TRUE(log.config.has_value());
  ASSERT_EQ(log.ticks.size(), 2U);
  EXPECT_EQ(log.ticks[0].reading.tick, 1U);
  EXPECT_EQ(log.ticks[1].reading.tick, 2U);
}

TEST(DecisionJournalTest, CrcValidRecordWithBadFieldsThrowsRuntimeError) {
  const auto path = temp_file("adaparse_journal_bad_fields.jsonl");
  fs::remove(path);
  {
    DecisionJournal journal(path.string());
    TickRecord record;
    record.reading = reading(1, 50000, 2, 0);
    record.reason = "hold";
    journal.append(record);
  }
  const auto line = [&] {
    std::ifstream in(path, std::ios::binary);
    std::string text;
    std::getline(in, text);
    return text;
  }();
  util::JsonObject tick = util::Json::parse(line).as_object();
  tick.erase("crc");
  const auto reseal = [&](util::JsonObject obj) {
    obj["crc"] = std::to_string(io::fnv1a(util::Json(obj).dump()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << util::Json(std::move(obj)).dump() << '\n';
  };
  reseal(tick);
  ASSERT_EQ(load_decision_log(path.string()).ticks.size(), 1U);

  std::vector<util::JsonObject> bad;
  for (const char* key : {"type", "tick", "reason", "level", "window"}) {
    bad.push_back(tick);
    bad.back().erase(key);  // missing
  }
  bad.push_back(tick);
  bad.back()["reason"] = 7;  // mistyped
  bad.push_back(tick);
  bad.back()["queued"] = -3;  // negative size
  bad.push_back(tick);
  bad.back()["tick"] = "18446744073709551616";  // u64 overflow
  bad.push_back(tick);
  bad.back()["p95_micros"] = "-5";
  for (const auto& obj : bad) {
    reseal(obj);
    EXPECT_THROW(load_decision_log(path.string()), std::runtime_error)
        << util::Json(obj).dump();
  }
}

TEST(DecisionJournalTest, MissingFileYieldsEmptyLog) {
  const auto log = load_decision_log(
      temp_file("adaparse_journal_never_written.jsonl").string());
  EXPECT_FALSE(log.config.has_value());
  EXPECT_TRUE(log.ticks.empty());
  EXPECT_FALSE(log.dropped_torn_tail);
}

// ----------------------------------------------- service integration ----

core::EngineConfig ft_engine() {
  core::EngineConfig engine;
  engine.variant = core::Variant::kFastText;
  engine.batch_size = 16;
  engine.alpha = 0.25;
  return engine;
}

TEST(ControlServiceTest, DisabledControllerExportsNothing) {
  ServiceConfig config;
  config.pool_threads = 4;
  ParseService service(config, nullptr,
                       std::make_shared<core::Cls2Improver>());
  EXPECT_FALSE(service.metrics().control.enabled);
  EXPECT_EQ(service.metrics_text().find("adaparse_serve_control"),
            std::string::npos);
}

TEST(ControlServiceTest, LiveTicksJournalAndReplayIdentically) {
  const auto path = temp_file("adaparse_control_service.jsonl");
  fs::remove(path);
  ServiceConfig config;
  config.dispatchers = 1;
  config.pool_threads = 4;
  config.enable_slo_controller = true;
  config.control_tick = 2ms;
  config.decision_journal_path = path.string();
  {
    ParseService service(config, nullptr,
                         std::make_shared<core::Cls2Improver>());
    for (int i = 0; i < 3; ++i) {
      JobRequest request;
      request.spec.tenant = "t";
      request.spec.engine = ft_engine();
      request.source = std::make_unique<core::GeneratorSource>(
          doc::benchmark_config(32, 1000 + static_cast<std::uint64_t>(i)));
      service.submit(std::move(request))->wait();
    }
    std::this_thread::sleep_for(20ms);  // let a few idle ticks land too
    const auto snap = service.metrics();
    EXPECT_TRUE(snap.control.enabled);
    EXPECT_GT(snap.control.ticks, 0U);
    EXPECT_NE(service.metrics_text().find("adaparse_serve_control_level"),
              std::string::npos);
    service.shutdown();
  }

  const auto log = load_decision_log(path.string());
  ASSERT_TRUE(log.config.has_value());
  ASSERT_FALSE(log.ticks.empty());
  std::vector<SensorReading> readings;
  readings.reserve(log.ticks.size());
  for (const auto& tick : log.ticks) readings.push_back(tick.reading);
  EXPECT_TRUE(replay(*log.config, readings) == log.ticks)
      << "live service ticks did not replay bit-identically";
  // Ticks are journaled in order with no gaps.
  for (std::size_t i = 0; i < log.ticks.size(); ++i) {
    EXPECT_EQ(log.ticks[i].reading.tick, i + 1);
  }
}

}  // namespace
}  // namespace adaparse::serve::control
