#include "serve/control/journal.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace adaparse::serve::control {
namespace {

util::JsonObject to_object(const ControlConfig& config) {
  return {{"type", "config"},
          {"slo_p95_micros", std::to_string(config.slo_p95_micros)},
          {"recover_fraction", config.recover_fraction},
          {"queue_high", config.queue_high},
          {"queue_low", config.queue_low},
          {"breach_ticks", config.breach_ticks_to_escalate},
          {"clear_ticks", config.clear_ticks_to_restore},
          {"cooldown_ticks", config.cooldown_ticks},
          {"alpha_scale_l1", config.alpha_scale_l1},
          {"alpha_scale_l2", config.alpha_scale_l2},
          {"alpha_scale_l3", config.alpha_scale_l3},
          {"admission_scale", config.admission_scale},
          {"protected_priority", config.protected_priority}};
}

ControlConfig config_from(const util::FieldReader& record) {
  ControlConfig config;
  config.slo_p95_micros = record.u64_field("slo_p95_micros");
  config.recover_fraction = record.number_field("recover_fraction");
  config.queue_high = record.size_field("queue_high");
  config.queue_low = record.size_field("queue_low");
  config.breach_ticks_to_escalate = record.size_field("breach_ticks");
  config.clear_ticks_to_restore = record.size_field("clear_ticks");
  config.cooldown_ticks = record.size_field("cooldown_ticks");
  config.alpha_scale_l1 = record.number_field("alpha_scale_l1");
  config.alpha_scale_l2 = record.number_field("alpha_scale_l2");
  config.alpha_scale_l3 = record.number_field("alpha_scale_l3");
  config.admission_scale = record.number_field("admission_scale");
  config.protected_priority = record.int_field("protected_priority");
  return config;
}

util::JsonObject to_object(const TickRecord& record) {
  return {{"type", "tick"},
          {"tick", std::to_string(record.reading.tick)},
          // p95 travels as integer microseconds: exact through JSON, and
          // the only latency representation the controller compares.
          {"p95_micros", std::to_string(record.reading.p95_micros)},
          {"window", record.reading.window_count},
          {"queued", record.reading.queued_jobs},
          {"running", record.reading.running_jobs},
          {"resident", record.reading.resident_documents},
          {"action", action_name(record.action)},
          {"level", static_cast<std::size_t>(record.level)},
          {"reason", record.reason}};
}

TickRecord tick_from(const util::FieldReader& record) {
  TickRecord tick;
  tick.reading.tick = record.u64_field("tick");
  tick.reading.p95_micros = record.u64_field("p95_micros");
  tick.reading.window_count = record.size_field("window");
  tick.reading.queued_jobs = record.size_field("queued");
  tick.reading.running_jobs = record.size_field("running");
  tick.reading.resident_documents = record.size_field("resident");
  const std::string& action = record.string_field("action");
  if (action == "hold") {
    tick.action = Action::kHold;
  } else if (action == "escalate") {
    tick.action = Action::kEscalate;
  } else if (action == "restore") {
    tick.action = Action::kRestore;
  } else {
    throw std::runtime_error("decision log: unknown action '" + action + "'");
  }
  tick.level = static_cast<Level>(record.int_field("level", 0, kLevelCount));
  tick.reason = record.string_field("reason");
  return tick;
}

}  // namespace

DecisionLog load_decision_log(const std::string& path) {
  const io::SealedLogContents contents =
      io::load_sealed_log(path, "decision log");
  DecisionLog log;
  log.dropped_torn_tail = contents.dropped_torn_tail;
  for (const util::JsonObject& obj : contents.records) {
    const util::FieldReader record(obj, "decision log");
    const std::string& type = record.string_field("type");
    if (type == "config") {
      log.config = config_from(record);
    } else if (type == "tick") {
      log.ticks.push_back(tick_from(record));
    } else {
      throw std::runtime_error("decision log: unknown record type '" + type +
                               "'");
    }
  }
  return log;
}

DecisionJournal::DecisionJournal(const std::string& path)
    : log_(path, "decision log") {}

void DecisionJournal::append(const ControlConfig& config) {
  log_.append(to_object(config));
}

void DecisionJournal::append(const TickRecord& record) {
  log_.append(to_object(record));
}

std::vector<TickRecord> replay(const ControlConfig& config,
                               const std::vector<SensorReading>& readings) {
  SloController controller(config);
  std::vector<TickRecord> ticks;
  ticks.reserve(readings.size());
  for (const SensorReading& reading : readings) {
    const Decision decision = controller.step(reading);
    TickRecord tick;
    tick.reading = reading;
    tick.action = decision.action;
    tick.level = decision.level;
    tick.reason = decision.reason;
    ticks.push_back(std::move(tick));
  }
  return ticks;
}

bool operator==(const SensorReading& a, const SensorReading& b) {
  return a.tick == b.tick && a.p95_micros == b.p95_micros &&
         a.window_count == b.window_count && a.queued_jobs == b.queued_jobs &&
         a.running_jobs == b.running_jobs &&
         a.resident_documents == b.resident_documents;
}

bool operator==(const TickRecord& a, const TickRecord& b) {
  return a.reading == b.reading && a.action == b.action &&
         a.level == b.level && a.reason == b.reason;
}

}  // namespace adaparse::serve::control
