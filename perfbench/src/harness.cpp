#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "simd/dispatch.hpp"

namespace perfbench {
namespace fs = std::filesystem;
using namespace adaparse;

namespace {

/// JSON string literal for the short ASCII names this file writes.
std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Every digit of a double, so no measured value is rounded away.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20 ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  try {
    *out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

bool parse_options(int argc, char** argv, Options* options,
                   std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value after " + flag;
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &n)) {
        *error = "--seed must be a non-negative integer";
        return false;
      }
      options->seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 600) {
        *error = "--seconds must be an integer in [1, 600]";
        return false;
      }
      options->seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      options->trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      options->workdir = value;
    } else {
      *error = "unknown argument " + flag;
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    *error = "required: --workload --seed --seconds --trace";
    return false;
  }
  return true;
}

void Report::set(std::string name, double value) {
  for (auto& [existing, v] : values) {
    if (existing == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(std::move(name), value);
}

void Report::fail(const std::string& why) {
  correct = false;
  std::cerr << "CHECK FAILED: " << why << "\n";
}

void Report::not_exercised(std::initializer_list<const char*> names) {
  for (const char* name : names) set(name, 0.0);
}

std::string Report::to_json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"values\":{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(values[i].first) + ":" + number(values[i].second);
  }
  return out + "}}";
}

std::string descriptor_json(const Options& options) {
  return "{\"nproc\":" + std::to_string(nproc()) +
         ",\"simd_tier\":" + json_string(simd::active_tier_name()) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"workload\":" + json_string(options.workload) +
         ",\"seed\":" + std::to_string(options.seed) +
         ",\"seconds\":" + std::to_string(options.seconds) +
         ",\"trace\":" + (options.trace ? "1" : "0") + "}";
}

SpanLog::Id SpanLog::begin(const char* name, Id parent) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, now, now, false});
  return static_cast<Id>(spans_.size());
}

void SpanLog::end(Id id) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(id - 1);
  span.stop = now;
  span.closed = true;
}

SpanLog::Id SpanLog::add(const char* name, Id parent, Clock::time_point start,
                         Clock::time_point stop) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, start, stop, true});
  return static_cast<Id>(spans_.size());
}

double SpanLog::mean_seconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  double seconds = 0.0;
  for (const Span& span : spans_) {
    if (span.closed && name == span.name) {
      ++count;
      seconds += seconds_between(span.start, span.stop);
    }
  }
  return count > 0 ? seconds / static_cast<double>(count) : 0.0;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"traceEvents\":[";
  const char* separator = "\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!span.closed) continue;
    out << separator << "{\"name\":" << json_string(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << number(us(span.start))
        << ",\"dur\":" << number(us(span.stop) - us(span.start))
        << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << span.parent
        << "}}";
    separator = ",\n";
  }
  out << "\n]}\n";
}

std::size_t nproc() {
  return std::max(1U, std::thread::hardware_concurrency());
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak resident set");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double children_peak_rss_mb() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

void log_walls(const std::string& what, const std::vector<double>& walls) {
  std::cerr << what << ": " << walls.size() << ", wall min "
            << *std::min_element(walls.begin(), walls.end()) << " s, median "
            << median(walls) << " s, max "
            << *std::max_element(walls.begin(), walls.end()) << " s\n";
}

std::string fresh_dir(const Options& options, const std::string& name) {
  const fs::path dir = fs::path(options.workdir) /
                       (options.workload + "-" + std::to_string(options.seed)) /
                       name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string trace_path(const Options& options) {
  const fs::path dir = fs::path(options.workdir).parent_path() / "traces";
  fs::create_directories(dir);
  return (dir / (options.workload + "-" + std::to_string(options.seed) +
                 ".json")).string();
}

void remove_run_dir(const Options& options) {
  std::error_code ignored;
  fs::remove_all(fs::path(options.workdir) / (options.workload + "-" +
                                              std::to_string(options.seed)),
                 ignored);
}

std::vector<doc::Document> generate_corpus(const doc::GeneratorConfig& config) {
  const doc::CorpusGenerator generator(config);
  std::vector<doc::Document> docs(config.num_documents);
  const std::size_t threads = std::min(nproc(), std::max<std::size_t>(1, docs.size()));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < docs.size(); i += threads) {
        docs[i] = generator.generate_one(i);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return docs;
}

doc::GeneratorConfig eval_corpus_config(std::size_t docs, std::uint64_t seed) {
  doc::GeneratorConfig config = doc::benchmark_config(docs, seed);
  config.min_pages = 8;
  config.max_pages = 12;
  return config;
}

core::TrainedAdaParse train_models() {
  const auto train_docs = generate_corpus(doc::benchmark_config(128, 0x7EA1));
  core::TrainAdaParseOptions options;
  options.engine.threads = nproc();
  options.engine.batch_size = 256;
  options.engine.alpha = 0.05;
  options.regression.epochs = 10;
  options.apply_dpo = false;
  return core::train_adaparse(train_docs, nullptr, nullptr, options);
}

}  // namespace perfbench
