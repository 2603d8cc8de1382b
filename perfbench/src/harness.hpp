// Shared machinery of the benchmark: command line, the report every
// workload fills, the in-memory span log of traced runs, and the set-up
// steps common to all workloads (training the routing models and
// generating corpora).
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/training.hpp"
#include "doc/generator.hpp"
#include "logic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Scratch space inside the checkout; each run works in a fresh
  /// subdirectory and removes it before exiting.
  std::string workdir = ".bench_build/work";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--workdir D]`.
/// Returns false with `*error` set on any missing or malformed argument.
bool parse_options(int argc, char** argv, Options* options,
                   std::string* error);

/// What one run reports. Metric units live in BENCHMARK.json; run.py
/// attaches them and checks that the names match it exactly.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;

  void set(std::string name, double value);
  /// Marks the run incorrect and explains why on stderr.
  void fail(const std::string& why);
  /// Sets the named per-layer metrics to 0: the workload does not run
  /// through that layer.
  void not_exercised(std::initializer_list<const char*> names);

  std::string to_json() const;
};

/// nproc, SIMD tier, compiler, build type, workload, seed and trace flag
/// as one JSON object (run.py adds the commit and a source digest).
std::string descriptor_json(const Options& options);

/// Span log of a traced run: name, start, end and parent, kept in memory
/// and written out as Chrome trace-event JSON when the run ends.
/// Thread-safe; ids are 1-based, 0 means "no parent".
class SpanLog {
 public:
  using Id = std::uint32_t;

  SpanLog() : origin_(Clock::now()) {}

  Id begin(const char* name, Id parent = 0);
  void end(Id id);
  /// Records a span whose times were taken elsewhere.
  Id add(const char* name, Id parent, Clock::time_point start,
         Clock::time_point stop);

  /// Mean duration of the spans called `name` (0 when there are none).
  double mean_seconds(std::string_view name) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Id parent;
    Clock::time_point start;
    Clock::time_point stop;
    bool closed;
  };
  mutable std::mutex mutex_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null log
/// makes it a no-op, so untraced runs share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, SpanLog::Id parent = 0)
      : log_(log), id_(log != nullptr ? log->begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  SpanLog::Id id() const { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

std::size_t nproc();

/// Restarts this process's resident-set high-water mark, so the next
/// peak_rss_mb() covers only the work in between. Throws when the kernel
/// refuses.
void reset_peak_rss();
/// This process's resident-set high-water mark since the last
/// reset_peak_rss() (or since start), in MiB.
double peak_rss_mb();
/// Largest peak resident set of any reaped child process, in MiB.
double children_peak_rss_mb();

/// Prints to stderr how long the units of a timed window took.
void log_walls(const std::string& what, const std::vector<double>& walls);

/// Creates (after clearing) `options.workdir/<workload>-<seed>/<name>`.
std::string fresh_dir(const Options& options, const std::string& name);
/// Where a traced run writes its spans: a `traces` directory beside the
/// workdir (created), one Chrome trace-event file per workload and seed.
std::string trace_path(const Options& options);
/// Removes this run's subdirectory of the workdir.
void remove_run_dir(const Options& options);

/// Generates a corpus on `nproc()` threads (documents are independent, so
/// the result equals CorpusGenerator::generate()).
std::vector<adaparse::doc::Document> generate_corpus(
    const adaparse::doc::GeneratorConfig& config);

/// The in-memory corpus of batch-llm and campaign-mp: the paper's mixed
/// benchmark corpus (scans, legacy toolchains) with page counts narrowed
/// from 2-18 to 8-12 at the same mean. Page count sets each document's
/// cost, so narrowing it keeps run-to-run spread from seed sampling small;
/// http-generator keeps the full range.
adaparse::doc::GeneratorConfig eval_corpus_config(std::size_t docs,
                                                  std::uint64_t seed);

/// Trains the routing models every workload uses: CLS III predictor and
/// CLS II improver on a fixed 128-document training corpus, LLM and FT
/// engines at alpha = 0.05, k = 256, threads = nproc. Training is part of
/// every workload's set-up.
adaparse::core::TrainedAdaParse train_models();

/// Runs `step` `reps` times and returns the median wall time of one run.
template <typename Step>
double median_setup_seconds(int reps, Step&& step) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    step();
    times.push_back(seconds_between(start, Clock::now()));
  }
  return median(std::move(times));
}

}  // namespace perfbench
