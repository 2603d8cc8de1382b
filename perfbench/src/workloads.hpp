// The three workloads, each driven through one public entry point. Every
// workload sets itself up kSetupReps times (reporting the median as
// setup_s), measures for Options::seconds, then checks its outputs outside
// the timed window. With Options::trace it instead measures an untraced
// and a traced window (their docs/s ratio is trace.overhead) and replays
// its documents through the layers (layers.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "doc/document.hpp"
#include "harness.hpp"
#include "io/jsonl.hpp"

namespace perfbench {

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

// peak_rss_mb is the resident-set high-water mark while the timed work
// runs (reset_peak_rss() before it): set-up's transient buffers do not
// count, everything set-up leaves resident does.

/// batch-llm: AdaParseEngine::run's streaming pipeline, pass after pass
/// over an in-memory corpus.
void run_batch_llm(const Options& options, Report& report);

/// http-generator: open-loop POST /v1/parse generator jobs against an
/// in-process HttpServer.
void run_http_generator(const Options& options, Report& report);

/// campaign-mp: CampaignRunner::run with forked worker processes.
void run_campaign_mp(const Options& options, Report& report);

/// A /v1 JobSpec body with a generator documents section.
std::string spec_body(const std::string& tenant, const std::string& variant,
                      double alpha, std::size_t batch_size, std::size_t count,
                      std::uint32_t seed);

/// The keep-alive POST /v1/parse request carrying `body`.
std::string parse_request(const std::string& body);

/// Mean document BLEU of `records` against the ground truth of `docs`
/// (aligned by position), computed on nproc() threads.
double mean_bleu(const std::vector<const adaparse::doc::Document*>& docs,
                 const std::vector<const adaparse::io::ParseRecord*>& records);

/// trace.overhead: how much slower the traced window ran (0 = no cost).
void report_trace_overhead(double untraced_docs_per_s,
                           double traced_docs_per_s, Report& report);

}  // namespace perfbench
