// batch-llm: the LLM variant (alpha = 0.05, k = 256, threads = nproc) over
// an in-memory corpus generated in set-up. The document source costs
// nothing here, so extraction, CLS I and CLS III scoring on the single
// route thread, budget selection and upgrade hold all the time.
#include <algorithm>
#include <optional>

#include "core/doc_source.hpp"
#include "core/pipeline.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
using namespace adaparse;

namespace {

/// Three routing windows of k = 256: a pass takes under half a second, so
/// a timed window holds dozens of passes.
constexpr std::size_t kCorpusDocs = 768;

/// One call of the engine over the corpus.
struct Pass {
  core::RunOutput output;
  double wall = 0.0;
  /// Per document: seconds from the call to its record reaching the sink.
  std::vector<double> record_latency;
};

/// Runs the pipeline AdaParseEngine::run builds (Pipeline(engine) with its
/// default config) with a sink that does what run() does — keeps every
/// record and decision — and also notes when each record arrived.
Pass run_pass(const core::AdaParseEngine& engine,
              const std::vector<doc::Document>& corpus, SpanLog* spans) {
  Pass pass;
  pass.output.records.assign(corpus.size(), {});
  pass.output.decisions.assign(corpus.size(), {});
  pass.record_latency.assign(corpus.size(), 0.0);
  const core::Pipeline pipeline(engine);
  core::VectorSource source(corpus);
  const ScopedSpan span(spans, "batch.pass");
  const auto start = Clock::now();
  pass.output.stats = pipeline.run(
      source, [&](std::size_t index, const io::ParseRecord& record,
                  const core::RouteDecision& decision) {
        const auto now = Clock::now();
        pass.output.records[index] = record;
        pass.output.decisions[index] = decision;
        pass.record_latency[index] = seconds_between(start, now);
        if (spans != nullptr) spans->add("batch.record", span.id(), start, now);
      });
  pass.wall = seconds_between(start, Clock::now());
  return pass;
}

/// Passes until `seconds` of them have run. Rates and latencies are
/// medians over passes, so a burst of load from outside the process moves
/// one pass, not the result.
struct Window {
  double seconds = 0.0;
  std::size_t docs = 0;
  std::size_t failed = 0;
  // One entry per pass:
  std::vector<double> wall, latency_p50, latency_p90, first_record, rss_mb;
  std::vector<core::EngineStats> stats;
  Pass first, last;

  double docs_per_s() const {
    return static_cast<double>(docs) / static_cast<double>(wall.size()) /
           median(wall);
  }
};

Window run_window(const core::AdaParseEngine& engine,
                  const std::vector<doc::Document>& corpus, int seconds,
                  SpanLog* spans) {
  Window w;
  do {
    reset_peak_rss();
    Pass pass = run_pass(engine, corpus, spans);
    w.rss_mb.push_back(peak_rss_mb());
    w.seconds += pass.wall;
    w.docs += corpus.size();
    w.failed += pass.output.stats.failed_docs;
    w.wall.push_back(pass.wall);
    w.latency_p50.push_back(percentile(pass.record_latency, 0.50));
    w.latency_p90.push_back(percentile(pass.record_latency, 0.90));
    w.first_record.push_back(*std::min_element(pass.record_latency.begin(),
                                               pass.record_latency.end()));
    w.stats.push_back(pass.output.stats);
    (w.stats.size() == 1 ? w.first : w.last) = std::move(pass);
  } while (w.seconds < seconds);
  if (w.stats.size() == 1) w.last = w.first;
  return w;
}

}  // namespace

void run_batch_llm(const Options& options, Report& report) {
  const auto corpus_config =
      eval_corpus_config(kCorpusDocs, derive_seed(options.seed, 1));
  std::optional<core::TrainedAdaParse> models;
  std::vector<doc::Document> corpus;
  const double setup_s =
      median_setup_seconds(options.trace ? 1 : kSetupReps, [&] {
        models.reset();
        corpus.clear();
        models = train_models();
        corpus = generate_corpus(corpus_config);
        run_pass(*models->llm, corpus, nullptr);  // warm-up
      });
  const core::AdaParseEngine& engine = *models->llm;

  const Window window = run_window(engine, corpus, options.seconds, nullptr);
  const double docs_per_s = window.docs_per_s();
  log_walls("batch-llm: passes", window.wall);
  report.attempted = window.docs;
  report.failed = window.failed;

  // Outputs must be byte-identical to the barrier-staged reference, on the
  // first pass and the last.
  const core::RunOutput reference = engine.run_barrier(corpus);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string expected = reference.records[i].to_json().dump();
    if (window.first.output.records[i].to_json().dump() != expected ||
        window.last.output.records[i].to_json().dump() != expected) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) +
                " records differ from run_barrier on the same corpus");
  }
  for (const core::EngineStats& stats : window.stats) {
    if (stats.routed_to_nougat != reference.stats.routed_to_nougat ||
        stats.nougat_gpu_seconds != reference.stats.nougat_gpu_seconds) {
      report.fail("a pass routed differently from run_barrier");
      break;
    }
  }

  if (!options.trace) {
    std::vector<const doc::Document*> docs;
    std::vector<const io::ParseRecord*> records;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      docs.push_back(&corpus[i]);
      records.push_back(&window.last.output.records[i]);
    }
    report.set("setup_s", setup_s);
    report.set("docs_per_s", docs_per_s);
    report.set("latency_p50_s", median(window.latency_p50));
    report.set("latency_p90_s", median(window.latency_p90));
    report.set("first_record_p50_s", median(window.first_record));
    report.set("bleu_mean", mean_bleu(docs, records));
    report.set("sim_gpu_s_per_doc",
               window.last.output.stats.nougat_gpu_seconds /
                   static_cast<double>(corpus.size()));
    report.set("peak_rss_mb", median(window.rss_mb));
    return;
  }

  SpanLog spans;
  const Window traced = run_window(engine, corpus, options.seconds, &spans);
  report_trace_overhead(docs_per_s, traced.docs_per_s(), report);
  report_engine_stats(window.stats, report);

  ReplayInput replay;
  replay.engine = &engine;
  replay.models = &*models;
  ReplayGroup group;
  for (const doc::Document& d : corpus) group.docs.push_back(&d);
  group.output = &window.last.output;
  replay.groups.push_back(std::move(group));
  const doc::CorpusGenerator generator(corpus_config);
  replay.regenerate = [&](std::size_t i) { return generator.generate_one(i); };
  replay.request_bytes = parse_request(
      spec_body("batch", "llm", engine.config().alpha,
                engine.config().batch_size, corpus.size(),
                static_cast<std::uint32_t>(corpus_config.seed)));
  replay.scratch_dir = fresh_dir(options, "layers");
  replay_layers(replay, spans, report);
  // Each pass warms its own model cache inside the pipeline; nothing here
  // queues, serves HTTP or runs a campaign.
  report.not_exercised({"serve.queue_wait_mean_s", "sched.warm_cache_loads",
                        "http.response_bytes_per_doc", "http.gen_lag_p90_s",
                        "campaign.attempts_per_commit",
                        "campaign.recovery_wall_s"});
  spans.write_chrome_trace(trace_path(options));
}

}  // namespace perfbench
