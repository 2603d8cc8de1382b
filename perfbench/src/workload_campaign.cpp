// campaign-mp: CampaignRunner::run with forked workers supervised by the
// coordinator, over a corpus generated in set-up and handed to the runner
// through a VectorSource factory, in a fresh directory per campaign, with
// no faults. The only workload that writes: shard packing, atomic writes
// with fsync, manifest appends and wire frames, plus shard decoding.
#include <sys/stat.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>

#include "campaign/runner.hpp"
#include "io/fsio.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
using namespace adaparse;

namespace {

/// Twelve shards of 64 documents, four per worker.
constexpr std::size_t kCorpusDocs = 768;
constexpr std::size_t kDocsPerShard = 64;
constexpr std::size_t kWorkers = 3;

campaign::CampaignConfig campaign_config(
    const std::string& dir, campaign::CampaignConfig::ExecutionMode mode) {
  campaign::CampaignConfig config;
  config.dir = dir;
  config.execution = mode;
  config.docs_per_shard = kDocsPerShard;
  config.workers = kWorkers;
  return config;
}

struct Campaign {
  campaign::CampaignStats stats;
  double wall = 0.0;
  /// Per document: seconds from the run() call until its shard's output
  /// file was written.
  std::vector<double> doc_latency;
  Digest output;
  bool final_record = false;
};

timespec realtime_now() {
  timespec now{};
  ::clock_gettime(CLOCK_REALTIME, &now);
  return now;
}

double seconds_between(const timespec& from, const timespec& to) {
  return static_cast<double>(to.tv_sec - from.tv_sec) +
         static_cast<double>(to.tv_nsec - from.tv_nsec) * 1e-9;
}

/// Runs one campaign in `dir`. Each shard's commit time is read afterwards
/// from its output file's modification time: polling the runner from a
/// second thread instead would make the coordinator fork its workers from
/// a multi-threaded process, which it never does on its own.
Campaign run_campaign(const core::AdaParseEngine& engine,
                      const std::vector<doc::Document>& corpus,
                      const std::string& dir,
                      campaign::CampaignConfig::ExecutionMode mode,
                      SpanLog* spans) {
  campaign::CampaignRunner runner(engine, campaign_config(dir, mode));
  Campaign c;
  const timespec real_start = realtime_now();
  const auto start = Clock::now();
  c.stats = runner.run(
      [&corpus] { return std::make_unique<core::VectorSource>(corpus); });
  const auto end = Clock::now();
  c.wall = perfbench::seconds_between(start, end);
  if (spans != nullptr) spans->add("campaign.run", 0, start, end);

  for (std::size_t shard = 0; shard * kDocsPerShard < corpus.size(); ++shard) {
    struct stat info {};
    if (::stat(runner.shard_output_path(shard).c_str(), &info) != 0) {
      throw std::runtime_error("campaign: shard output missing");
    }
    const double latency = seconds_between(real_start, info.st_mtim);
    const std::size_t docs =
        std::min(kDocsPerShard, corpus.size() - shard * kDocsPerShard);
    c.doc_latency.insert(c.doc_latency.end(), docs, latency);
    if (spans != nullptr) {
      spans->add("campaign.commit", 0, start,
                 start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(latency)));
    }
  }

  c.output = digest_of(io::read_file(runner.output_path()).value_or(""));
  c.final_record = campaign::load_manifest(runner.manifest_path())
                       .final_record.has_value();
  return c;
}

struct Window {
  double seconds = 0.0;
  std::size_t docs = 0;
  // One entry per campaign:
  std::vector<double> wall, latency_p50, latency_p90, first_commit, rss_mb;
  std::vector<campaign::CampaignStats> stats;
  std::vector<Digest> outputs;
  std::size_t missing_final = 0;

  double docs_per_s() const {
    return static_cast<double>(docs) / static_cast<double>(wall.size()) /
           median(wall);
  }
};

Window run_window(const core::AdaParseEngine& engine,
                  const std::vector<doc::Document>& corpus,
                  const Options& options, SpanLog* spans) {
  Window w;
  do {
    const std::string dir =
        fresh_dir(options, "campaign-" + std::to_string(w.stats.size()));
    reset_peak_rss();
    Campaign c = run_campaign(
        engine, corpus, dir,
        campaign::CampaignConfig::ExecutionMode::kMultiProcess, spans);
    w.rss_mb.push_back(peak_rss_mb());
    std::filesystem::remove_all(dir);
    w.seconds += c.wall;
    w.docs += c.stats.docs_processed;
    w.wall.push_back(c.wall);
    w.latency_p50.push_back(percentile(c.doc_latency, 0.50));
    w.latency_p90.push_back(percentile(c.doc_latency, 0.90));
    w.first_commit.push_back(
        *std::min_element(c.doc_latency.begin(), c.doc_latency.end()));
    w.stats.push_back(c.stats);
    w.outputs.push_back(c.output);
    if (!c.final_record) ++w.missing_final;
  } while (w.seconds < options.seconds);
  return w;
}

}  // namespace

void run_campaign_mp(const Options& options, Report& report) {
  const auto corpus_config =
      eval_corpus_config(kCorpusDocs, derive_seed(options.seed, 2));
  std::optional<core::TrainedAdaParse> models;
  std::vector<doc::Document> corpus;
  const double setup_s =
      median_setup_seconds(options.trace ? 1 : kSetupReps, [&] {
        models.reset();
        corpus.clear();
        models = train_models();
        corpus = generate_corpus(corpus_config);
        const std::string dir = fresh_dir(options, "warmup");
        run_campaign(*models->llm, corpus, dir,
                     campaign::CampaignConfig::ExecutionMode::kMultiProcess,
                     nullptr);
        std::filesystem::remove_all(dir);
      });
  const core::AdaParseEngine& engine = *models->llm;

  const Window window = run_window(engine, corpus, options, nullptr);
  const double docs_per_s = window.docs_per_s();
  log_walls("campaign-mp: campaigns", window.wall);
  // Operations are shard attempts: a worker that dies mid-campaign fails
  // one, and the runner's retry still yields the same output bytes.
  for (const auto& stats : window.stats) {
    report.attempted += stats.attempts_started;
    report.failed += stats.attempts_failed;
  }
  if (report.failed > 0) {
    std::size_t died = 0, stolen = 0, hedges = 0;
    for (const auto& stats : window.stats) {
      died += stats.workers_died;
      stolen += stats.shards_stolen;
      hedges += stats.hedges_launched;
    }
    std::cerr << "campaign-mp: " << report.failed
              << " shard attempts failed in a fault-free run (" << died
              << " workers died, " << stolen << " shards stolen, " << hedges
              << " hedges)\n";
  }

  // Reference: the same plan run in-process must give the same bytes.
  const std::string reference_dir = fresh_dir(options, "reference");
  const Campaign reference = run_campaign(
      engine, corpus, reference_dir,
      campaign::CampaignConfig::ExecutionMode::kInProcess, nullptr);
  for (std::size_t i = 0; i < window.outputs.size(); ++i) {
    if (window.outputs[i] != reference.output) {
      report.fail("campaign " + std::to_string(i) + " output.jsonl digest " +
                  to_string(window.outputs[i]) + " != in-process " +
                  to_string(reference.output));
    }
  }
  if (window.missing_final > 0 || !reference.final_record) {
    report.fail("a campaign manifest has no final record");
  }

  // Each shard is one engine run with its own budget windows: these runs
  // give the simulated GPU cost and the routing the replay must match.
  std::vector<core::RunOutput> shard_runs;
  double gpu_seconds = 0.0;
  for (std::size_t begin = 0; begin < corpus.size(); begin += kDocsPerShard) {
    const std::vector<doc::Document> shard(
        corpus.begin() + static_cast<std::ptrdiff_t>(begin),
        corpus.begin() + static_cast<std::ptrdiff_t>(
                             std::min(corpus.size(), begin + kDocsPerShard)));
    shard_runs.push_back(engine.run(shard));
    gpu_seconds += shard_runs.back().stats.nougat_gpu_seconds;
  }

  if (!options.trace) {
    std::istringstream output(
        io::read_file(reference_dir + "/output.jsonl").value_or(""));
    const std::vector<io::ParseRecord> records = io::read_jsonl(output);
    std::vector<const doc::Document*> docs;
    std::vector<const io::ParseRecord*> record_ptrs;
    for (std::size_t i = 0; i < records.size() && i < corpus.size(); ++i) {
      if (records[i].document_id != corpus[i].id) {
        report.fail("output.jsonl is not in corpus order");
        break;
      }
      docs.push_back(&corpus[i]);
      record_ptrs.push_back(&records[i]);
    }
    report.set("setup_s", setup_s);
    report.set("docs_per_s", docs_per_s);
    report.set("latency_p50_s", median(window.latency_p50));
    report.set("latency_p90_s", median(window.latency_p90));
    report.set("first_record_p50_s", median(window.first_commit));
    report.set("bleu_mean", mean_bleu(docs, record_ptrs));
    report.set("sim_gpu_s_per_doc",
               gpu_seconds / static_cast<double>(corpus.size()));
    // The coordinator, which holds the corpus and stages the shards. A
    // worker's resident set counts copy-on-write pages it shares with the
    // coordinator, and how many depends on where its allocator reuses
    // inherited heap, so it is logged, not reported.
    report.set("peak_rss_mb", median(window.rss_mb));
    std::cerr << "campaign-mp: worker peak RSS " << children_peak_rss_mb()
              << " MiB\n";
    return;
  }

  SpanLog spans;
  const Window traced = run_window(engine, corpus, options, &spans);
  report_trace_overhead(docs_per_s, traced.docs_per_s(), report);
  double attempts = 0.0, commits = 0.0, recovery = 0.0;
  for (const auto& stats : window.stats) {
    attempts += static_cast<double>(stats.attempts_started);
    commits += static_cast<double>(stats.shards_committed);
    recovery += stats.recovery_wall_seconds;
  }
  report.set("campaign.attempts_per_commit", attempts / std::max(1.0, commits));
  report.set("campaign.recovery_wall_s",
             recovery / static_cast<double>(window.stats.size()));

  std::vector<core::EngineStats> stats;
  ReplayInput replay;
  replay.engine = &engine;
  replay.models = &*models;
  for (std::size_t s = 0; s < shard_runs.size(); ++s) {
    stats.push_back(shard_runs[s].stats);
    ReplayGroup group;
    for (std::size_t i = s * kDocsPerShard;
         i < std::min(corpus.size(), (s + 1) * kDocsPerShard); ++i) {
      group.docs.push_back(&corpus[i]);
    }
    group.output = &shard_runs[s];
    replay.groups.push_back(std::move(group));
  }
  report_engine_stats(stats, report);
  const doc::CorpusGenerator generator(corpus_config);
  replay.regenerate = [&](std::size_t i) { return generator.generate_one(i); };
  replay.request_bytes = parse_request(
      spec_body("campaign", "llm", engine.config().alpha,
                engine.config().batch_size, corpus.size(),
                static_cast<std::uint32_t>(corpus_config.seed)));
  replay.scratch_dir = fresh_dir(options, "layers");
  replay_layers(replay, spans, report);
  // Forked workers own their pipelines; nothing here is served over HTTP.
  report.not_exercised({"serve.queue_wait_mean_s", "sched.warm_cache_loads",
                        "http.response_bytes_per_doc", "http.gen_lag_p90_s"});
  spans.write_chrome_trace(trace_path(options));
}

}  // namespace perfbench
