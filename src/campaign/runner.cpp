#include "campaign/runner.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "campaign/coordinator.hpp"
#include "campaign/worker.hpp"
#include "io/doc_codec.hpp"
#include "io/fsio.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/stopwatch.hpp"

namespace adaparse::campaign {

std::string render_prometheus(const CampaignStats& stats) {
  // Built on the shared obs::Registry renderer. Values go in as doubles —
  // the campaign exposition has always rendered through double formatting —
  // and this surface carries no HELP lines; both properties keep the output
  // byte-identical to the pre-registry renderer.
  obs::Registry registry;
  const auto counter = [&registry](const char* name, double value) {
    registry.counter(name).set(value);
  };
  const auto gauge = [&registry](const char* name, double value) {
    registry.gauge(name).set(value);
  };
  gauge("adaparse_campaign_shards_total",
        static_cast<double>(stats.shards_total));
  counter("adaparse_campaign_shards_committed",
          static_cast<double>(stats.shards_committed));
  counter("adaparse_campaign_shards_resumed_skip",
          static_cast<double>(stats.shards_resumed_skip));
  counter("adaparse_campaign_attempts_started",
          static_cast<double>(stats.attempts_started));
  counter("adaparse_campaign_attempts_failed",
          static_cast<double>(stats.attempts_failed));
  counter("adaparse_campaign_shards_retried",
          static_cast<double>(stats.shards_retried));
  counter("adaparse_campaign_hedges_launched",
          static_cast<double>(stats.hedges_launched));
  counter("adaparse_campaign_hedges_won",
          static_cast<double>(stats.hedges_won));
  counter("adaparse_campaign_docs_processed",
          static_cast<double>(stats.docs_processed));
  counter("adaparse_campaign_docs_quarantined",
          static_cast<double>(stats.docs_quarantined));
  counter("adaparse_campaign_corrupt_shard_recoveries",
          static_cast<double>(stats.corrupt_shard_recoveries));
  counter("adaparse_campaign_corrupt_output_recoveries",
          static_cast<double>(stats.corrupt_output_recoveries));
  gauge("adaparse_campaign_recovered_torn_manifest",
        stats.recovered_torn_manifest ? 1.0 : 0.0);
  counter("adaparse_campaign_workers_spawned",
          static_cast<double>(stats.workers_spawned));
  counter("adaparse_campaign_workers_died",
          static_cast<double>(stats.workers_died));
  counter("adaparse_campaign_workers_killed",
          static_cast<double>(stats.workers_killed));
  counter("adaparse_campaign_shards_stolen",
          static_cast<double>(stats.shards_stolen));
  counter("adaparse_campaign_recovery_events",
          static_cast<double>(stats.recovery_latency_seconds.size()));
  counter("adaparse_campaign_recovery_wall_seconds",
          stats.recovery_wall_seconds);
  gauge("adaparse_campaign_wall_seconds", stats.wall_seconds);
  gauge("adaparse_campaign_halted", stats.halted ? 1.0 : 0.0);
  gauge("adaparse_campaign_completed", stats.completed ? 1.0 : 0.0);
  registry.gauge("adaparse_simd_tier", "", {{"tier", simd::active_tier_name()}})
      .set(1);
  return registry.render_prometheus();
}

CampaignRunner::CampaignRunner(const core::AdaParseEngine& engine,
                               CampaignConfig config)
    : engine_(engine), config_(std::move(config)) {
  config_.docs_per_shard = std::max<std::size_t>(1, config_.docs_per_shard);
  config_.workers = std::max<std::size_t>(1, config_.workers);
  config_.extract_workers = std::max<std::size_t>(1, config_.extract_workers);
  config_.upgrade_workers = std::max<std::size_t>(1, config_.upgrade_workers);
  config_.max_shard_attempts =
      std::max<std::size_t>(1, config_.max_shard_attempts);
}

std::string CampaignRunner::output_path() const {
  return (std::filesystem::path(config_.dir) / "output.jsonl").string();
}

std::string CampaignRunner::manifest_path() const {
  return (std::filesystem::path(config_.dir) / "manifest.jsonl").string();
}

std::string CampaignRunner::shard_path(std::size_t index) const {
  return shard_file_path(config_.dir, index);
}

std::string CampaignRunner::shard_output_path(std::size_t index) const {
  return shard_output_file_path(config_.dir, index);
}

std::string CampaignRunner::fingerprint() const {
  const core::EngineConfig& ec = engine_.config();
  std::ostringstream os;
  os << core::variant_name(ec.variant) << "|alpha=" << ec.alpha
     << "|k=" << ec.batch_size << "|cls2=" << ec.cls2_threshold
     << "|shard=" << config_.docs_per_shard
     // Config alone is not enough: a resume with a differently-*trained*
     // engine of identical config would silently mix two models' outputs.
     << "|model=" << engine_.model_digest();
  return os.str();
}

void CampaignRunner::stage(const SourceFactory& source,
                           ManifestWriter& manifest, ManifestState& state) {
  obs::SpanGuard stage_span("campaign", "stage");
  auto stream = source();
  std::vector<doc::Document> chunk;
  chunk.reserve(config_.docs_per_shard);
  PlanRecord plan;
  plan.fingerprint = fingerprint();
  const auto flush = [&] {
    if (chunk.empty()) return;
    io::write_file_atomic(shard_path(plan.shard_docs.size()),
                          io::pack_corpus_shard(chunk));
    plan.shard_docs.push_back(chunk.size());
    chunk.clear();
  };
  while (auto document = stream->next()) {
    chunk.push_back(*document);
    ++plan.docs;
    if (chunk.size() == config_.docs_per_shard) flush();
  }
  flush();
  // The plan record is the staging commit point: a crash before this line
  // re-stages everything; after it, shard files are durable inputs.
  manifest.append(plan);
  stage_span.arg("docs", plan.docs);
  stage_span.arg("shards", plan.shard_docs.size());
  state.plan = std::move(plan);
}

CampaignStats CampaignRunner::run(const SourceFactory& source) {
  util::Stopwatch wall;

  // Root span of the whole campaign. Publishing its id as the ambient trace
  // context makes it the parent of every root span recorded below — on this
  // process's pool threads AND inside forked workers, which inherit the
  // context through the fork memory image and flush their spans back over
  // kSpans frames.
  obs::SpanGuard run_span("campaign", "run");
  obs::Tracer& tracer = obs::Tracer::instance();
  const obs::TraceContext outer_ctx = tracer.context();
  struct ContextRestore {
    obs::Tracer& tracer;
    obs::TraceContext saved;
    bool armed;
    ~ContextRestore() {
      if (armed) tracer.set_context(saved);
    }
  } restore{tracer, outer_ctx, run_span.active()};
  if (run_span.active()) {
    obs::TraceContext ctx = outer_ctx;
    if (ctx.trace_id == 0) ctx.trace_id = run_span.id();
    ctx.parent_span = run_span.id();
    tracer.set_context(ctx);
  }

  std::filesystem::create_directories(config_.dir);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = CampaignStats{};
  }

  ManifestState state = load_manifest(manifest_path());
  if (state.dropped_torn_tail) {
    std::lock_guard<std::mutex> lock(mutex_);  // snapshot() may be polling
    stats_.recovered_torn_manifest = true;
  }
  ManifestWriter manifest(manifest_path());  // cuts the torn tail off
  if (state.plan) {
    if (state.plan->fingerprint != fingerprint()) {
      throw std::runtime_error(
          "campaign: engine/config fingerprint mismatch with manifest (got '" +
          fingerprint() + "', manifest has '" + state.plan->fingerprint +
          "') — committed shards would not be reproducible");
    }
  } else {
    stage(source, manifest, state);
  }
  const std::vector<std::size_t>& shard_docs = state.plan->shard_docs;

  std::deque<std::size_t> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.shards_total = shard_docs.size();
    for (std::size_t i = 0; i < shard_docs.size(); ++i) {
      if (auto it = state.shards.find(i); it != state.shards.end()) {
        // Trust, but verify: a committed shard whose output file is gone
        // or damaged is demoted back to pending (re-execution is
        // deterministic, so the final bytes are unaffected).
        const auto bytes = io::read_file(shard_output_path(i));
        if (bytes && io::fnv1a(*bytes) == it->second.checksum) {
          ++stats_.shards_committed;
          ++stats_.shards_resumed_skip;
          continue;
        }
        ++stats_.corrupt_output_recoveries;
      }
      pending.push_back(i);
    }
    if (stats_.shards_resumed_skip > 0) {
      obs::Tracer::instance().instant(
          "campaign", "resume", "skipped",
          static_cast<std::uint64_t>(stats_.shards_resumed_skip), "pending",
          static_cast<std::uint64_t>(pending.size()));
    }
  }

  // Already assembled and intact? Then this run is a cheap no-op: don't
  // re-read every shard output or append a duplicate final record.
  if (state.final_record && pending.empty()) {
    const auto bytes = io::read_file(output_path());
    if (bytes && io::fnv1a(*bytes) == state.final_record->checksum) {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.completed = true;
      stats_.wall_seconds = wall.seconds();
      return stats_;
    }
  }

  // Scripted at-rest corruption: damage the named shard files before any
  // worker reads them (committed shards no longer read their inputs).
  for (const std::size_t shard : config_.failures.corrupt_shards) {
    if (std::find(pending.begin(), pending.end(), shard) == pending.end()) {
      continue;
    }
    if (auto bytes = io::read_file(shard_path(shard))) {
      io::write_file_atomic(shard_path(shard),
                            std::string_view(*bytes).substr(0, bytes->size() / 2));
    }
  }

  bool halted = false;
  if (!pending.empty()) {
    // Forked workers inherit the executor through the fork's memory image —
    // trained engine included, no serialization.
    ShardExecutor executor;
    executor.engine = &engine_;
    executor.config = &config_;
    executor.shard_docs = shard_docs;
    executor.source = source;
    Coordinator coordinator(
        std::move(executor), manifest, std::move(pending),
        std::move(state.quarantines),
        // All stats mutations funnel through the runner's mutex, so
        // snapshot() stays a coherent live view mid-run.
        [this](const std::function<void(CampaignStats&)>& fn) {
          std::lock_guard<std::mutex> lock(mutex_);
          fn(stats_);
        });
    halted = coordinator.run();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!halted) {
    // All shards durable: assemble (no worker is left running).
    std::string all;
    for (std::size_t i = 0; i < shard_docs.size(); ++i) {
      const auto bytes = io::read_file(shard_output_path(i));
      if (!bytes) {
        throw std::runtime_error("campaign: committed shard output missing: " +
                                 shard_output_path(i));
      }
      all += *bytes;
    }
    io::write_file_atomic(output_path(), all);
    FinalRecord fin;
    fin.records =
        static_cast<std::size_t>(std::count(all.begin(), all.end(), '\n'));
    fin.checksum = io::fnv1a(all);
    manifest.append(fin);
    stats_.completed = true;
  }
  stats_.wall_seconds = wall.seconds();
  run_span.arg("docs", stats_.docs_processed);
  run_span.arg("shards", stats_.shards_committed);
  return stats_;
}

CampaignStats CampaignRunner::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace adaparse::campaign
