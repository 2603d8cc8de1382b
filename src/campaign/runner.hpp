// Fault-tolerant sharded campaign execution — the paper's multi-node
// deployment scenario made restartable.
//
// A campaign turns one DocumentSource into one output.jsonl through three
// journaled phases (see campaign/manifest.hpp):
//
//   stage    pull the corpus, pack it into durable shard files
//            (io::pack_corpus_shard, the paper's §6.1 archive staging),
//            then commit a plan record
//   execute  a campaign::Coordinator (campaign/coordinator.hpp) schedules
//            the uncommitted shards over N workers, each driving one shard
//            at a time through a core::Pipeline. The workers are threads in
//            this process or forked processes (CampaignConfig::execution);
//            the scheduling policy is the same. A finished shard's output is
//            renamed into place and a shard record appended — the commit
//            point
//   assemble concatenate committed shard outputs in shard order into
//            output.jsonl and commit a final record
//
// Because shard execution is deterministic (per-document RNG seeds, the
// per-batch floor(alpha*k) budget applied within each shard) and commits
// are atomic (rename + journal append), a run killed at any shard
// boundary and resumed produces byte-identical output to an uninterrupted
// run. Recovery machinery on top, all in the coordinator:
//
//   retry        a failed attempt requeues the shard
//   quarantine   a document that kills max_shard_attempts consecutive
//                attempts is journaled and replaced by a deterministic
//                quarantine record
//   re-staging   a corrupt shard file is rebuilt from the source
//   hedging      a straggling shard is re-dispatched to an idle worker;
//                the first finisher commits
//
// Faults are injected via a scripted FailurePlan (campaign/failure.hpp) so
// every scenario is deterministic and replayable in tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/failure.hpp"
#include "campaign/manifest.hpp"
#include "core/doc_source.hpp"
#include "core/engine.hpp"

namespace adaparse::campaign {

struct CampaignConfig {
  /// Campaign directory: manifest, shard files, per-shard outputs, and the
  /// final output.jsonl all live here. Created if absent.
  std::string dir;

  /// Which transport the coordinator's N workers use:
  ///   kInProcess     threads in this process sharing one pool and warm
  ///                  cache; scripted crashes are simulated
  ///   kMultiProcess  forked worker processes — faults are real (SIGKILL,
  ///                  OOM, lost children detected via waitpid and missed
  ///                  heartbeats)
  /// Both modes run the same scheduler, shard plan, commit protocol, and
  /// manifest, so output is byte-identical across modes and a campaign
  /// killed in one mode can resume in the other.
  enum class ExecutionMode { kInProcess, kMultiProcess };
  ExecutionMode execution = ExecutionMode::kInProcess;

  /// Documents per shard (the last shard takes the remainder).
  std::size_t docs_per_shard = 64;

  /// Concurrent shard executions: worker threads (kInProcess) or forked
  /// worker processes (kMultiProcess). Each drives one core::Pipeline at
  /// a time.
  std::size_t workers = 2;

  /// Shards pre-assigned per worker (one running plus depth-1 queued), so
  /// a worker never idles waiting for a dispatch round-trip.
  /// Queued-but-unstarted shards are what the coordinator steals back for
  /// idle workers.
  std::size_t worker_queue_depth = 2;

  /// A worker with assigned work that has sent no heartbeat/result for
  /// this long is presumed lost (hung, not dead — reaping catches dead)
  /// and is killed; its shards requeue. A worker process gets SIGKILL; a
  /// thread worker's kill only cancels its attempt, so a thread stuck
  /// outside the pipeline's cancellation points stays stuck.
  std::chrono::milliseconds heartbeat_timeout{30000};

  /// Replacement workers started over one run() before the coordinator
  /// gives up — a backstop against a crash loop, set far above any
  /// plausible recovery count.
  std::size_t max_worker_respawns = 256;

  /// Per-shard pipeline width. Thread workers share one pool sized
  /// workers * (extract_workers + upgrade_workers) so every concurrent
  /// shard can run its full complement (the shared-pool deadlock-free
  /// minimum, same rule as serve::ParseService); a worker process owns a
  /// pool of extract_workers + upgrade_workers.
  std::size_t extract_workers = 2;
  std::size_t upgrade_workers = 1;
  std::size_t queue_capacity = 16;

  /// Consecutive failed attempts of one shard before the document the
  /// last attempt died on is quarantined.
  std::size_t max_shard_attempts = 3;

  /// Hedged re-dispatch: an idle worker re-runs a shard whose runtime
  /// exceeds max(hedge_min_runtime, hedge_factor * median committed shard
  /// time). 0 disables hedging.
  double hedge_factor = 4.0;
  std::chrono::milliseconds hedge_min_runtime{200};

  /// Scripted faults; empty plan = plain run.
  FailurePlan failures;
};

/// Campaign-level counters, MetricsRegistry-style: snapshot() returns
/// plain values, render_prometheus() the text exposition format.
struct CampaignStats {
  std::size_t shards_total = 0;
  std::size_t shards_committed = 0;      ///< durable commits, all runs
  std::size_t shards_resumed_skip = 0;   ///< committed by an earlier run
  std::size_t attempts_started = 0;
  std::size_t attempts_failed = 0;
  std::size_t shards_retried = 0;        ///< requeues after a failed attempt
  std::size_t hedges_launched = 0;
  std::size_t hedges_won = 0;            ///< hedge committed before primary
  std::size_t docs_processed = 0;        ///< records in shards this run committed
  std::size_t docs_quarantined = 0;
  std::size_t corrupt_shard_recoveries = 0;   ///< shard files re-staged
  std::size_t corrupt_output_recoveries = 0;  ///< committed outputs re-run
  bool recovered_torn_manifest = false;  ///< resume dropped a torn tail
  // Worker supervision (threads or processes):
  std::size_t workers_spawned = 0;   ///< initial + respawns
  std::size_t workers_died = 0;      ///< processes reaped, threads exited
  std::size_t workers_killed = 0;    ///< killed for missed heartbeats
  std::size_t shards_stolen = 0;     ///< queued shards moved off stragglers
  /// Wall-clock spent in attempts that did not commit (failed, cancelled,
  /// or lost hedges) — the price of recovery.
  double recovery_wall_seconds = 0.0;
  /// Measured per-fault recovery latencies: for every worker death or
  /// kill, the wall-clock between dispatching the attempt it was running
  /// and requeueing that shard — the real per-process recovery cost that
  /// hpc::throughput_sweep_measured projects onto the cluster.
  std::vector<double> recovery_latency_seconds;
  double wall_seconds = 0.0;
  bool halted = false;     ///< stopped by the scripted kill; resume to finish
  bool completed = false;  ///< output.jsonl assembled
};

/// Prometheus text exposition of a stats snapshot (adaparse_campaign_*).
std::string render_prometheus(const CampaignStats& stats);

class CampaignRunner {
 public:
  /// Re-creates the input stream. Called once for staging and again for
  /// every corrupt-shard re-staging, so it must yield the same documents
  /// in the same order each time (generator and shard sources do).
  using SourceFactory =
      std::function<std::unique_ptr<core::DocumentSource>()>;

  /// The engine must outlive the runner.
  CampaignRunner(const core::AdaParseEngine& engine, CampaignConfig config);

  /// Runs the campaign to completion — or resumes one: committed shards
  /// recorded in the manifest are verified (checksum) and skipped. Returns
  /// the final stats; stats().halted means the scripted kill fired and a
  /// later run() picks up from the journal. Throws std::runtime_error on
  /// unrecoverable corruption or an engine-config mismatch with the
  /// manifest's fingerprint; in kInProcess mode, an exception escaping a
  /// shard attempt propagates with its own message.
  CampaignStats run(const SourceFactory& source);

  /// Thread-safe live view (usable from another thread mid-run).
  CampaignStats snapshot() const;

  std::string output_path() const;
  std::string manifest_path() const;
  std::string shard_path(std::size_t index) const;
  std::string shard_output_path(std::size_t index) const;

  const CampaignConfig& config() const { return config_; }

 private:
  std::string fingerprint() const;
  void stage(const SourceFactory& source, ManifestWriter& manifest,
             ManifestState& state);

  const core::AdaParseEngine& engine_;
  CampaignConfig config_;

  mutable std::mutex mutex_;  ///< guards stats_ (snapshot() polls mid-run)
  CampaignStats stats_;
};

}  // namespace adaparse::campaign
