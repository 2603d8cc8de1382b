// The worker half of a campaign: one shard attempt, and the task loop that
// runs attempts for the coordinator.
//
// ShardExecutor runs one attempt: read (or re-stage) the shard file, filter
// the quarantine list, apply scripted faults, drive the documents through a
// core::Pipeline, and serialize the shard's output with deterministic
// quarantine stand-ins. Every worker runs exactly this code against the same
// shard plan, so a campaign's output is byte-identical across execution
// modes — and a run killed in one mode resumes in the other.
//
// run_task_loop() is a worker's event loop, the same on both transports the
// campaign::Coordinator supervises: read framed task messages, stream
// per-record heartbeats back, write each successful shard output via the
// atomic-rename protocol, and report results.
//
//   forked child  worker_main() wraps the loop with the process-only setup:
//                 the tracer's fork re-stamp and span flushing over kSpans,
//                 a private pool, and real crashes — a scripted WorkerCrash
//                 SIGKILLs the process, so kill/resume is proven against
//                 genuine process death
//   thread        the coordinator runs the loop on a std::thread that
//                 shares the campaign's pool and warm cache; scripted
//                 crashes are simulated (the attempt reports failure), and
//                 the loop's cancel flag stands in for SIGKILL
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

namespace adaparse::sched {
class ThreadPool;
class WarmModelCache;
}  // namespace adaparse::sched

namespace adaparse::campaign {

/// Shard/output file paths inside a campaign directory (shared by the
/// runner, the coordinator, and workers).
std::string shard_file_path(const std::string& dir, std::size_t index);
std::string shard_output_file_path(const std::string& dir, std::size_t index);

/// What one shard attempt produced.
struct AttemptOutcome {
  enum class Kind { kSuccess, kFailed, kCancelled };
  Kind kind = Kind::kFailed;
  std::string output;            ///< serialized JSONL (success only)
  std::size_t records = 0;       ///< lines in `output`
  std::size_t quarantined_in_shard = 0;
  std::string failed_doc_id;     ///< document a failed attempt died on
  double wall_seconds = 0.0;
  bool restaged = false;         ///< shard file was corrupt; rebuilt
};

/// Everything needed to execute shard attempts, bundled so a forked child
/// inherits it by memory image. Thread workers point `pool` and
/// `warm_cache` at the coordinator's shared substrate; a worker process
/// owns a private pair sized for one attempt.
struct ShardExecutor {
  const core::AdaParseEngine* engine = nullptr;
  const CampaignConfig* config = nullptr;
  std::vector<std::size_t> shard_docs;  ///< documents per shard (the plan)
  CampaignRunner::SourceFactory source;
  sched::ThreadPool* pool = nullptr;
  sched::WarmModelCache* warm_cache = nullptr;
  /// Worker processes set this: a scripted WorkerCrash SIGKILLs the
  /// process at its fault point instead of simulating the death.
  bool real_crashes = false;

  /// Runs one attempt. `quarantined` is the quarantine list snapshot the
  /// attempt builds against (doc ids, order irrelevant). `on_record`, when
  /// set, fires after each record reaches the sink with the in-order
  /// emitted count — the worker process's heartbeat hook.
  AttemptOutcome run_attempt(
      std::size_t shard, std::size_t attempt,
      const std::vector<std::string>& quarantined,
      const std::atomic<bool>* cancel,
      const std::function<void(std::size_t)>& on_record) const;

  /// Replays the source to rebuild one shard's documents (corrupt-shard
  /// re-staging, quarantine attribution). Throws if the source shrank.
  std::vector<doc::Document> load_shard_docs(std::size_t shard) const;
};

/// A worker's task loop: reads kTask/kRevoke/kShutdown frames from
/// `task_fd`, runs each task's attempt, writes kHeartbeat/kResult frames to
/// `result_fd`, and calls `after_result` (if set) after each result.
/// Returns on kShutdown, coordinator EOF, or a closed result pipe — or once
/// `cancel` is set, in which case the attempt in flight is cancelled and
/// reports nothing, like a killed process. Exceptions from an attempt
/// propagate.
void run_task_loop(const ShardExecutor& executor, int task_fd,
                   int result_fd, const std::atomic<bool>* cancel,
                   const std::function<void()>& after_result);

/// Entry point of a forked worker process: run_task_loop() with real
/// crashes, a private pool, and span flushing; exits 0 on shutdown or
/// coordinator EOF. Never throws (a worker that cannot proceed exits
/// nonzero and the coordinator requeues its work).
int worker_main(const ShardExecutor& executor, int task_fd, int result_fd);

}  // namespace adaparse::campaign
