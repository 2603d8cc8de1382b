// The campaign scheduler: one coordinator supervising N workers over pipes,
// for both execution modes.
//
// The coordinator owns the shard queue and the manifest; workers own
// nothing durable. Each worker gets a task channel (down) and a
// heartbeat/result channel (up), with shards pre-assigned up to
// CampaignConfig::worker_queue_depth so workers never idle on a dispatch
// round-trip. A worker runs campaign::run_task_loop() on one of two
// transports:
//
//   forked child  kMultiProcess: process isolation and real deaths
//                 (SIGKILL, OOM, crashes) seen through waitpid
//   thread        kInProcess: a std::thread in this process sharing one
//                 ThreadPool and WarmModelCache; its "kill" is its cancel
//                 flag and its "reap" is the thread having exited
//
// Supervision is one single-threaded poll loop, identical for both:
//
//   reap        a dead worker's uncommitted shards are requeued, its
//               running attempt counted as a measured recovery latency, and
//               a replacement started; an exception that ended a thread
//               worker propagates out of run() instead
//   heartbeats  a worker with assigned work but no message inside
//               heartbeat_timeout is presumed hung and killed (reap then
//               recovers it like any other death)
//   dispatch    fill worker queues from the pending deque; once it drains,
//               steal queued-but-unstarted shards back from the most
//               backlogged worker for idle ones (kRevoke, then the same
//               attempt number on the thief), and hedge long-running shards
//               with a fresh attempt — first commit wins
//   read        drain result pipes, decode frames, update progress, and
//               commit finished shards
//
// Commit protocol: the worker atomically renames the shard output into
// place, the coordinator verifies the file against the result's checksum
// and appends the shard record. Only the coordinator writes the manifest,
// so the journal needs no cross-process locking.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/worker.hpp"
#include "proc/child.hpp"
#include "proc/pipe.hpp"
#include "proc/wire.hpp"

namespace adaparse::campaign {

class Coordinator {
 public:
  /// Applies a mutation to the runner's stats under the runner's mutex, so
  /// CampaignRunner::snapshot() stays coherent mid-run.
  using StatsUpdate =
      std::function<void(const std::function<void(CampaignStats&)>&)>;

  /// `executor` carries the engine/config/plan (pool and warm_cache unset:
  /// the coordinator provides the thread workers' shared pair, and each
  /// forked worker builds its own). `pending` holds the uncommitted shard
  /// indices; every other shard is treated as already committed.
  Coordinator(ShardExecutor executor, ManifestWriter& manifest,
              std::deque<std::size_t> pending,
              std::vector<QuarantineRecord> quarantined, StatsUpdate update);

  /// Cancels and joins any thread worker still running (run() threw).
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Runs the supervision loop until every shard is committed or a
  /// scripted halt fires. Returns true when halted (resume to finish).
  /// Throws std::runtime_error when no worker can be kept alive, and
  /// rethrows an exception that escaped a thread worker's attempt.
  bool run();

 private:
  /// One dispatched attempt, mirrored coordinator-side.
  struct PendingTask {
    std::size_t shard = 0;
    std::size_t attempt = 0;
    bool hedge = false;
    std::chrono::steady_clock::time_point dispatched{};
    /// Quarantine list length the task was dispatched with; commits are
    /// stale if this shard gained a quarantine entry afterwards.
    std::size_t quarantine_snapshot = 0;
    std::size_t docs_done = 0;  ///< last heartbeat progress
  };

  /// A thread worker's stand-ins for a process's pid, signals, and exit.
  struct WorkerThread {
    std::atomic<bool> cancel{false};  ///< the "SIGKILL"
    std::atomic<bool> exited{false};  ///< the task loop has returned
    std::exception_ptr error;         ///< escaped the loop; read after join
    std::thread thread;               ///< joined by the coordinator
  };

  struct Worker {
    proc::Child child;                     ///< forked transport
    std::unique_ptr<WorkerThread> thread;  ///< thread transport
    std::uint64_t id = 0;  ///< pid, or spawn ordinal for a thread (traces)
    proc::Pipe to_child;    ///< coordinator writes tasks
    proc::Pipe from_child;  ///< worker writes heartbeats/results
    proc::FrameDecoder decoder;
    std::deque<PendingTask> assigned;  ///< front = running, rest queued
    std::chrono::steady_clock::time_point last_message{};
    bool alive = false;
    bool kill_sent = false;  ///< heartbeat-timeout kill already fired
  };

  struct ShardInfo {
    enum class Phase { kPending, kRunning, kCommitted };
    Phase phase = Phase::kCommitted;
    std::size_t attempts_started = 0;
    std::size_t failures = 0;   ///< consecutive, since last quarantine
    std::size_t in_flight = 0;  ///< dispatched attempts not yet resolved
    bool hedged = false;
    std::chrono::steady_clock::time_point started{};
  };

  const CampaignConfig& config() const { return *executor_.config; }
  /// The transport: threads for kInProcess, forked children otherwise.
  bool threads() const {
    return config().execution == CampaignConfig::ExecutionMode::kInProcess;
  }
  void update(const std::function<void(CampaignStats&)>& fn) { update_(fn); }
  std::size_t remaining() const;
  std::size_t alive_workers() const;

  // Transport primitives: everything else is transport-agnostic.
  void spawn_worker();
  void spawn_child(Worker& worker);
  void kill(Worker& worker);
  /// Nonblocking: true once the worker is gone. Rethrows what escaped a
  /// thread worker.
  bool try_reap(Worker& worker);
  /// Blocking. For a thread, closes the coordinator's pipe ends first, so
  /// a loop blocked on a pipe the coordinator no longer serves wakes up.
  void wait(Worker& worker);

  void ensure_workers();
  void reap();
  void check_heartbeats();
  void dispatch();
  /// Dispatches a fresh attempt, or `stolen` (a revoked, unstarted one)
  /// under its original attempt number.
  void send_task(Worker& worker, std::size_t shard, bool hedge,
                 const PendingTask* stolen = nullptr);
  std::optional<std::size_t> pick_hedge() const;
  void poll_and_read();
  void drain_worker(std::size_t index);
  void handle_message(std::size_t index, proc::Message message);
  void handle_result(const proc::Message& message, const PendingTask& task);
  void commit(const proc::Message& message, const PendingTask& task);
  void on_worker_lost(std::size_t index);
  void maybe_quarantine_crash_suspect(const PendingTask& task);
  void requeue(std::size_t shard);
  void shutdown_workers();

  ShardExecutor executor_;
  // The thread workers' shared pipeline substrate (kInProcess only).
  std::unique_ptr<sched::ThreadPool> pool_;
  std::unique_ptr<sched::WarmModelCache> warm_cache_;
  ManifestWriter& manifest_;
  std::deque<std::size_t> pending_;
  std::vector<QuarantineRecord> quarantined_;
  StatsUpdate update_;

  std::vector<ShardInfo> shards_;
  std::vector<Worker> workers_;
  std::vector<double> committed_seconds_;  ///< commit durations this run
  std::size_t commits_this_run_ = 0;
  std::size_t spawned_ = 0;
  bool halted_ = false;
};

}  // namespace adaparse::campaign
