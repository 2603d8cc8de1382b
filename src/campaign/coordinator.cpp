#include "campaign/coordinator.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <csignal>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/doc_codec.hpp"
#include "io/fsio.hpp"
#include "obs/trace.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"

namespace adaparse::campaign {

Coordinator::Coordinator(ShardExecutor executor, ManifestWriter& manifest,
                         std::deque<std::size_t> pending,
                         std::vector<QuarantineRecord> quarantined,
                         StatsUpdate update)
    : executor_(std::move(executor)),
      manifest_(manifest),
      pending_(std::move(pending)),
      quarantined_(std::move(quarantined)),
      update_(std::move(update)) {
  shards_.assign(executor_.shard_docs.size(), ShardInfo{});
  for (const std::size_t shard : pending_) {
    shards_[shard].phase = ShardInfo::Phase::kPending;
  }
  if (threads()) {
    // Sized so every concurrent shard runs its full pipeline complement.
    pool_ = std::make_unique<sched::ThreadPool>(
        config().workers *
        (config().extract_workers + config().upgrade_workers));
    warm_cache_ = std::make_unique<sched::WarmModelCache>(/*enabled=*/true);
    executor_.pool = pool_.get();
    executor_.warm_cache = warm_cache_.get();
  }
}

Coordinator::~Coordinator() {
  // Thread workers share this object's pool, pipes, and executor; none may
  // outlive it. Only reached with live threads when run() threw.
  for (Worker& w : workers_) {
    if (w.thread && w.thread->thread.joinable()) {
      kill(w);
      wait(w);
    }
  }
}

std::size_t Coordinator::remaining() const {
  std::size_t count = 0;
  for (const ShardInfo& si : shards_) {
    if (si.phase != ShardInfo::Phase::kCommitted) ++count;
  }
  return count;
}

std::size_t Coordinator::alive_workers() const {
  std::size_t count = 0;
  for (const Worker& w : workers_) {
    if (w.alive) ++count;
  }
  return count;
}

bool Coordinator::run() {
  // A worker can die mid-write at any moment; its pipe must surface EPIPE,
  // not kill the coordinator.
  std::signal(SIGPIPE, SIG_IGN);
  ensure_workers();
  while (!halted_ && remaining() > 0) {
    reap();
    if (halted_) break;
    check_heartbeats();
    ensure_workers();
    dispatch();
    poll_and_read();
  }
  shutdown_workers();
  return halted_;
}

void Coordinator::spawn_worker() {
  Worker w;  // both Pipe constructors open their pairs
  if (!threads()) spawn_child(w);
  proc::Pipe::set_nonblocking(w.from_child.read_fd());
  w.alive = true;
  w.last_message = std::chrono::steady_clock::now();
  workers_.push_back(std::move(w));
  Worker& worker = workers_.back();
  if (threads()) {
    // Started only once the worker sits in workers_, so the destructor
    // can always find and join it.
    worker.id = spawned_;
    worker.thread = std::make_unique<WorkerThread>();
    WorkerThread* handle = worker.thread.get();
    const int task_fd = worker.to_child.read_fd();
    const int result_fd = worker.from_child.write_fd();
    handle->thread = std::thread([this, handle, task_fd, result_fd] {
      try {
        run_task_loop(executor_, task_fd, result_fd, &handle->cancel,
                      /*after_result=*/nullptr);
      } catch (...) {
        handle->error = std::current_exception();
      }
      handle->exited.store(true);
    });
  }
  obs::Tracer::instance().instant("campaign", "worker.spawn", "worker",
                                  worker.id);
  ++spawned_;
  update([](CampaignStats& s) { ++s.workers_spawned; });
}

void Coordinator::spawn_child(Worker& w) {
  w.child = proc::Child::spawn([this, &w] {
    // Forked child: drop every pipe end belonging to the coordinator's
    // other workers — a held peer write end would mask that peer's EOF —
    // and the parent-side ends of our own pair.
    for (Worker& other : workers_) {
      other.to_child.close_read();
      other.to_child.close_write();
      other.from_child.close_read();
      other.from_child.close_write();
    }
    const int task_fd = w.to_child.read_fd();
    const int result_fd = w.from_child.write_fd();
    w.to_child.close_write();
    w.from_child.close_read();
    return worker_main(executor_, task_fd, result_fd);
  });
  w.to_child.close_read();
  w.from_child.close_write();
  w.id = static_cast<std::uint64_t>(w.child.pid());
}

void Coordinator::kill(Worker& worker) {
  if (worker.thread) {
    worker.thread->cancel.store(true);
  } else {
    worker.child.kill(SIGKILL);
  }
}

bool Coordinator::try_reap(Worker& worker) {
  if (!worker.thread) return worker.child.try_wait().has_value();
  if (!worker.thread->exited.load()) return false;
  worker.thread->thread.join();
  if (worker.thread->error) {
    // Not a death to recover from: the attempt hit an error that a retry
    // would hit again (say, a source that can no longer re-stage a shard).
    std::rethrow_exception(std::exchange(worker.thread->error, nullptr));
  }
  return true;
}

void Coordinator::wait(Worker& worker) {
  if (!worker.thread) {
    worker.child.wait();
    return;
  }
  // EOF on the task pipe ends an idle loop; EPIPE on the result pipe ends
  // a loop that would otherwise block writing to an undrained pipe.
  worker.to_child.close_write();
  worker.from_child.close_read();
  if (worker.thread->thread.joinable()) worker.thread->thread.join();
}

void Coordinator::ensure_workers() {
  const std::size_t target = std::min(config().workers, remaining());
  while (alive_workers() < target) {
    if (spawned_ >= config().workers + config().max_worker_respawns) {
      if (alive_workers() == 0) {
        throw std::runtime_error(
            "campaign: worker respawn budget exhausted with shards "
            "uncommitted — crash loop?");
      }
      return;
    }
    spawn_worker();
  }
}

void Coordinator::reap() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    if (!w.alive) continue;
    if (!try_reap(w)) continue;
    // Drain what the worker wrote before dying: a result already in the
    // pipe may still commit (its output file landed before the message).
    drain_worker(i);
    on_worker_lost(i);
  }
}

void Coordinator::on_worker_lost(std::size_t index) {
  Worker& w = workers_[index];
  w.alive = false;
  const auto now = std::chrono::steady_clock::now();
  obs::Tracer::instance().instant(
      "campaign", "worker.death", "worker", w.id, "queued",
      static_cast<std::uint64_t>(w.assigned.size()));
  update([](CampaignStats& s) { ++s.workers_died; });
  if (!w.assigned.empty()) {
    // The front task was the running one (workers are FIFO): the wall
    // since its dispatch is this fault's measured recovery latency.
    const PendingTask running = w.assigned.front();
    const double latency =
        std::chrono::duration<double>(now - running.dispatched).count();
    update([latency](CampaignStats& s) {
      s.recovery_wall_seconds += latency;
      s.recovery_latency_seconds.push_back(latency);
      ++s.attempts_failed;
    });
    if (!halted_) maybe_quarantine_crash_suspect(running);
  }
  for (const PendingTask& task : w.assigned) {
    ShardInfo& si = shards_[task.shard];
    if (si.in_flight > 0) --si.in_flight;
  }
  // Requeue only after every in_flight decrement, so a shard with a live
  // twin on another worker stays out of the pending queue.
  const std::vector<PendingTask> lost(w.assigned.begin(), w.assigned.end());
  w.assigned.clear();
  bool retried = false;
  for (const PendingTask& task : lost) {
    if (!halted_ && shards_[task.shard].phase != ShardInfo::Phase::kCommitted) {
      retried = true;
    }
    requeue(task.shard);
  }
  if (retried) {
    update([](CampaignStats& s) { ++s.shards_retried; });
  }
  w.to_child.close_write();
  w.to_child.close_read();
  w.from_child.close_read();
  w.from_child.close_write();
}

void Coordinator::maybe_quarantine_crash_suspect(const PendingTask& task) {
  ShardInfo& si = shards_[task.shard];
  if (si.phase == ShardInfo::Phase::kCommitted) return;
  ++si.failures;
  if (si.failures < config().max_shard_attempts) return;
  // The shard keeps killing workers: quarantine the document the last
  // attempt died on — the first one it had not yet emitted, within the
  // quarantine-filtered list it was running (heartbeats carry the in-order
  // emitted count, so this is exact, not a guess).
  std::vector<doc::Document> docs;
  bool decoded = false;
  if (auto bytes = io::read_file(shard_file_path(config().dir, task.shard))) {
    try {
      docs = io::unpack_corpus_shard(*bytes);
      decoded = true;
    } catch (const std::runtime_error&) {
    }
  }
  if (!decoded) docs = executor_.load_shard_docs(task.shard);
  std::vector<std::string> run_ids;
  run_ids.reserve(docs.size());
  for (const auto& document : docs) {
    bool skip = false;
    for (std::size_t qi = 0;
         qi < task.quarantine_snapshot && qi < quarantined_.size(); ++qi) {
      if (quarantined_[qi].doc_id == document.id) {
        skip = true;
        break;
      }
    }
    if (!skip) run_ids.push_back(document.id);
  }
  si.failures = 0;
  if (task.docs_done >= run_ids.size()) return;  // died after its last emit
  QuarantineRecord q;
  q.shard = task.shard;
  q.doc_id = run_ids[task.docs_done];
  quarantined_.push_back(q);
  manifest_.append(q);
  obs::Tracer::instance().instant("campaign", "quarantine", "shard",
                                  static_cast<std::uint64_t>(task.shard));
  update([](CampaignStats& s) { ++s.docs_quarantined; });
}

void Coordinator::check_heartbeats() {
  const auto now = std::chrono::steady_clock::now();
  for (Worker& w : workers_) {
    if (!w.alive || w.kill_sent || w.assigned.empty()) continue;
    if (now - w.last_message <= config().heartbeat_timeout) continue;
    // Hung, not dead — reap would have caught dead. The kill turns it into
    // an ordinary death that reap() recovers from. A thread worker's kill
    // only cancels its attempt: one stuck outside the pipeline's
    // cancellation points stays stuck.
    kill(w);
    w.kill_sent = true;
    obs::Tracer::instance().instant("campaign", "worker.kill", "worker",
                                    w.id);
    update([](CampaignStats& s) { ++s.workers_killed; });
  }
}

void Coordinator::send_task(Worker& worker, std::size_t shard, bool hedge,
                            const PendingTask* stolen) {
  ShardInfo& si = shards_[shard];
  PendingTask task;
  task.shard = shard;
  // A stolen task never started, so it keeps its attempt number: scripted
  // faults key on attempt numbers, and a steal must not skip one.
  task.attempt = stolen ? stolen->attempt : si.attempts_started++;
  task.hedge = hedge;
  task.dispatched = std::chrono::steady_clock::now();
  task.quarantine_snapshot = quarantined_.size();
  if (si.phase == ShardInfo::Phase::kPending) {
    si.phase = ShardInfo::Phase::kRunning;
    si.started = task.dispatched;
  }
  if (hedge) si.hedged = true;
  ++si.in_flight;
  if (!stolen) update([](CampaignStats& s) { ++s.attempts_started; });
  proc::Message message;
  message.type = proc::MsgType::kTask;
  message.shard = shard;
  message.attempt = task.attempt;
  message.quarantine.reserve(quarantined_.size());
  for (const auto& q : quarantined_) message.quarantine.push_back(q.doc_id);
  // A failed write means the worker is already gone; reap() requeues this
  // task along with the rest of its queue.
  proc::write_all(worker.to_child.write_fd(), proc::encode_frame(message));
  obs::Tracer::instance().instant("campaign", hedge ? "hedge" : "dispatch",
                                  "shard", shard, "attempt", task.attempt);
  worker.assigned.push_back(std::move(task));
}

std::optional<std::size_t> Coordinator::pick_hedge() const {
  if (config().hedge_factor <= 0.0) return std::nullopt;
  const auto now = std::chrono::steady_clock::now();
  double threshold_seconds =
      std::chrono::duration<double>(config().hedge_min_runtime).count();
  if (!committed_seconds_.empty()) {
    std::vector<double> sorted = committed_seconds_;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    threshold_seconds =
        std::max(threshold_seconds, config().hedge_factor * median);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardInfo& si = shards_[i];
    if (si.phase != ShardInfo::Phase::kRunning || si.hedged ||
        si.in_flight != 1) {
      continue;
    }
    const double elapsed =
        std::chrono::duration<double>(now - si.started).count();
    if (elapsed > threshold_seconds) return i;
  }
  return std::nullopt;
}

void Coordinator::dispatch() {
  if (halted_) return;
  for (Worker& w : workers_) {
    if (!w.alive || w.kill_sent) continue;
    while (w.assigned.size() < config().worker_queue_depth &&
           !pending_.empty()) {
      const std::size_t shard = pending_.front();
      pending_.pop_front();
      send_task(w, shard, /*hedge=*/false);
    }
  }
  if (!pending_.empty()) return;
  for (Worker& thief : workers_) {
    if (!thief.alive || thief.kill_sent || !thief.assigned.empty()) continue;
    // Steal the most backlogged worker's last queued (unstarted) shard:
    // revoke it on the victim, dispatch a fresh attempt to the thief. If
    // the victim raced us and ran it anyway, first commit wins and the
    // loser's result is ignored as a ghost.
    Worker* victim = nullptr;
    for (Worker& other : workers_) {
      if (!other.alive || other.kill_sent || &other == &thief) continue;
      if (other.assigned.size() < 2) continue;
      if (!victim || other.assigned.size() > victim->assigned.size()) {
        victim = &other;
      }
    }
    if (victim) {
      const PendingTask stolen = victim->assigned.back();
      victim->assigned.pop_back();
      ShardInfo& si = shards_[stolen.shard];
      if (si.in_flight > 0) --si.in_flight;
      proc::Message revoke;
      revoke.type = proc::MsgType::kRevoke;
      revoke.shard = stolen.shard;
      revoke.attempt = stolen.attempt;
      proc::write_all(victim->to_child.write_fd(),
                      proc::encode_frame(revoke));
      obs::Tracer::instance().instant(
          "campaign", "steal", "shard",
          static_cast<std::uint64_t>(stolen.shard), "victim", victim->id);
      update([](CampaignStats& s) { ++s.shards_stolen; });
      send_task(thief, stolen.shard, stolen.hedge, &stolen);
      continue;
    }
    if (const auto hedge = pick_hedge()) {
      update([](CampaignStats& s) { ++s.hedges_launched; });
      send_task(thief, *hedge, /*hedge=*/true);
    }
  }
}

void Coordinator::poll_and_read() {
  std::vector<struct pollfd> fds;
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].alive) continue;
    fds.push_back({workers_[i].from_child.read_fd(), POLLIN, 0});
    owner.push_back(i);
  }
  if (fds.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return;
  }
  const int ready =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), /*timeout=*/20);
  if (ready <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    drain_worker(owner[k]);
    if (halted_) return;
  }
}

void Coordinator::drain_worker(std::size_t index) {
  Worker& w = workers_[index];
  std::string bytes;
  // EOF here just means the worker exited; reap() owns death handling.
  proc::read_available(w.from_child.read_fd(), bytes);
  if (bytes.empty()) return;
  w.decoder.feed(bytes);
  try {
    while (auto message = w.decoder.next()) {
      handle_message(index, std::move(*message));
      if (halted_) return;
    }
  } catch (const std::runtime_error&) {
    // Corrupt frame: the protocol stream is broken, so nothing further
    // from this worker can be trusted. Treat it like a hung worker.
    if (w.alive && !w.kill_sent) {
      kill(w);
      w.kill_sent = true;
      update([](CampaignStats& s) { ++s.workers_killed; });
    }
  }
}

void Coordinator::handle_message(std::size_t index, proc::Message message) {
  Worker& w = workers_[index];
  w.last_message = std::chrono::steady_clock::now();
  if (message.type == proc::MsgType::kSpans) {
    // Trace spans recorded inside the worker, re-homed into our tracer so
    // the whole campaign exports as one coherent trace. Telemetry must
    // never take a worker down: a malformed batch is dropped, not fatal.
    try {
      obs::Tracer::instance().adopt(obs::decode_spans(message.spans));
    } catch (const std::runtime_error&) {
    }
    return;
  }
  if (message.type == proc::MsgType::kHeartbeat) {
    for (PendingTask& task : w.assigned) {
      if (task.shard == message.shard && task.attempt == message.attempt) {
        task.docs_done = static_cast<std::size_t>(message.docs_done);
        break;
      }
    }
    return;
  }
  if (message.type != proc::MsgType::kResult) return;
  const auto it = std::find_if(
      w.assigned.begin(), w.assigned.end(), [&](const PendingTask& t) {
        return t.shard == message.shard && t.attempt == message.attempt;
      });
  if (it == w.assigned.end()) {
    // A ghost: the attempt was revoked or its worker already written off.
    // Its work is lost wall-clock, nothing else.
    const double wall = static_cast<double>(message.wall_ms) / 1e3;
    update([wall](CampaignStats& s) { s.recovery_wall_seconds += wall; });
    return;
  }
  const PendingTask task = *it;
  w.assigned.erase(it);
  ShardInfo& si = shards_[task.shard];
  if (si.in_flight > 0) --si.in_flight;
  handle_result(message, task);
}

void Coordinator::handle_result(const proc::Message& message,
                                const PendingTask& task) {
  const double wall = static_cast<double>(message.wall_ms) / 1e3;
  ShardInfo& si = shards_[task.shard];
  if (message.restaged) {
    update([](CampaignStats& s) { ++s.corrupt_shard_recoveries; });
  }
  if (halted_ || si.phase == ShardInfo::Phase::kCommitted) {
    // Halted, or a twin committed first: this attempt's work is lost.
    update([wall](CampaignStats& s) { s.recovery_wall_seconds += wall; });
    return;
  }
  if (message.status != 0) {
    update([wall](CampaignStats& s) {
      ++s.attempts_failed;
      s.recovery_wall_seconds += wall;
    });
    ++si.failures;
    if (si.failures >= config().max_shard_attempts &&
        !message.failed_doc_id.empty()) {
      // Journaled before the requeue so a resume replays the decision.
      QuarantineRecord q;
      q.shard = task.shard;
      q.doc_id = message.failed_doc_id;
      quarantined_.push_back(q);
      manifest_.append(q);
      si.failures = 0;
      update([](CampaignStats& s) { ++s.docs_quarantined; });
    }
    update([](CampaignStats& s) { ++s.shards_retried; });
    requeue(task.shard);
    return;
  }
  // Success. A commit built against a stale quarantine list must retry:
  // the journal already promises a quarantine inside this shard.
  for (std::size_t qi = task.quarantine_snapshot; qi < quarantined_.size();
       ++qi) {
    if (quarantined_[qi].shard == task.shard) {
      update([wall](CampaignStats& s) {
        s.recovery_wall_seconds += wall;
        ++s.shards_retried;
      });
      requeue(task.shard);
      return;
    }
  }
  // Trust, but verify: the durable artifact is the file the worker
  // renamed into place, not the message. Re-read and check the checksum
  // before journaling — a journal line must never promise bytes that are
  // not on disk.
  const auto bytes =
      io::read_file(shard_output_file_path(config().dir, task.shard));
  if (!bytes || io::fnv1a(*bytes) != message.checksum) {
    update([wall](CampaignStats& s) {
      s.recovery_wall_seconds += wall;
      ++s.shards_retried;
    });
    requeue(task.shard);
    return;
  }
  commit(message, task);
}

void Coordinator::commit(const proc::Message& message,
                         const PendingTask& task) {
  ShardInfo& si = shards_[task.shard];
  ShardRecord record;
  record.index = task.shard;
  record.attempt = static_cast<std::size_t>(task.attempt);
  record.docs = static_cast<std::size_t>(message.records);
  record.bytes = static_cast<std::size_t>(message.bytes);
  record.checksum = message.checksum;
  record.quarantined = static_cast<std::size_t>(message.quarantined);
  if (config().failures.tears_commit(task.shard)) {
    // The scripted torn write: half a journal line lands and the
    // coordinator "dies". Nothing after this counts as committed.
    manifest_.append_torn(record);
    halted_ = true;
    update([](CampaignStats& s) { s.halted = true; });
    return;
  }
  manifest_.append(record);
  si.phase = ShardInfo::Phase::kCommitted;
  obs::Tracer::instance().instant("campaign", "commit", "shard",
                                  static_cast<std::uint64_t>(task.shard),
                                  "docs",
                                  static_cast<std::uint64_t>(record.docs));
  committed_seconds_.push_back(static_cast<double>(message.wall_ms) / 1e3);
  ++commits_this_run_;
  const std::size_t docs = record.docs;
  const bool hedge_won = task.hedge;
  update([docs, hedge_won](CampaignStats& s) {
    ++s.shards_committed;
    s.docs_processed += docs;
    if (hedge_won) ++s.hedges_won;
  });
  if (config().failures.halt_after_commits &&
      commits_this_run_ >= *config().failures.halt_after_commits) {
    halted_ = true;
    update([](CampaignStats& s) { s.halted = true; });
  }
}

void Coordinator::requeue(std::size_t shard) {
  if (halted_) return;
  ShardInfo& si = shards_[shard];
  if (si.phase == ShardInfo::Phase::kCommitted) return;
  if (si.phase == ShardInfo::Phase::kPending) return;  // already queued
  if (si.in_flight > 0) return;  // a live twin will resolve or requeue it
  si.phase = ShardInfo::Phase::kPending;
  si.hedged = false;
  pending_.push_back(shard);
}

void Coordinator::shutdown_workers() {
  if (!halted_ && !threads()) {
    // Forked workers get a goodbye and a grace period to exit on their own.
    proc::Message bye;
    bye.type = proc::MsgType::kShutdown;
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      proc::write_all(w.to_child.write_fd(), proc::encode_frame(bye));
      w.to_child.close_write();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
      bool waiting = false;
      for (Worker& w : workers_) {
        if (!w.alive) continue;
        if (w.child.try_wait()) {
          w.alive = false;
        } else {
          waiting = true;
        }
      }
      if (!waiting || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // The scripted halt kills everything mid-whatever-it-was-doing: real
  // workers die with their coordinator. Thread workers cannot outlive
  // run() at all, so their running attempts (a losing hedge twin, say)
  // are cancelled on every exit.
  for (Worker& w : workers_) {
    if (w.alive) kill(w);
  }
  for (Worker& w : workers_) {
    if (w.alive) {
      wait(w);
      w.alive = false;
    }
  }
}

}  // namespace adaparse::campaign
