#include "campaign/worker.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/pipeline.hpp"
#include "io/doc_codec.hpp"
#include "obs/trace.hpp"
#include "io/fsio.hpp"
#include "io/jsonl.hpp"
#include "proc/pipe.hpp"
#include "proc/wire.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"
#include "util/stopwatch.hpp"

namespace adaparse::campaign {
namespace {

std::string shard_stem(std::size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", index);
  return buf;
}

/// The deterministic stand-in record for a quarantined document: the
/// campaign still emits one line per input document, so downstream
/// curation sees the hole (and its provenance) instead of silence.
io::ParseRecord quarantine_record(const doc::Document& document) {
  io::ParseRecord record;
  record.document_id = document.id;
  record.parser = "quarantined";
  record.text = "";
  record.predicted_accuracy = 0.0;
  record.route = "campaign:quarantined";
  record.pages = static_cast<int>(document.num_pages());
  record.pages_retrieved = 0;
  return record;
}

/// A real worker death: raise SIGKILL on ourselves — the kernel reaps us
/// with no flush, no unwind, no atexit — and park until it lands.
[[noreturn]] void die_by_sigkill() {
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();
}

}  // namespace

std::string shard_file_path(const std::string& dir, std::size_t index) {
  return (std::filesystem::path(dir) / (shard_stem(index) + ".shard"))
      .string();
}

std::string shard_output_file_path(const std::string& dir,
                                   std::size_t index) {
  return (std::filesystem::path(dir) / (shard_stem(index) + ".out")).string();
}

std::vector<doc::Document> ShardExecutor::load_shard_docs(
    std::size_t shard) const {
  std::size_t skip = 0;
  for (std::size_t i = 0; i < shard; ++i) skip += shard_docs[i];
  auto stream = source();
  for (std::size_t i = 0; i < skip; ++i) {
    if (!stream->next()) {
      throw std::runtime_error("campaign: source shrank during re-staging");
    }
  }
  std::vector<doc::Document> docs;
  docs.reserve(shard_docs[shard]);
  for (std::size_t i = 0; i < shard_docs[shard]; ++i) {
    auto document = stream->next();
    if (!document) {
      throw std::runtime_error("campaign: source shrank during re-staging");
    }
    docs.push_back(*document);
  }
  return docs;
}

AttemptOutcome ShardExecutor::run_attempt(
    std::size_t shard, std::size_t attempt,
    const std::vector<std::string>& quarantined,
    const std::atomic<bool>* cancel,
    const std::function<void(std::size_t)>& on_record) const {
  util::Stopwatch wall;
  AttemptOutcome result;
  obs::SpanGuard attempt_span("campaign", "attempt", "shard", shard,
                              "attempt", attempt);

  // --- Read the shard, re-staging from the source if the file is damaged.
  std::vector<doc::Document> docs;
  bool decoded = false;
  if (auto bytes = io::read_file(shard_file_path(config->dir, shard))) {
    try {
      docs = io::unpack_corpus_shard(*bytes);
      decoded = true;
    } catch (const std::runtime_error&) {
      // Corrupt at rest; fall through to re-staging.
    }
  }
  if (!decoded) {
    docs = load_shard_docs(shard);
    io::write_file_atomic(shard_file_path(config->dir, shard),
                          io::pack_corpus_shard(docs));
    result.restaged = true;
  }

  // --- Apply the quarantine list (order-preserving filter).
  std::vector<bool> is_quarantined(docs.size(), false);
  std::vector<doc::Document> run_docs;
  run_docs.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (std::find(quarantined.begin(), quarantined.end(), docs[i].id) !=
        quarantined.end()) {
      is_quarantined[i] = true;
    } else {
      run_docs.push_back(docs[i]);
    }
  }
  const std::size_t runnable = run_docs.size();

  // --- Scripted failure points for this attempt. On a thread worker, a
  // scripted worker crash truncates the attempt and discards its output (a
  // simulated death); in a worker process (real_crashes) the same script
  // SIGKILLs the process after emitting `after_docs` records, so the
  // supervision path under test is waitpid, not a return value. Poison
  // documents truncate on both transports — the attempt reports the
  // document it died on, which the quarantine decision needs verbatim.
  const std::optional<std::size_t> crash =
      config->failures.crash_after(shard, attempt);
  std::optional<std::size_t> fail_after;
  if (!real_crashes) fail_after = crash;
  for (std::size_t i = 0; i < run_docs.size(); ++i) {
    if (config->failures.is_poison(run_docs[i].id)) {
      if (!fail_after || i < *fail_after) fail_after = i;
      break;
    }
  }
  if (fail_after && *fail_after >= runnable) fail_after.reset();
  std::optional<std::size_t> kill_at =
      real_crashes ? crash : std::optional<std::size_t>{};
  if (kill_at && *kill_at >= runnable) kill_at.reset();
  const bool failing = fail_after.has_value();
  if (failing) result.failed_doc_id = run_docs[*fail_after].id;
  std::vector<doc::Document> attempt_docs =
      failing ? std::vector<doc::Document>(run_docs.begin(),
                                           run_docs.begin() + *fail_after)
              : std::move(run_docs);
  if (kill_at && *kill_at == 0) {
    if (on_record) on_record(0);
    die_by_sigkill();
  }

  // --- Drive the shard through the streaming pipeline.
  const auto delay = config->failures.delay_for(shard, attempt);
  core::PipelineConfig pipeline_config;
  pipeline_config.queue_capacity = config->queue_capacity;
  pipeline_config.extract_workers = config->extract_workers;
  pipeline_config.upgrade_workers = config->upgrade_workers;
  pipeline_config.pool = pool;
  pipeline_config.warm_cache = warm_cache;
  pipeline_config.cancel = cancel;
  if (on_record || kill_at || delay.count() > 0) {
    pipeline_config.on_progress = [on_record, kill_at, delay,
                                   cancel](std::size_t emitted) {
      // Heartbeat first: a death at this record must leave `emitted` as
      // the last progress the coordinator saw, so its quarantine suspect
      // matches a simulated crash's failed_doc_id exactly.
      if (on_record) on_record(emitted);
      if (kill_at && emitted == *kill_at) die_by_sigkill();
      if (delay.count() > 0 && (!cancel || !cancel->load())) {
        std::this_thread::sleep_for(delay);
      }
    };
  }
  const core::Pipeline pipeline(*engine, pipeline_config);
  std::vector<io::ParseRecord> records;
  records.reserve(attempt_docs.size());
  core::VectorSource attempt_source(attempt_docs);
  // Pipeline stage spans run on pool threads whose span stacks are empty;
  // pointing the ambient parent at this attempt links them under it (and,
  // through the fork-inherited context, under the coordinator's campaign
  // span).
  obs::Tracer& tracer = obs::Tracer::instance();
  const obs::TraceContext outer_ctx = tracer.context();
  if (attempt_span.active()) {
    tracer.set_context({outer_ctx.trace_id, attempt_span.id()});
  }
  const core::EngineStats run_stats = pipeline.run(
      attempt_source,
      [&](std::size_t, const io::ParseRecord& record,
          const core::RouteDecision&) { records.push_back(record); });
  if (attempt_span.active()) tracer.set_context(outer_ctx);
  result.wall_seconds = wall.seconds();

  if (failing) {
    // The attempt paid for the work, then "died": partial output discarded.
    result.kind = AttemptOutcome::Kind::kFailed;
    return result;
  }
  if (run_stats.pipeline.cancelled || records.size() != attempt_docs.size()) {
    result.kind = AttemptOutcome::Kind::kCancelled;
    return result;
  }

  // --- Serialize in original shard order, quarantine holes filled with
  // deterministic stand-in records.
  std::ostringstream os;
  io::JsonlWriter writer(os);
  std::size_t next_record = 0;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (is_quarantined[i]) {
      writer.write(quarantine_record(docs[i]));
      ++result.quarantined_in_shard;
    } else {
      writer.write(records[next_record++]);
    }
  }
  result.output = os.str();
  result.records = docs.size();
  result.kind = AttemptOutcome::Kind::kSuccess;
  return result;
}

void run_task_loop(const ShardExecutor& executor, int task_fd,
                   int result_fd, const std::atomic<bool>* cancel,
                   const std::function<void()>& after_result) {
  proc::Pipe::set_nonblocking(task_fd);
  proc::FrameDecoder decoder;
  std::deque<proc::Message> tasks;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> revoked;
  bool shutdown = false;
  bool coordinator_gone = false;
  const auto cancelled = [cancel] { return cancel && cancel->load(); };

  const auto pump = [&](int timeout_ms) {
    struct pollfd pfd {
      task_fd, POLLIN, 0
    };
    if (::poll(&pfd, 1, timeout_ms) <= 0) return;
    std::string bytes;
    if (!proc::read_available(task_fd, bytes)) coordinator_gone = true;
    decoder.feed(bytes);
    try {
      while (auto message = decoder.next()) {
        switch (message->type) {
          case proc::MsgType::kTask:
            tasks.push_back(std::move(*message));
            break;
          case proc::MsgType::kRevoke:
            revoked.emplace_back(message->shard, message->attempt);
            break;
          case proc::MsgType::kShutdown:
            shutdown = true;
            break;
          default:
            break;  // not a coordinator->worker message; ignore
        }
      }
    } catch (const std::runtime_error&) {
      coordinator_gone = true;  // corrupt frame: the pipe is broken
    }
  };

  while (!shutdown && !cancelled()) {
    if (tasks.empty()) {
      if (coordinator_gone) break;  // EOF with nothing queued: we're done
      pump(/*timeout_ms=*/200);
      continue;
    }
    pump(/*timeout_ms=*/0);  // absorb revokes that raced in with this task
    const proc::Message task = tasks.front();
    tasks.pop_front();
    const auto revocation =
        std::find(revoked.begin(), revoked.end(),
                  std::make_pair(task.shard, task.attempt));
    if (revocation != revoked.end()) {
      revoked.erase(revocation);  // stolen before we started it
      continue;
    }

    proc::Message heartbeat;
    heartbeat.type = proc::MsgType::kHeartbeat;
    heartbeat.shard = task.shard;
    heartbeat.attempt = task.attempt;
    heartbeat.docs_done = 0;
    proc::write_all(result_fd, proc::encode_frame(heartbeat));
    // Fires on the pipeline's writer thread; the loop's own thread is
    // parked inside run_attempt until the run finishes, so the result pipe
    // has exactly one writer at a time.
    const auto on_record = [&heartbeat, result_fd](std::size_t emitted) {
      heartbeat.docs_done = emitted;
      proc::write_all(result_fd, proc::encode_frame(heartbeat));
    };
    const AttemptOutcome outcome = executor.run_attempt(
        static_cast<std::size_t>(task.shard),
        static_cast<std::size_t>(task.attempt), task.quarantine, cancel,
        on_record);
    // Killed mid-attempt: report nothing, exactly like a SIGKILLed process.
    if (cancelled()) break;

    proc::Message result;
    result.type = proc::MsgType::kResult;
    result.shard = task.shard;
    result.attempt = task.attempt;
    result.restaged = outcome.restaged ? 1 : 0;
    result.wall_ms = static_cast<std::uint64_t>(outcome.wall_seconds * 1e3);
    if (outcome.kind == AttemptOutcome::Kind::kSuccess) {
      // The output file is atomically renamed into place *before* the
      // result message, and only the coordinator's journal append makes it
      // durable. A death between the two leaves an orphan .out that a
      // resume overwrites.
      io::write_file_atomic(
          shard_output_file_path(executor.config->dir,
                                 static_cast<std::size_t>(task.shard)),
          outcome.output);
      result.status = 0;
      result.records = outcome.records;
      result.bytes = outcome.output.size();
      result.checksum = io::fnv1a(outcome.output);
      result.quarantined = outcome.quarantined_in_shard;
    } else {
      result.status = 1;
      result.failed_doc_id = outcome.failed_doc_id;
    }
    if (!proc::write_all(result_fd, proc::encode_frame(result))) break;
    if (after_result) after_result();
  }
}

int worker_main(const ShardExecutor& executor, int task_fd, int result_fd) {
  // The coordinator can vanish (its own process killed); writes must fail
  // with EPIPE, not kill us with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  // Tracing across the fork boundary: drop the ring contents inherited from
  // the coordinator (it still owns those records) and re-stamp our pid; the
  // trace id + parent span id arrive through the fork memory image, so our
  // spans parent to the coordinator's campaign span with no handshake.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.on_fork_child();
  const auto flush_spans = [&tracer, result_fd] {
    if (!tracer.enabled()) return;
    const std::vector<obs::SpanRecord> spans = tracer.collect();
    // Chunked so a frame can never brush against the wire's payload cap.
    constexpr std::size_t kChunk = 50000;
    for (std::size_t i = 0; i < spans.size(); i += kChunk) {
      const std::vector<obs::SpanRecord> slice(
          spans.begin() + static_cast<std::ptrdiff_t>(i),
          spans.begin() + static_cast<std::ptrdiff_t>(
                              std::min(spans.size(), i + kChunk)));
      proc::Message frame;
      frame.type = proc::MsgType::kSpans;
      frame.spans = obs::encode_spans(slice);
      if (!proc::write_all(result_fd, proc::encode_frame(frame))) return;
    }
  };
  {
    // Flushed before any task runs, so even a worker that is SIGKILLed
    // mid-shard has already contributed its pid to the trace.
    obs::SpanGuard boot("worker", "boot", "pid",
                        static_cast<std::uint64_t>(::getpid()));
  }
  flush_spans();

  // A worker process runs one attempt at a time and owns its pipeline
  // substrate — process isolation is the point, nothing is shared.
  sched::ThreadPool pool(executor.config->extract_workers +
                         executor.config->upgrade_workers);
  sched::WarmModelCache warm_cache(/*enabled=*/true);
  ShardExecutor local = executor;
  local.pool = &pool;
  local.warm_cache = &warm_cache;
  local.real_crashes = true;
  try {
    run_task_loop(local, task_fd, result_fd, /*cancel=*/nullptr, flush_spans);
  } catch (...) {
    return 3;  // unrecoverable here; the coordinator requeues our work
  }
  flush_spans();
  return 0;
}

}  // namespace adaparse::campaign
