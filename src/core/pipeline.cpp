#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "io/jsonl.hpp"
#include "obs/trace.hpp"
#include "sched/queue.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"
#include "simd/dispatch.hpp"
#include "util/stopwatch.hpp"

namespace adaparse::core {
namespace {

using DocPtr = std::shared_ptr<const doc::Document>;

/// prefetch -> extract.
struct DocItem {
  std::size_t index = 0;
  DocPtr doc;
};

/// extract -> route -> upgrade -> write. The extract worker fills
/// `decision` and `gain` (the per-document half of routing), the router
/// applies the window budget to `decision`, and `upgrade` is set iff a
/// Nougat parse ran.
struct ScoredItem {
  std::size_t index = 0;
  DocPtr doc;
  parsers::ParseResult extraction;
  RouteDecision decision;
  double gain = 0.0;
  std::optional<parsers::ParseResult> upgrade;
};

/// One stage thread's busy/idle accounting, merged under a lock at exit.
struct StageClock {
  double busy = 0.0;
  double idle = 0.0;
  std::size_t items = 0;
};

}  // namespace

Pipeline::Pipeline(const AdaParseEngine& engine, PipelineConfig config)
    : engine_(engine), config_(config) {}

EngineStats Pipeline::run(DocumentSource& source, const Sink& sink) const {
  util::Stopwatch wall;
  obs::SpanGuard run_span("pipeline", "run");
  EngineStats stats;

  const std::size_t cap = std::max<std::size_t>(1, config_.queue_capacity);
  const std::size_t extract_workers = config_.extract_workers > 0
                                          ? config_.extract_workers
                                          : engine_.worker_threads();
  const std::size_t upgrade_workers =
      std::max<std::size_t>(1, config_.upgrade_workers);

  sched::BoundedQueue<DocItem> prefetched(cap);
  sched::BoundedQueue<ScoredItem> extracted(cap);
  sched::BoundedQueue<ScoredItem> routed(cap);
  sched::BoundedQueue<ScoredItem> completed(cap);

  // Admission credits: the prefetcher takes one credit per document, the
  // writer returns it once the record is emitted, so at most
  // `resident_window` documents are in flight — the hard memory bound.
  // The window must fit one full routing batch plus everything that can
  // sit downstream of the router (q_routed + upgraders + q_done + writer
  // reorder buffer), or the router could starve waiting for a document
  // the prefetcher is not allowed to admit.
  const std::size_t k = std::max<std::size_t>(1, engine_.config_.batch_size);
  const std::size_t min_window = k + 3 * cap + 2 * upgrade_workers + 8;
  const std::size_t resident_window =
      std::max(config_.max_resident_documents,
               config_.max_resident_documents > 0
                   ? min_window
                   : min_window + extract_workers + 8);
  sched::BoundedQueue<char> credits(resident_window);

  auto close_all = [&] {
    prefetched.close();
    extracted.close();
    routed.close();
    completed.close();
    credits.close();
  };

  // Guards the stage clocks and the first stage error. A stage that throws
  // closes every queue so its neighbors drain and exit instead of blocking.
  std::mutex shared_mutex;
  std::exception_ptr first_error;
  auto record_error = [&](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(shared_mutex);
      if (!first_error) first_error = error;
    }
    close_all();
  };

  StageClock prefetch_clock, extract_clock, route_clock, upgrade_clock,
      write_clock;
  auto merge = [&shared_mutex](StageClock& into, const StageClock& from) {
    std::lock_guard<std::mutex> lock(shared_mutex);
    into.busy += from.busy;
    into.idle += from.idle;
    into.items += from.items;
  };

  // Extractions alive right now (extracted but not yet written) — the
  // memory-boundedness claim of the streaming design, tracked as evidence.
  std::atomic<std::size_t> resident{0};
  std::atomic<std::size_t> peak_resident{0};
  std::atomic<std::size_t> extractors_left{extract_workers};
  std::atomic<std::size_t> upgraders_left{upgrade_workers};

  // Shared-infrastructure hooks: a service can hand every run one worker
  // pool and one warm-model cache; standalone runs own theirs.
  sched::WarmModelCache local_cache(/*enabled=*/true);
  sched::WarmModelCache& cache =
      config_.warm_cache != nullptr ? *config_.warm_cache : local_cache;
  std::optional<sched::ThreadPool> local_pool;
  if (config_.pool == nullptr) {
    local_pool.emplace(extract_workers + upgrade_workers);
  }
  sched::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : *local_pool;
  std::atomic<bool> saw_cancel{false};

  // ---- Stage 1: prefetch — pulls the source on a dedicated thread (the
  // moral equivalent of staging shards into node-local storage). ----------
  std::thread prefetcher([&] {
    StageClock clock;
    try {
      std::size_t index = 0;
      for (;;) {
        if (config_.cancel != nullptr &&
            config_.cancel->load(std::memory_order_relaxed)) {
          saw_cancel.store(true, std::memory_order_relaxed);
          break;  // stop admitting; everything in flight still drains
        }
        util::Stopwatch op;
        DocPtr doc;
        {
          obs::SpanGuard span("pipeline", "prefetch", "doc", index);
          doc = source.next();
        }
        clock.busy += op.seconds();
        if (!doc) break;
        op.reset();
        // Blocks while `resident_window` documents are in flight.
        if (!credits.push(0)) break;
        const bool pushed = prefetched.push(DocItem{index, std::move(doc)});
        clock.idle += op.seconds();
        if (!pushed) break;
        ++index;
        ++clock.items;
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    prefetched.close();
    merge(prefetch_clock, clock);
  });

  // ---- Stage 2: parallel extraction workers on the shared pool. Each
  // worker also scores its document (CLS I, then CLS II or III): that work
  // needs no other document, so it runs here, W-wide, and the router is
  // left with only the per-window budget. ----------------------------------
  std::vector<std::future<void>> worker_futures;
  worker_futures.reserve(extract_workers + upgrade_workers);
  for (std::size_t w = 0; w < extract_workers; ++w) {
    worker_futures.push_back(pool.submit([&] {
      StageClock clock;
      try {
        for (;;) {
          util::Stopwatch op;
          auto item = prefetched.pop();
          clock.idle += op.seconds();
          if (!item) break;
          op.reset();
          ScoredItem out;
          out.index = item->index;
          out.doc = std::move(item->doc);
          {
            obs::SpanGuard span("pipeline", "extract", "doc", out.index);
            out.extraction = engine_.extractor_->parse(*out.doc);
            out.gain = engine_.score_document(*out.doc, out.extraction,
                                              out.decision);
            if (span.active()) {
              std::size_t bytes = 0;
              for (const auto& page : out.extraction.pages) {
                bytes += page.size();
              }
              span.arg("bytes", bytes);
            }
          }
          const std::size_t now = ++resident;
          std::size_t seen = peak_resident.load();
          while (now > seen &&
                 !peak_resident.compare_exchange_weak(seen, now)) {
          }
          clock.busy += op.seconds();
          op.reset();
          const bool pushed = extracted.push(std::move(out));
          clock.idle += op.seconds();
          if (!pushed) {
            prefetched.close();  // downstream gone: unblock the prefetcher
            break;
          }
          ++clock.items;
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      merge(extract_clock, clock);
      if (extractors_left.fetch_sub(1) == 1) extracted.close();
    }));
  }

  // ---- Stage 3: sliding-window budget. Per-batch floor(alpha*k) budget
  // semantics need k *consecutive* documents, so out-of-order scored items
  // are buffered here until each window is contiguous, then the budget
  // picks within it — identical decisions to the barrier path, without
  // waiting for the whole corpus. -----------------------------------------
  std::thread router([&] {
    StageClock clock;
    try {
      std::map<std::size_t, ScoredItem> out_of_order;
      std::vector<ScoredItem> window;  // contiguous run from `base`
      window.reserve(k);
      std::vector<double> gains;
      std::vector<RouteDecision> decisions;
      std::size_t base = 0;  // global index of window.front()
      bool downstream_open = true;

      auto flush_window = [&] {
        if (window.empty()) return;
        // One budget read per window: every document in the window is
        // routed under the same effective alpha, and the controller's
        // scale can never split a batch's floor(alpha*k) accounting.
        double alpha = engine_.config().alpha;
        if (config_.alpha_scale != nullptr) {
          alpha *= std::clamp(
              config_.alpha_scale->load(std::memory_order_relaxed), 0.0, 1.0);
        }
        util::Stopwatch work;
        {
          obs::SpanGuard span("pipeline", "route.window", "base", base, "docs",
                              window.size());
          gains.clear();
          decisions.clear();
          for (ScoredItem& item : window) {
            gains.push_back(item.gain);
            decisions.push_back(std::move(item.decision));
          }
          engine_.select_window(gains, base, alpha, decisions.data());
          for (std::size_t i = 0; i < window.size(); ++i) {
            window[i].decision = std::move(decisions[i]);
          }
        }
        clock.busy += work.seconds();
        for (ScoredItem& item : window) {
          util::Stopwatch op;
          const bool pushed = routed.push(std::move(item));
          clock.idle += op.seconds();
          if (!pushed) {
            downstream_open = false;
            break;
          }
          ++clock.items;
        }
        base += window.size();
        window.clear();
      };

      while (downstream_open) {
        util::Stopwatch op;
        auto item = extracted.pop();
        clock.idle += op.seconds();
        if (!item) break;
        util::Stopwatch work;
        out_of_order.emplace(item->index, std::move(*item));
        for (auto it = out_of_order.find(base + window.size());
             it != out_of_order.end();
             it = out_of_order.find(base + window.size())) {
          window.push_back(std::move(it->second));
          out_of_order.erase(it);
          if (window.size() == k) {
            clock.busy += work.seconds();
            flush_window();
            work.reset();
            if (!downstream_open) break;
          }
        }
        clock.busy += work.seconds();
      }
      if (downstream_open) flush_window();  // the final partial batch
    } catch (...) {
      record_error(std::current_exception());
    }
    extracted.close();  // unblock extractors if we exited early
    routed.close();
    merge(route_clock, clock);
  });

  // ---- Stage 4: budgeted upgrades on warm models (one resident model per
  // worker slot, loaded once — paper §5.2). --------------------------------
  for (std::size_t g = 0; g < upgrade_workers; ++g) {
    worker_futures.push_back(pool.submit([&] {
      StageClock clock;
      try {
        for (;;) {
          util::Stopwatch op;
          auto item = routed.pop();
          clock.idle += op.seconds();
          if (!item) break;
          op.reset();
          if (item->decision.chosen == parsers::ParserKind::kNougat) {
            obs::SpanGuard span("pipeline", "upgrade", "doc", item->index);
            cache.get_or_load(
                "nougat", [] { return std::make_shared<int>(0); },
                engine_.nougat_->model_load_seconds());
            item->upgrade = engine_.nougat_->parse(*item->doc);
            if (span.active() && item->upgrade.has_value()) {
              std::size_t bytes = 0;
              for (const auto& page : item->upgrade->pages) {
                bytes += page.size();
              }
              span.arg("bytes", bytes);
            }
          }
          clock.busy += op.seconds();
          op.reset();
          const bool pushed = completed.push(std::move(*item));
          clock.idle += op.seconds();
          if (!pushed) {
            routed.close();  // downstream gone: unblock the router
            break;
          }
          ++clock.items;
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      merge(upgrade_clock, clock);
      if (upgraders_left.fetch_sub(1) == 1) completed.close();
    }));
  }

  // ---- Stage 5: order-restoring writer — emits each record through the
  // sink the moment every earlier document has been emitted. ---------------
  std::thread writer([&] {
    StageClock clock;
    try {
      std::map<std::size_t, ScoredItem> out_of_order;
      std::size_t next = 0;
      for (;;) {
        util::Stopwatch op;
        auto item = completed.pop();
        clock.idle += op.seconds();
        if (!item) break;
        op.reset();
        obs::SpanGuard span("pipeline", "write.emit", "first", next);
        std::size_t emitted = 0;
        out_of_order.emplace(item->index, std::move(*item));
        for (auto it = out_of_order.find(next); it != out_of_order.end();
             it = out_of_order.find(next)) {
          ScoredItem done = std::move(it->second);
          out_of_order.erase(it);
          stats.extraction_cpu_seconds += done.extraction.cost.cpu_seconds;
          const io::ParseRecord record = engine_.make_record(
              *done.doc, done.decision, done.extraction,
              done.upgrade ? &*done.upgrade : nullptr, stats);
          --resident;
          credits.pop();  // return the admission credit
          sink(next, record, done.decision);
          ++stats.total_docs;
          ++next;
          ++clock.items;
          ++emitted;
          if (config_.on_progress) config_.on_progress(stats.total_docs);
        }
        span.arg("docs", emitted);
        clock.busy += op.seconds();
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    merge(write_clock, clock);
  });

  prefetcher.join();
  router.join();
  writer.join();
  for (auto& f : worker_futures) f.get();
  if (first_error) std::rethrow_exception(first_error);

  stats.classifier_cpu_seconds = engine_.per_doc_classifier_seconds() *
                                 static_cast<double>(stats.total_docs);

  auto fill = [](StageStats& out, const StageClock& clock,
                 std::size_t peak_queue_depth) {
    out.busy_seconds = clock.busy;
    out.idle_seconds = clock.idle;
    out.items = clock.items;
    out.peak_queue_depth = peak_queue_depth;
  };
  stats.pipeline.streaming = true;
  stats.pipeline.cancelled = saw_cancel.load(std::memory_order_relaxed);
  stats.pipeline.queue_capacity = cap;
  stats.pipeline.resident_window = resident_window;
  stats.pipeline.peak_resident_extractions = peak_resident.load();
  fill(stats.pipeline.prefetch, prefetch_clock, prefetched.peak_size());
  fill(stats.pipeline.extract, extract_clock, extracted.peak_size());
  fill(stats.pipeline.route, route_clock, routed.peak_size());
  fill(stats.pipeline.upgrade, upgrade_clock, completed.peak_size());
  fill(stats.pipeline.write, write_clock, 0);
  stats.wall_seconds = wall.seconds();
  stats.simd_tier = simd::active_tier_name();
  run_span.arg("docs", stats.total_docs);
  return stats;
}

EngineStats Pipeline::run_to_jsonl(DocumentSource& source,
                                   std::ostream& os) const {
  io::JsonlWriter writer(os);
  return run(source, [&writer](std::size_t, const io::ParseRecord& record,
                               const RouteDecision&) {
    writer.write(record);
  });
}

RunOutput Pipeline::run_collect(const std::vector<doc::Document>& docs) const {
  RunOutput output;
  output.records.assign(docs.size(), {});
  output.decisions.assign(docs.size(), {});
  VectorSource source(docs);
  output.stats = run(source, [&output](std::size_t index,
                                       const io::ParseRecord& record,
                                       const RouteDecision& decision) {
    output.records[index] = record;
    output.decisions[index] = decision;
  });
  return output;
}

}  // namespace adaparse::core
