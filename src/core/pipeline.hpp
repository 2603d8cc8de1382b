// The streaming pipeline engine (paper §5–6): documents flow continuously
// through bounded-queue-connected stages instead of the barrier-staged
// run_barrier() phases —
//
//   source ─▶ [prefetch] ─q─▶ [extract + score ×W] ─q─▶ [route: budget]
//                                                               │
//                      sink ◀─ [write] ◀─q─ [upgrade ×G] ◀─q────┘
//
// Every queue is a sched::BoundedQueue, so a slow stage back-pressures the
// prefetcher instead of letting extractions pile up in RAM (the same
// reason the paper stages shard batches into node-local storage rather
// than unboundedly). Routing is split by what it needs: CLS I and CLS II
// (FT) or CLS III (LLM) look at one document, so each extract worker
// scores its document right after extracting it; only the per-batch
// floor(alpha*k) budget needs k consecutive documents, so the single
// router thread assembles sliding windows and applies just the budget.
// Upgrades run on warm models (sched::WarmModelCache); the write stage
// restores input order and emits each io::ParseRecord the moment its
// document completes — so output streams to JSONL incrementally and the
// peak number of resident extractions is bounded by the batch size plus
// the queue capacities, never by the corpus size.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <vector>

#include "core/doc_source.hpp"
#include "core/engine.hpp"

namespace adaparse::sched {
class WarmModelCache;
}  // namespace adaparse::sched

namespace adaparse::core {

struct PipelineConfig {
  /// Capacity of each inter-stage queue (the backpressure window).
  std::size_t queue_capacity = 32;
  /// Extraction workers; 0 = the engine's `threads` setting (which itself
  /// defaults to hardware concurrency).
  std::size_t extract_workers = 0;
  /// Upgrade workers — stand-ins for resident GPU model slots.
  std::size_t upgrade_workers = 2;
  /// Hard cap on documents admitted but not yet written (the credit
  /// window). 0 = sized automatically from batch size + queue capacities;
  /// explicit values are clamped up to the deadlock-free minimum (one full
  /// routing batch must fit alongside everything in flight downstream).
  std::size_t max_resident_documents = 0;
  /// Optional shared worker pool (e.g. one pool multiplexed across service
  /// jobs). When null, the run owns a pool sized extract + upgrade workers.
  /// A shared pool must be able to run this run's full worker complement
  /// (extract_workers + upgrade_workers) concurrently, or a stage can
  /// starve and deadlock the run — serve::ParseService sizes for this.
  sched::ThreadPool* pool = nullptr;
  /// Optional shared warm-model cache so upgrades across runs (service
  /// jobs) reuse one resident model per key. When null, each run warms its
  /// own cache.
  sched::WarmModelCache* warm_cache = nullptr;
  /// Optional live multiplier on the engine's alpha budget, read once per
  /// route-window flush (values clamped to [0, 1]). This is the SLO
  /// guardian's budget-shrink actuator: serve::ParseService points it at
  /// the controller's effective-alpha gauge. Null (the default, and always
  /// null on batch/campaign paths) means the fixed config().alpha — runs
  /// stay byte-identical to a build without the hook.
  const std::atomic<double>* alpha_scale = nullptr;
  /// Optional cooperative cancellation flag. Checked by the prefetcher
  /// before each admission: once set, no further documents are admitted;
  /// documents already in flight drain to the sink, so a cancelled run
  /// still emits every admitted record (bounded by the credit window).
  const std::atomic<bool>* cancel = nullptr;
  /// Optional progress callback, invoked on the writer thread after each
  /// record reaches the sink, with the number of records emitted so far.
  std::function<void(std::size_t emitted)> on_progress;
};

/// Drives documents from a DocumentSource through the five stages into a
/// sink. One Pipeline is reusable (each run owns its queues and threads);
/// the referenced engine must outlive it.
class Pipeline {
 public:
  explicit Pipeline(const AdaParseEngine& engine, PipelineConfig config = {});

  /// Called once per document, in strict input order, as soon as the
  /// document's record is final.
  using Sink = std::function<void(std::size_t index,
                                  const io::ParseRecord& record,
                                  const RouteDecision& decision)>;

  /// Streams every document from `source` through the stages into `sink`.
  EngineStats run(DocumentSource& source, const Sink& sink) const;

  /// Streams records into a JSONL stream as documents complete (the
  /// incremental counterpart of writing RunOutput::records at the end).
  EngineStats run_to_jsonl(DocumentSource& source, std::ostream& os) const;

  /// In-memory convenience: same output shape as AdaParseEngine::run().
  RunOutput run_collect(const std::vector<doc::Document>& docs) const;

  const PipelineConfig& config() const { return config_; }

 private:
  const AdaParseEngine& engine_;
  PipelineConfig config_;
};

}  // namespace adaparse::core
