// The AdaParse engine (paper §5): adaptive parser routing under a compute
// budget, in both published variants.
//
//   AdaParse (FT):  CLS I + CLS II fused into one fast routine (fastText
//                   features + metadata classifier); improvement-likely
//                   documents go straight to Nougat. No LLM inference.
//   AdaParse (LLM): CLS I, then the SciBERT-sim accuracy predictor (CLS
//                   III, optionally DPO-aligned) selects per document;
//                   Nougat assignments are budgeted per batch (floor(α·k)).
//
// The engine exposes three layers: route() (decisions only — used by the
// scaling simulations), run() (full execution through the streaming
// pipeline with warm-started GPU models, producing JSONL-ready records),
// and plan_tasks() (cluster-simulator task specs for Figure 5).
// run_barrier() keeps the original four-stage barrier-synchronized
// execution as the equivalence/throughput baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/cls1.hpp"
#include "core/cls2.hpp"
#include "core/predictor.hpp"
#include "hpc/cluster.hpp"
#include "io/jsonl.hpp"
#include "parsers/parser.hpp"

namespace adaparse::sched {
class ThreadPool;
}  // namespace adaparse::sched

namespace adaparse::core {

class Pipeline;

enum class Variant : std::uint8_t { kFastText, kLlm };
const char* variant_name(Variant v);

struct EngineConfig {
  Variant variant = Variant::kLlm;
  /// Fraction of documents (per batch) allowed to use the high-quality
  /// parser. The paper's evaluation fixes alpha = 5%.
  double alpha = 0.05;
  /// Budget batch size (paper App. C: k = 256).
  std::size_t batch_size = 256;
  /// CLS II probability threshold for "improvement likely" (FT variant).
  double cls2_threshold = 0.5;
  /// Worker threads for run(); 0 = hardware concurrency.
  std::size_t threads = 0;
  Cls1Rules cls1_rules;
};

/// Routing outcome for one document.
struct RouteDecision {
  std::size_t doc_index = 0;
  parsers::ParserKind chosen = parsers::ParserKind::kPyMuPdf;
  bool cls1_valid = true;
  double predicted_gain = 0.0;  ///< Nougat-over-PyMuPDF predicted gain
  double predicted_accuracy = 0.0;  ///< predictor's score for chosen parser
  std::string trail;            ///< e.g. "cls1:valid|cls3:gain=0.12|nougat"
};

/// Timing/throughput observability for one pipeline stage.
struct StageStats {
  double busy_seconds = 0.0;  ///< time spent doing the stage's work
  double idle_seconds = 0.0;  ///< time blocked on queue pop/push
  std::size_t items = 0;      ///< items the stage completed
  std::size_t peak_queue_depth = 0;  ///< high-water mark of the stage's
                                     ///< output queue (0 for the sink)
};

/// Observability of the streaming pipeline behind run(). Default-initialized
/// (streaming = false) when the output came from run_barrier().
struct PipelineStats {
  bool streaming = false;          ///< produced by the streaming pipeline
  /// True when a cooperative cancel stopped admission early (the run still
  /// drained and emitted every admitted document).
  bool cancelled = false;
  std::size_t queue_capacity = 0;  ///< per-stage bound (backpressure window)
  /// Effective admission-credit window: documents in flight (admitted but
  /// not yet written) never exceed this, regardless of corpus size.
  std::size_t resident_window = 0;
  /// Peak number of extractions resident at once (extracted but not yet
  /// written); <= resident_window by construction.
  std::size_t peak_resident_extractions = 0;
  StageStats prefetch, extract, route, upgrade, write;
};

struct EngineStats {
  std::size_t total_docs = 0;
  std::size_t cls1_invalid = 0;
  std::size_t routed_to_nougat = 0;
  std::size_t accepted_extraction = 0;
  std::size_t failed_docs = 0;       ///< unreadable inputs
  double classifier_cpu_seconds = 0.0;  ///< simulated selector cost
  double extraction_cpu_seconds = 0.0;
  double nougat_gpu_seconds = 0.0;
  double wall_seconds = 0.0;         ///< real wall-clock of run()
  /// SIMD dispatch tier the text hot path ran on ("scalar"/"sse2"/"avx2").
  std::string simd_tier;
  PipelineStats pipeline;            ///< streaming-run observability
};

struct RunOutput {
  std::vector<io::ParseRecord> records;     ///< one per document, input order
  std::vector<RouteDecision> decisions;     ///< one per document, input order
  EngineStats stats;
};

class AdaParseEngine {
 public:
  /// `predictor` is required for the LLM variant (CLS III); `improver` is
  /// required for the FT variant (fused CLS I/II) and optional otherwise.
  AdaParseEngine(EngineConfig config,
                 std::shared_ptr<const AccuracyPredictor> predictor,
                 std::shared_ptr<const Cls2Improver> improver);

  /// Routes every document (no parsing of routed targets — extraction runs
  /// once, as it must, since CLS I/III read its output). Extraction uses
  /// the same parallel path as run().
  std::vector<RouteDecision> route(
      const std::vector<doc::Document>& docs) const;

  /// Full execution through the streaming pipeline (core::Pipeline):
  /// prefetch → extract → route → upgrade → write over bounded queues.
  /// Records/decisions are byte-identical to run_barrier().
  RunOutput run(const std::vector<doc::Document>& docs) const;

  /// The original barrier-staged execution (extract everything, then route
  /// everything, then upgrade, then assemble). Kept as the reference
  /// implementation for equivalence tests and the bench_pipeline baseline.
  RunOutput run_barrier(const std::vector<doc::Document>& docs) const;

  /// Cluster-simulator tasks implied by a routing (for Figure 5 sweeps).
  std::vector<hpc::TaskSpec> plan_tasks(
      const std::vector<doc::Document>& docs,
      const std::vector<RouteDecision>& decisions) const;

  /// Behavioral digest of the trained models: a hash of their predictions
  /// on a fixed probe input, which changes whenever the weights do. Two
  /// engines with equal config() and equal digest produce byte-identical
  /// runs — what the campaign layer's resume fingerprint needs.
  std::string model_digest() const;

  const EngineConfig& config() const { return config_; }

 private:
  friend class Pipeline;  ///< the streaming engine reuses the stage kernels

  /// Per-document half of routing: the unreadable check, CLS I, then CLS II
  /// (FT) or CLS III (LLM). Fills every field of `decision` except
  /// doc_index and the budget's pick, and returns the document's gain for
  /// the budget. Independent of every other document, so the streaming
  /// pipeline runs it on the extract workers.
  double score_document(const doc::Document& document,
                        const parsers::ParseResult& extraction,
                        RouteDecision& decision) const;

  /// Per-window half of routing: applies the floor(alpha*k) budget over the
  /// window's `gains` (k = gains.size(), global indices from `base_index`)
  /// and finalizes the picked `decisions`. `alpha` is explicit so callers
  /// under closed-loop control (the serve path's SLO guardian) can shrink
  /// the budget per window; batch paths always pass config().alpha.
  void select_window(const std::vector<double>& gains, std::size_t base_index,
                     double alpha, RouteDecision* decisions) const;

  /// Routes one contiguous batch [begin, end) given its extraction results:
  /// score_document on each document, then select_window.
  void route_batch(const std::vector<doc::Document>& docs,
                   const std::vector<parsers::ParseResult>& extractions,
                   std::size_t begin, std::size_t end,
                   std::vector<RouteDecision>& out) const;

  /// Runs the default extractor over every document on `pool` (the shared
  /// parallel-extraction path of route() and run_barrier()).
  std::vector<parsers::ParseResult> extract_all(
      const std::vector<doc::Document>& docs, sched::ThreadPool& pool) const;

  /// Assembles the JSONL record for one finished document and updates the
  /// per-document counters in `stats`. `upgrade` is null when no Nougat
  /// parse was attempted. Both execution paths share this, so their
  /// records are identical by construction.
  io::ParseRecord make_record(const doc::Document& document,
                              const RouteDecision& decision,
                              const parsers::ParseResult& extraction,
                              const parsers::ParseResult* upgrade,
                              EngineStats& stats) const;

  /// Simulated selector cost per document (CLS III inference vs CLS II).
  double per_doc_classifier_seconds() const;

  /// Worker-thread count implied by the config (0 = hardware concurrency).
  std::size_t worker_threads() const;

  EngineConfig config_;
  std::shared_ptr<const AccuracyPredictor> predictor_;
  std::shared_ptr<const Cls2Improver> improver_;
  parsers::ParserPtr extractor_;  ///< the default parser (SimPyMuPdf)
  parsers::ParserPtr nougat_;     ///< the high-quality parser
};

}  // namespace adaparse::core
