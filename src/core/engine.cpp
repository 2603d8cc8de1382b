#include "core/engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/pipeline.hpp"
#include "parsers/registry.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace adaparse::core {
namespace {

constexpr double kMandatoryGain = 1e9;  ///< CLS I-invalid: must upgrade

/// First-page slice of an extraction (what CLS III conditions on).
std::string_view first_page(const parsers::ParseResult& extraction) {
  for (const auto& page : extraction.pages) {
    if (!page.empty()) return page;
  }
  return {};
}

}  // namespace

const char* variant_name(Variant v) {
  return v == Variant::kFastText ? "AdaParse (FT)" : "AdaParse (LLM)";
}

AdaParseEngine::AdaParseEngine(
    EngineConfig config, std::shared_ptr<const AccuracyPredictor> predictor,
    std::shared_ptr<const Cls2Improver> improver)
    : config_(std::move(config)),
      predictor_(std::move(predictor)),
      improver_(std::move(improver)),
      extractor_(parsers::make_parser(parsers::ParserKind::kPyMuPdf)),
      nougat_(parsers::make_parser(parsers::ParserKind::kNougat)) {
  if (config_.variant == Variant::kLlm && predictor_ == nullptr) {
    throw std::invalid_argument("LLM variant requires an AccuracyPredictor");
  }
  if (config_.variant == Variant::kFastText && improver_ == nullptr) {
    throw std::invalid_argument("FT variant requires a Cls2Improver");
  }
}

double AdaParseEngine::per_doc_classifier_seconds() const {
  return config_.variant == Variant::kLlm
             ? predictor_->inference_cost_seconds()
             : 0.02;
}

std::size_t AdaParseEngine::worker_threads() const {
  return config_.threads > 0
             ? config_.threads
             : std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

double AdaParseEngine::score_document(const doc::Document& document,
                                      const parsers::ParseResult& extraction,
                                      RouteDecision& decision) const {
  if (!extraction.ok) {
    // Unreadable input: nothing can parse it; keep the cheap lane so the
    // budget is not wasted, record the failure downstream.
    decision.cls1_valid = false;
    decision.trail = "error:unreadable";
    return 0.0;
  }

  const auto verdict = cls1_validate(extraction.full_text(),
                                     document.num_pages(), config_.cls1_rules);
  decision.cls1_valid = verdict.valid;
  if (!verdict.valid) {
    decision.trail = "cls1:" + verdict.reason + "|nougat";
    return kMandatoryGain;
  }

  if (config_.variant == Variant::kFastText) {
    // Fused CLS I/II: metadata classifier decides "improvement likely".
    const double p = improver_->improvement_probability(document.meta);
    decision.predicted_gain = p;
    const bool likely = p >= config_.cls2_threshold;
    decision.trail = "cls1:valid|cls2:p=" + util::format_fixed(p, 2) +
                     (likely ? "|nougat_candidate" : "|accept");
    return likely ? p : 0.0;
  }

  // CLS III: predict per-parser accuracy from the extracted first page.
  const auto scores = predictor_->predict(first_page(extraction),
                                          document.meta.title, document.meta);
  const double cheap =
      scores[static_cast<std::size_t>(parsers::ParserKind::kPyMuPdf)];
  const double expensive =
      scores[static_cast<std::size_t>(parsers::ParserKind::kNougat)];
  decision.predicted_gain = expensive - cheap;
  decision.predicted_accuracy = cheap;  // may flip in select_window
  decision.trail =
      "cls1:valid|cls3:gain=" + util::format_fixed(expensive - cheap, 3);
  return expensive - cheap;
}

void AdaParseEngine::select_window(const std::vector<double>& gains,
                                   std::size_t base_index, double alpha,
                                   RouteDecision* decisions) const {
  for (std::size_t i = 0; i < gains.size(); ++i) {
    decisions[i].doc_index = base_index + i;
  }
  // Budgeted assignment within the batch: floor(alpha * k) Nougat slots.
  // Unreadable documents score 0, so requiring a positive gain keeps them
  // in the cheap lane.
  const auto selected = select_budgeted(gains, alpha,
                                        /*require_positive_gain=*/true);
  for (std::size_t local : selected) {
    RouteDecision& decision = decisions[local];
    decision.chosen = parsers::ParserKind::kNougat;
    decision.trail += "|selected:nougat";
    decision.predicted_accuracy += decision.predicted_gain < kMandatoryGain
                                       ? decision.predicted_gain
                                       : 0.0;
  }
}

void AdaParseEngine::route_batch(
    const std::vector<doc::Document>& docs,
    const std::vector<parsers::ParseResult>& extractions, std::size_t begin,
    std::size_t end, std::vector<RouteDecision>& out) const {
  std::vector<double> gains(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    gains[i - begin] = score_document(docs[i], extractions[i], out[i]);
  }
  select_window(gains, begin, config_.alpha, out.data() + begin);
}

std::vector<parsers::ParseResult> AdaParseEngine::extract_all(
    const std::vector<doc::Document>& docs, sched::ThreadPool& pool) const {
  std::vector<parsers::ParseResult> extractions(docs.size());
  std::vector<std::future<void>> futures;
  futures.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    futures.push_back(pool.submit([this, &docs, &extractions, i] {
      extractions[i] = extractor_->parse(docs[i]);
    }));
  }
  for (auto& f : futures) f.get();
  return extractions;
}

io::ParseRecord AdaParseEngine::make_record(
    const doc::Document& document, const RouteDecision& decision,
    const parsers::ParseResult& extraction,
    const parsers::ParseResult* upgrade, EngineStats& stats) const {
  const bool upgraded = decision.chosen == parsers::ParserKind::kNougat &&
                        upgrade != nullptr && upgrade->ok;
  const parsers::ParseResult& kept = upgraded ? *upgrade : extraction;

  io::ParseRecord record;
  record.document_id = document.id;
  record.parser = std::string(upgraded ? nougat_->name() : extractor_->name());
  record.route = decision.trail;
  record.predicted_accuracy = decision.predicted_accuracy;
  record.pages = static_cast<int>(document.num_pages());
  if (!kept.ok) {
    ++stats.failed_docs;
    record.parser = "none";
    return record;
  }
  record.text = kept.full_text();
  int retrieved = 0;
  for (const auto& page : kept.pages) {
    if (!page.empty()) ++retrieved;
  }
  record.pages_retrieved = retrieved;

  if (upgraded) {
    ++stats.routed_to_nougat;
    stats.nougat_gpu_seconds += kept.cost.gpu_seconds;
  } else {
    ++stats.accepted_extraction;
  }
  if (!decision.cls1_valid) ++stats.cls1_invalid;
  return record;
}

std::vector<RouteDecision> AdaParseEngine::route(
    const std::vector<doc::Document>& docs) const {
  sched::ThreadPool pool(worker_threads());
  const auto extractions = extract_all(docs, pool);
  std::vector<RouteDecision> decisions(docs.size());
  const std::size_t k = std::max<std::size_t>(1, config_.batch_size);
  for (std::size_t begin = 0; begin < docs.size(); begin += k) {
    route_batch(docs, extractions, begin, std::min(docs.size(), begin + k),
                decisions);
  }
  return decisions;
}

RunOutput AdaParseEngine::run(const std::vector<doc::Document>& docs) const {
  return Pipeline(*this).run_collect(docs);
}

RunOutput AdaParseEngine::run_barrier(
    const std::vector<doc::Document>& docs) const {
  util::Stopwatch wall;
  RunOutput output;
  output.decisions.assign(docs.size(), {});
  output.records.assign(docs.size(), {});
  output.stats.total_docs = docs.size();

  sched::ThreadPool pool(worker_threads());

  // ---- Stage 1: parallel extraction (the default parser runs on every
  // document; its output feeds both routing and the accept-as-is path). ----
  const auto extractions = extract_all(docs, pool);
  for (const auto& extraction : extractions) {
    output.stats.extraction_cpu_seconds += extraction.cost.cpu_seconds;
  }

  // ---- Stage 2: batched routing (CLS I / II / III + alpha budget). -------
  const std::size_t k = std::max<std::size_t>(1, config_.batch_size);
  for (std::size_t begin = 0; begin < docs.size(); begin += k) {
    route_batch(docs, extractions, begin, std::min(docs.size(), begin + k),
                output.decisions);
  }
  output.stats.classifier_cpu_seconds =
      per_doc_classifier_seconds() * static_cast<double>(docs.size());

  // ---- Stage 3: budgeted high-quality parses on warm models. -------------
  sched::WarmModelCache cache(/*enabled=*/true);
  std::vector<std::future<void>> gpu_futures;
  std::vector<parsers::ParseResult> upgrades(docs.size());
  std::vector<bool> attempted(docs.size(), false);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (output.decisions[i].chosen != parsers::ParserKind::kNougat) continue;
    attempted[i] = true;
    gpu_futures.push_back(pool.submit([this, &docs, &upgrades, &cache, i] {
      // Warm start: the model handle is created once per cache, standing in
      // for one resident copy per GPU worker.
      cache.get_or_load(
          "nougat", [] { return std::make_shared<int>(0); },
          nougat_->model_load_seconds());
      upgrades[i] = nougat_->parse(docs[i]);
    }));
  }
  for (auto& f : gpu_futures) f.get();

  // ---- Stage 4: assemble records. ----------------------------------------
  for (std::size_t i = 0; i < docs.size(); ++i) {
    output.records[i] =
        make_record(docs[i], output.decisions[i], extractions[i],
                    attempted[i] ? &upgrades[i] : nullptr, output.stats);
  }
  output.stats.wall_seconds = wall.seconds();
  output.stats.simd_tier = simd::active_tier_name();
  return output;
}

std::vector<hpc::TaskSpec> AdaParseEngine::plan_tasks(
    const std::vector<doc::Document>& docs,
    const std::vector<RouteDecision>& decisions) const {
  if (docs.size() != decisions.size()) {
    throw std::invalid_argument("plan_tasks: size mismatch");
  }
  const double per_doc_classifier_cost = per_doc_classifier_seconds();
  std::vector<hpc::TaskSpec> tasks;
  tasks.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const auto extraction_cost = extractor_->estimate_cost(docs[i]);
    hpc::TaskSpec task;
    task.cpu_seconds = extraction_cost.cpu_seconds + per_doc_classifier_cost;
    task.bytes_read = extraction_cost.bytes_read;
    if (decisions[i].chosen == parsers::ParserKind::kNougat) {
      const auto nougat_cost = nougat_->estimate_cost(docs[i]);
      task.cpu_seconds += nougat_cost.cpu_seconds;
      task.gpu_seconds = nougat_cost.gpu_seconds;
      task.bytes_read += nougat_cost.bytes_read;
      task.needs_gpu_model = true;
    }
    tasks.push_back(task);
  }
  return tasks;
}

std::string AdaParseEngine::model_digest() const {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto fold = [&h](double value) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    for (const unsigned char b : bytes) h = util::fnv1a_step(h, b);
  };
  // Fixed probe inputs: any weight change shifts these predictions.
  const doc::Metadata probe_meta;
  if (predictor_) {
    for (const double score : predictor_->predict(
             "campaign fingerprint probe: the ribosome measured in-vivo "
             "rates across the phylogenetic pathway",
             "probe title", probe_meta)) {
      fold(score);
    }
  }
  if (improver_) fold(improver_->improvement_probability(probe_meta));
  return std::to_string(h);
}

}  // namespace adaparse::core
