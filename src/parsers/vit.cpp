#include "parsers/vit.hpp"

#include <algorithm>
#include <cmath>

#include "text/corrupt.hpp"

namespace adaparse::parsers {
namespace {

double document_bytes(const doc::Document& document) {
  // ViTs consume rendered page images at fixed resolution.
  return 120'000.0 + 520'000.0 * static_cast<double>(document.num_pages());
}

}  // namespace

Cost SimNougat::estimate_cost(const doc::Document& document) const {
  Cost c;
  // Autoregressive decode per page at fixed resolution; page batching (Bp)
  // normalizes task size. ~6.4 GPU-s/page lands a 4-GPU node at the
  // ~0.0625 PDF/s of Figure 5.
  const auto pages = static_cast<double>(document.num_pages());
  const double batches = std::ceil(pages / kPageBatch);
  c.gpu_seconds = 1.0 * batches + 6.0 * pages;
  c.cpu_seconds = 0.8 + 0.25 * pages;  // rasterization + pre/post-processing
  c.bytes_read = document_bytes(document);
  return c;
}

ParseResult SimNougat::parse(const doc::Document& document) const {
  if (document.corrupted) return corrupted_result(document);
  ParseResult result;
  result.cost = estimate_cost(document);
  auto rng = noise_stream(document, ParserKind::kNougat);

  const double q = document.image_layer.quality();
  // Trained with scan-style augmentations: degradation hurts, but far less
  // than it hurts classical OCR. Base rates calibrated to the paper's
  // Nougat row (BLEU ~48, CAR ~66 on born-digital).
  const double degradation = (1.0 - q) * 0.35;
  const double severity = std::exp(rng.normal(0.0, 0.35));
  const double char_noise = (0.024 + 0.030 * degradation) * severity;
  const double word_sub = (0.058 + 0.03 * degradation) * severity;
  const double word_drop = (0.044 + 0.02 * degradation) * severity;

  result.pages.reserve(document.num_pages());
  for (const auto& gt : document.groundtruth_pages) {
    // Repetition collapse drops whole pages — worse on layout-dense pages.
    const double drop_p =
        0.040 + 0.05 * document.layout_complexity + 0.08 * degradation;
    if (rng.chance(std::min(0.8, drop_p))) {
      result.pages.emplace_back();
      continue;
    }
    // Decodes LaTeX essentially correctly (trained for it); math costs it
    // almost nothing. Hallucination substitutes/drops prose words.
    std::string t = text::mangle_latex(gt, 0.04, rng);
    t = text::drop_words(t, word_drop, rng);
    t = text::substitute_words(t, word_sub, rng);
    t = text::substitute_chars(t, char_noise, rng);
    t = text::layout_artifacts(t, 0.15, rng);  // markdown-ish
    result.pages.push_back(std::move(t));
  }
  return result;
}

Cost SimMarker::estimate_cost(const doc::Document& document) const {
  Cost c;
  // Layout detection + per-element texify decode: the slowest of the cohort
  // (~0.0125 PDF/s per node before its scaling collapse).
  const auto pages = static_cast<double>(document.num_pages());
  c.gpu_seconds = 4.0 + 30.0 * pages;
  c.cpu_seconds = 2.0 + 1.2 * pages;
  c.bytes_read = document_bytes(document);
  return c;
}

ParseResult SimMarker::parse(const doc::Document& document) const {
  if (document.corrupted) return corrupted_result(document);
  ParseResult result;
  result.cost = estimate_cost(document);
  auto rng = noise_stream(document, ParserKind::kMarker);

  const double q = document.image_layer.quality();
  // Calibrated to the paper's Marker row (BLEU ~47.5, CAR ~60 — best
  // coverage, slightly behind Nougat on text fidelity).
  const double degradation = (1.0 - q) * 0.5;
  const double severity = std::exp(rng.normal(0.0, 0.35));
  const double char_noise = (0.030 + 0.03 * degradation) * severity;

  result.pages.reserve(document.num_pages());
  for (const auto& gt : document.groundtruth_pages) {
    // Explicit layout detection recovers almost every page (best coverage
    // in Table 1), even under degradation.
    const double drop_p = 0.015 + 0.03 * document.layout_complexity +
                          0.04 * degradation;
    if (rng.chance(std::min(0.6, drop_p))) {
      result.pages.emplace_back();
      continue;
    }
    // Good but not Nougat-grade math; layout model occasionally reorders
    // blocks (scramble at the word level approximates block transpositions).
    std::string t = text::mangle_latex(gt, 0.22, rng);
    t = text::drop_words(t, 0.042 * severity, rng);
    t = text::substitute_words(t, 0.052 * severity, rng);
    t = text::substitute_chars(t, char_noise, rng);
    t = text::scramble_words(t, 0.022 + 0.02 * document.layout_complexity,
                             rng);
    t = text::layout_artifacts(t, 0.60, rng);
    t = text::pad_whitespace(t, 0.5, rng);
    result.pages.push_back(std::move(t));
  }
  return result;
}

}  // namespace adaparse::parsers
