#include "parsers/ocr.hpp"

#include <algorithm>
#include <cmath>

#include "text/corrupt.hpp"

namespace adaparse::parsers {
namespace {

double document_bytes(const doc::Document& document) {
  // OCR rasterizes: reads the full page images.
  double bytes = 150'000.0;
  bytes += 450'000.0 * static_cast<double>(document.num_pages());
  return bytes;
}

}  // namespace

Cost SimTesseract::estimate_cost(const doc::Document& document) const {
  Cost c;
  // LSTM line transcription: ~8 CPU-s per page in sim units (node of 32
  // cores sustains ~0.35 PDF/s, linear in Figure 5).
  c.cpu_seconds = 3.0 + 8.5 * static_cast<double>(document.num_pages());
  c.bytes_read = document_bytes(document);
  return c;
}

ParseResult SimTesseract::parse(const doc::Document& document) const {
  if (document.corrupted) return corrupted_result(document);
  ParseResult result;
  result.cost = estimate_cost(document);
  auto rng = noise_stream(document, ParserKind::kTesseract);

  const double q = document.image_layer.quality();
  // Error rates rise as render quality falls; a per-(document, parser)
  // severity factor models unrecorded page-level difficulty.
  const double severity = std::exp(rng.normal(0.0, 0.35));
  const double char_noise = (0.042 + 0.060 * (1.0 - q)) * severity;
  const double word_sub = (0.044 + 0.04 * (1.0 - q)) * severity;
  const double word_drop = (0.038 + 0.06 * (1.0 - q)) * severity;
  const double scramble = (0.024 + 0.05 * (1.0 - q)) * severity;

  result.pages.reserve(document.num_pages());
  for (const auto& gt : document.groundtruth_pages) {
    // Very degraded pages fail line segmentation entirely.
    const double drop_p =
        0.030 + 0.09 * document.layout_complexity + 0.25 * (1.0 - q);
    if (rng.chance(std::min(0.9, drop_p))) {
      result.pages.emplace_back();
      continue;
    }
    // OCR reads rendered glyphs: LaTeX appears as garbled symbols.
    std::string t = text::mangle_latex(gt, 0.92, rng);
    t = text::drop_words(t, word_drop, rng);
    t = text::substitute_words(t, word_sub, rng);
    t = text::substitute_chars(t, char_noise, rng);
    t = text::scramble_words(t, scramble, rng);
    t = text::layout_artifacts(t, 0.12 + 0.2 * document.layout_complexity,
                               rng);
    result.pages.push_back(std::move(t));
  }
  return result;
}

Cost SimGrobid::estimate_cost(const doc::Document& document) const {
  Cost c;
  // Segmentation models + assembly; multithreaded server in reality, here
  // expressed as per-document core-seconds (~0.5 PDF/s per node).
  c.cpu_seconds = 6.0 + 5.5 * static_cast<double>(document.num_pages());
  c.bytes_read = 0.6 * document_bytes(document);
  return c;
}

ParseResult SimGrobid::parse(const doc::Document& document) const {
  if (document.corrupted) return corrupted_result(document);
  ParseResult result;
  result.cost = estimate_cost(document);
  auto rng = noise_stream(document, ParserKind::kGrobid);

  result.pages.reserve(document.num_pages());
  for (std::size_t p = 0; p < document.groundtruth_pages.size(); ++p) {
    // GROBID targets bibliographic/body structure: pages that do not match
    // its segmentation models are skipped wholesale (coverage ~81%).
    const double drop_p = 0.11 + 0.20 * document.layout_complexity;
    if (rng.chance(std::min(0.9, drop_p))) {
      result.pages.emplace_back();
      continue;
    }
    const auto& gt = document.groundtruth_pages[p];
    // Clean characters, but non-body regions are excised: equations,
    // captions, and large parts of the reference list vanish (the brevity
    // penalty drives GROBID's BLEU to the bottom of Table 1).
    std::string t = text::mangle_latex(gt, 0.15, rng);
    t = text::drop_words(t, 0.30, rng);
    t = text::substitute_words(t, 0.02, rng);
    result.pages.push_back(std::move(t));
  }
  return result;
}

}  // namespace adaparse::parsers
