#include "parsers/extraction.hpp"

#include "text/corrupt.hpp"

namespace adaparse::parsers {
namespace {

/// Approximate input size: PDFs carry images/fonts beyond the text.
double document_bytes(const doc::Document& document) {
  double bytes = 200'000.0;  // structure + fonts
  for (const auto& page : document.groundtruth_pages) {
    bytes += 60'000.0 + 2.0 * static_cast<double>(page.size());
  }
  if (!document.image_layer.born_digital) bytes *= 2.2;  // scan images
  return bytes;
}

}  // namespace

Cost SimPyMuPdf::estimate_cost(const doc::Document& document) const {
  Cost c;
  // Effective per-document CPU cost (parse + orchestration overhead),
  // calibrated so a 32-core node sustains ~2.5 PDF/s as in Figure 5.
  c.cpu_seconds = 1.2 + 1.18 * static_cast<double>(document.num_pages());
  c.bytes_read = document_bytes(document);
  return c;
}

ParseResult SimPyMuPdf::parse(const doc::Document& document) const {
  if (document.corrupted) return corrupted_result(document);
  ParseResult result;
  result.cost = estimate_cost(document);
  auto rng = noise_stream(document, ParserKind::kPyMuPdf);

  result.pages.reserve(document.num_pages());
  if (!document.text_layer.present) {
    // No embedded text: extraction returns nothing per page.
    result.pages.assign(document.num_pages(), std::string());
    return result;
  }
  for (std::size_t p = 0; p < document.text_layer.pages.size(); ++p) {
    // Pages whose content lives in figures/vector art yield no text; more
    // likely in layout-dense documents.
    const double drop_p = 0.035 + 0.11 * document.layout_complexity;
    if (rng.chance(drop_p)) {
      result.pages.emplace_back();
      continue;
    }
    // Near-verbatim; mild reflow (MuPDF reads in layout order).
    std::string t = text::layout_artifacts(
        document.text_layer.pages[p],
        0.10 + 0.25 * document.layout_complexity, rng);
    result.pages.push_back(std::move(t));
  }
  return result;
}

Cost SimPypdf::estimate_cost(const doc::Document& document) const {
  Cost c;
  // ~13x the per-page cost of MuPDF extraction (paper §5.1) and ~4x the
  // filesystem operations (object-by-object reads), which is what makes
  // pypdf plateau earlier than PyMuPDF at scale (Figure 5).
  c.cpu_seconds = 2.0 + 3.6 * static_cast<double>(document.num_pages());
  c.bytes_read = 4.0 * document_bytes(document);
  return c;
}

ParseResult SimPypdf::parse(const doc::Document& document) const {
  if (document.corrupted) return corrupted_result(document);
  ParseResult result;
  result.cost = estimate_cost(document);
  auto rng = noise_stream(document, ParserKind::kPypdf);

  result.pages.reserve(document.num_pages());
  if (!document.text_layer.present) {
    result.pages.assign(document.num_pages(), std::string());
    return result;
  }
  for (std::size_t p = 0; p < document.text_layer.pages.size(); ++p) {
    const double drop_p = 0.030 + 0.10 * document.layout_complexity;
    if (rng.chance(drop_p)) {
      result.pages.emplace_back();
      continue;
    }
    // pypdf's signature: aggressive line-by-line emission (reflow), spurious
    // whitespace, occasional lost words and encoding damage. Token stream
    // survives (moderate BLEU), character stream does not (CAR ~32%).
    // Word-level channels first (drop_words re-joins on single spaces and
    // would erase whitespace damage applied before it), then the layout and
    // whitespace channels that give pypdf its CAR-collapsing signature.
    std::string t = document.text_layer.pages[p];
    t = text::drop_words(t, 0.002, rng);
    t = text::scramble_words(t, 0.002, rng);
    t = text::substitute_words(t, 0.006, rng);
    t = text::mojibake(t, 0.004, rng);
    t = text::layout_artifacts(t, 0.55, rng);
    t = text::pad_whitespace(t, 3.0, rng);
    t = text::inject_whitespace(t, 0.012, rng);
    result.pages.push_back(std::move(t));
  }
  return result;
}

}  // namespace adaparse::parsers
