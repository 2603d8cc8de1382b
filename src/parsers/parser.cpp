#include "parsers/parser.hpp"

namespace adaparse::parsers {

const char* parser_name(ParserKind k) {
  switch (k) {
    case ParserKind::kPyMuPdf: return "PyMuPDF";
    case ParserKind::kPypdf: return "pypdf";
    case ParserKind::kTesseract: return "Tesseract";
    case ParserKind::kGrobid: return "GROBID";
    case ParserKind::kMarker: return "Marker";
    case ParserKind::kNougat: return "Nougat";
  }
  return "?";
}

std::string ParseResult::full_text() const {
  // Size the result once: growing it page by page leaves a trail of freed
  // buffers behind in the calling thread's malloc arena.
  std::size_t bytes = 0;
  for (const auto& page : pages) bytes += page.size() + 1;
  std::string out;
  out.reserve(bytes);
  bool first = true;
  for (const auto& page : pages) {
    if (page.empty()) continue;
    if (!first) out += '\n';
    first = false;
    out += page;
  }
  return out;
}

util::Rng noise_stream(const doc::Document& document, ParserKind kind) {
  return util::Rng(
      util::mix64(document.seed, 0xA11CE000ULL + static_cast<int>(kind)));
}

ParseResult corrupted_result(const doc::Document& document) {
  ParseResult r;
  r.ok = false;
  r.error = "unreadable PDF: " + document.id;
  return r;
}

}  // namespace adaparse::parsers
