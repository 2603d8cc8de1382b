// The parser abstraction: everything AdaParse knows about a parser.
//
// A parser maps a Document to per-page text plus a resource cost. AdaParse
// treats parsers as black boxes characterized by (output text, cost,
// resource class) — exactly the interface this header defines. The six
// simulated parsers reproduce the error profiles and cost ratios of the
// real tools benchmarked in the paper (PyMuPDF, pypdf, Tesseract, GROBID,
// Marker, Nougat).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "doc/document.hpp"
#include "util/rng.hpp"

namespace adaparse::parsers {

/// Identity of the six constituent parsers. Order matters: it is the output
/// order of the m=6 accuracy-prediction head (paper Appendix A).
enum class ParserKind : std::uint8_t {
  kPyMuPdf = 0,
  kPypdf = 1,
  kTesseract = 2,
  kGrobid = 3,
  kMarker = 4,
  kNougat = 5,
};
inline constexpr std::size_t kNumParsers = 6;
const char* parser_name(ParserKind k);

/// Hardware class a parser occupies (paper §5.2: PyMuPDF runs exclusively
/// on CPUs, so it never competes with Nougat for GPUs).
enum class Resource : std::uint8_t { kCpu, kGpu };

/// Simulated resource consumption of one parse.
struct Cost {
  double cpu_seconds = 0.0;  ///< CPU-core-seconds
  double gpu_seconds = 0.0;  ///< GPU-seconds
  double bytes_read = 0.0;   ///< input I/O volume (drives FS contention)
};

/// Output of one parse.
struct ParseResult {
  bool ok = true;            ///< false: unreadable/corrupted input
  std::string error;         ///< diagnostic when !ok
  std::vector<std::string> pages;  ///< per-page text; "" = page dropped
  Cost cost;                 ///< simulated resources actually spent

  /// Concatenated page text (newline-separated; dropped pages skipped).
  std::string full_text() const;
};

/// Per-(document, parser) deterministic noise stream every simulated
/// parser draws its errors from.
util::Rng noise_stream(const doc::Document& document, ParserKind kind);

/// What every parser returns for an unreadable (corrupted) document.
ParseResult corrupted_result(const doc::Document& document);

/// Abstract parser.
class Parser {
 public:
  virtual ~Parser() = default;

  virtual ParserKind kind() const = 0;
  std::string_view name() const { return parser_name(kind()); }
  virtual Resource resource() const = 0;

  /// One-time model-load cost (seconds) paid per worker unless the runtime
  /// warm-starts it (paper: Nougat's ViT takes ~15 s to load on an A100).
  virtual double model_load_seconds() const { return 0.0; }

  /// Expected cost of parsing `document` without running it — used by the
  /// scheduler for placement and by the budget optimizer.
  virtual Cost estimate_cost(const doc::Document& document) const = 0;

  /// Runs the parser. Deterministic given (document.seed, kind).
  virtual ParseResult parse(const doc::Document& document) const = 0;
};

using ParserPtr = std::shared_ptr<const Parser>;

}  // namespace adaparse::parsers
