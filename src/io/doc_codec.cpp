#include "io/doc_codec.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "io/shard.hpp"

namespace adaparse::io {
namespace {

util::Json pages_to_json(const std::vector<std::string>& pages) {
  util::JsonArray arr;
  arr.reserve(pages.size());
  for (const auto& page : pages) arr.emplace_back(page);
  return util::Json(std::move(arr));
}

[[noreturn]] void malformed(const char* field, const char* what) {
  throw std::runtime_error(std::string("document_from_json: ") + field + " " +
                           what);
}

// Checked field readers: a shard damaged at rest must surface as
// std::runtime_error — the one type the campaign catches to re-stage it —
// never as out_of_range or bad_variant_access from the Json accessors.

const util::Json& field(const util::JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  if (it == obj.end()) malformed(key, "missing");
  return it->second;
}

double number_field(const util::JsonObject& obj, const char* key) {
  const util::Json& v = field(obj, key);
  if (!v.is_number()) malformed(key, "is not a number");
  return v.as_number();
}

bool bool_field(const util::JsonObject& obj, const char* key) {
  const util::Json& v = field(obj, key);
  if (!v.is_bool()) malformed(key, "is not a boolean");
  return v.as_bool();
}

const std::string& string_field(const util::JsonObject& obj, const char* key) {
  const util::Json& v = field(obj, key);
  if (!v.is_string()) malformed(key, "is not a string");
  return v.as_string();
}

/// An integer in [lo, hi): a fraction or a value outside int is malformed,
/// not cast.
int int_field(const util::JsonObject& obj, const char* key,
              double lo = std::numeric_limits<int>::min(),
              double hi = std::numeric_limits<int>::max() + 1.0) {
  const double v = number_field(obj, key);
  if (!(v >= lo && v < hi) || v != std::floor(v)) malformed(key, "out of range");
  return static_cast<int>(v);
}

std::vector<std::string> pages_field(const util::JsonObject& obj,
                                     const char* key) {
  const util::Json& v = field(obj, key);
  if (!v.is_array()) malformed(key, "is not an array");
  std::vector<std::string> pages;
  pages.reserve(v.as_array().size());
  for (const auto& page : v.as_array()) {
    if (!page.is_string()) malformed(key, "holds a non-string page");
    pages.push_back(page.as_string());
  }
  return pages;
}

/// The seed as written by document_to_json: decimal digits only, in range.
std::uint64_t seed_field(const util::JsonObject& obj) {
  const std::string& s = string_field(obj, "seed");
  std::uint64_t seed = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), seed);
  if (ec != std::errc() || end != s.data() + s.size()) {
    malformed("seed", "is not an unsigned decimal");
  }
  return seed;
}

}  // namespace

util::Json document_to_json(const doc::Document& document) {
  util::JsonObject obj;
  obj["id"] = document.id;
  obj["publisher"] = static_cast<int>(document.meta.publisher);
  obj["domain"] = static_cast<int>(document.meta.domain);
  obj["subcategory"] = document.meta.subcategory;
  obj["year"] = document.meta.year;
  obj["format"] = static_cast<int>(document.meta.format);
  obj["producer"] = static_cast<int>(document.meta.producer);
  obj["meta_pages"] = document.meta.num_pages;
  obj["title"] = document.meta.title;
  obj["groundtruth"] = pages_to_json(document.groundtruth_pages);
  obj["text_pages"] = pages_to_json(document.text_layer.pages);
  obj["text_fidelity"] = document.text_layer.fidelity;
  obj["text_present"] = document.text_layer.present;
  obj["born_digital"] = document.image_layer.born_digital;
  obj["rotation_deg"] = document.image_layer.rotation_deg;
  obj["blur_sigma"] = document.image_layer.blur_sigma;
  obj["contrast"] = document.image_layer.contrast;
  obj["compression"] = document.image_layer.compression;
  obj["layout_complexity"] = document.layout_complexity;
  obj["math_density"] = document.math_density;
  obj["chem_density"] = document.chem_density;
  obj["seed"] = std::to_string(document.seed);
  obj["corrupted"] = document.corrupted;
  return util::Json(std::move(obj));
}

doc::Document document_from_json(const util::Json& j) {
  if (!j.is_object()) throw std::runtime_error("document_from_json: not an object");
  const util::JsonObject& obj = j.as_object();
  doc::Document document;
  document.id = string_field(obj, "id");
  document.meta.publisher = static_cast<doc::Publisher>(
      int_field(obj, "publisher", 0, doc::kNumPublishers));
  document.meta.domain = static_cast<doc::Domain>(
      int_field(obj, "domain", 0, doc::kNumDomains));
  document.meta.subcategory = int_field(obj, "subcategory");
  document.meta.year = int_field(obj, "year");
  document.meta.format = static_cast<doc::PdfFormat>(
      int_field(obj, "format", 0, doc::kNumFormats));
  document.meta.producer = static_cast<doc::ProducerTool>(
      int_field(obj, "producer", 0, doc::kNumProducers));
  document.meta.num_pages = int_field(obj, "meta_pages");
  document.meta.title = string_field(obj, "title");
  document.groundtruth_pages = pages_field(obj, "groundtruth");
  document.text_layer.pages = pages_field(obj, "text_pages");
  document.text_layer.fidelity = number_field(obj, "text_fidelity");
  document.text_layer.present = bool_field(obj, "text_present");
  document.image_layer.born_digital = bool_field(obj, "born_digital");
  document.image_layer.rotation_deg = number_field(obj, "rotation_deg");
  document.image_layer.blur_sigma = number_field(obj, "blur_sigma");
  document.image_layer.contrast = number_field(obj, "contrast");
  document.image_layer.compression = number_field(obj, "compression");
  document.layout_complexity = number_field(obj, "layout_complexity");
  document.math_density = number_field(obj, "math_density");
  document.chem_density = number_field(obj, "chem_density");
  document.seed = seed_field(obj);
  document.corrupted = bool_field(obj, "corrupted");
  return document;
}

std::string pack_corpus_shard(const std::vector<doc::Document>& docs) {
  ShardWriter writer;
  for (const auto& document : docs) {
    writer.add(document.id, document_to_json(document).dump());
  }
  return writer.finish();
}

std::vector<doc::Document> unpack_corpus_shard(const std::string& blob) {
  ShardReader reader(blob);
  std::vector<doc::Document> docs;
  docs.reserve(reader.count());
  for (const auto& entry : reader.entries()) {
    docs.push_back(document_from_json(util::Json::parse(entry.payload)));
  }
  return docs;
}

}  // namespace adaparse::io
