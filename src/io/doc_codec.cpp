#include "io/doc_codec.hpp"

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
  // A shard damaged at rest must surface as std::runtime_error, the one
  // type the campaign catches to re-stage it.
  const util::FieldReader in(j.as_object(), "document_from_json");
  doc::Document document;
  document.id = in.string_field("id");
  document.meta.publisher = static_cast<doc::Publisher>(
      in.int_field("publisher", 0, doc::kNumPublishers));
  document.meta.domain = static_cast<doc::Domain>(
      in.int_field("domain", 0, doc::kNumDomains));
  document.meta.subcategory = in.int_field("subcategory");
  document.meta.year = in.int_field("year");
  document.meta.format = static_cast<doc::PdfFormat>(
      in.int_field("format", 0, doc::kNumFormats));
  document.meta.producer = static_cast<doc::ProducerTool>(
      in.int_field("producer", 0, doc::kNumProducers));
  document.meta.num_pages = in.int_field("meta_pages");
  document.meta.title = in.string_field("title");
  document.groundtruth_pages = in.string_array_field("groundtruth");
  document.text_layer.pages = in.string_array_field("text_pages");
  document.text_layer.fidelity = in.number_field("text_fidelity");
  document.text_layer.present = in.bool_field("text_present");
  document.image_layer.born_digital = in.bool_field("born_digital");
  document.image_layer.rotation_deg = in.number_field("rotation_deg");
  document.image_layer.blur_sigma = in.number_field("blur_sigma");
  document.image_layer.contrast = in.number_field("contrast");
  document.image_layer.compression = in.number_field("compression");
  document.layout_complexity = in.number_field("layout_complexity");
  document.math_density = in.number_field("math_density");
  document.chem_density = in.number_field("chem_density");
  document.seed = in.u64_field("seed");
  document.corrupted = in.bool_field("corrupted");
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
