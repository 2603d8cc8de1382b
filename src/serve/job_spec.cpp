#include "serve/job_spec.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "io/fsio.hpp"

namespace adaparse::serve {

namespace {

// ---- strict JSON field extraction -------------------------------------

const util::JsonObject& require_object(const util::Json& j,
                                       const std::string& field) {
  if (!j.is_object()) throw SpecError(field, "must be a JSON object");
  return j.as_object();
}

void reject_unknown_keys(const util::JsonObject& obj,
                         std::initializer_list<const char*> allowed,
                         const std::string& prefix) {
  for (const auto& [key, value] : obj) {
    (void)value;
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      throw SpecError(prefix.empty() ? key : prefix + "." + key,
                      "unknown field");
    }
  }
}

double number_field(const util::JsonObject& obj, const std::string& key,
                    const std::string& field, double fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (!it->second.is_number()) throw SpecError(field, "must be a number");
  return it->second.as_number();
}

std::int64_t integer_field(const util::JsonObject& obj,
                           const std::string& key,
                           const std::string& field, std::int64_t fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (!it->second.is_number()) throw SpecError(field, "must be an integer");
  const double d = it->second.as_number();
  if (d != std::floor(d) || std::abs(d) > 9.0e15) {
    throw SpecError(field, "must be an integer");
  }
  return static_cast<std::int64_t>(d);
}

std::string string_field(const util::JsonObject& obj, const std::string& key,
                         const std::string& field, std::string fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (!it->second.is_string()) throw SpecError(field, "must be a string");
  return it->second.as_string();
}

void check_fraction(double v, const std::string& field) {
  if (!(v >= 0.0 && v <= 1.0)) {
    throw SpecError(field, "must be in [0, 1]");
  }
}

// ---- sections ---------------------------------------------------------

core::EngineConfig engine_from_json(const util::Json& j) {
  const auto& obj = require_object(j, "engine");
  reject_unknown_keys(obj, {"variant", "alpha", "batch_size",
                            "cls2_threshold"},
                      "engine");
  core::EngineConfig engine;
  const std::string variant =
      string_field(obj, "variant", "engine.variant", "llm");
  if (variant == "llm") {
    engine.variant = core::Variant::kLlm;
  } else if (variant == "fasttext") {
    engine.variant = core::Variant::kFastText;
  } else {
    throw SpecError("engine.variant", "must be \"llm\" or \"fasttext\"");
  }
  engine.alpha = number_field(obj, "alpha", "engine.alpha", engine.alpha);
  engine.batch_size = static_cast<std::size_t>(
      integer_field(obj, "batch_size", "engine.batch_size",
                    static_cast<std::int64_t>(engine.batch_size)));
  engine.cls2_threshold = number_field(obj, "cls2_threshold",
                                       "engine.cls2_threshold",
                                       engine.cls2_threshold);
  return engine;
}

InlineDocument inline_doc_from_json(const util::Json& j,
                                    const std::string& field) {
  const auto& obj = require_object(j, field);
  reject_unknown_keys(obj, {"id", "pages", "seed"}, field);
  InlineDocument out;
  out.id = string_field(obj, "id", field + ".id", "");
  const auto pages_it = obj.find("pages");
  if (pages_it == obj.end() || !pages_it->second.is_array()) {
    throw SpecError(field + ".pages", "must be an array of strings");
  }
  for (const auto& page : pages_it->second.as_array()) {
    if (!page.is_string()) {
      throw SpecError(field + ".pages", "must be an array of strings");
    }
    out.pages.push_back(page.as_string());
  }
  out.seed = static_cast<std::uint64_t>(
      integer_field(obj, "seed", field + ".seed", 0));
  return out;
}

doc::GeneratorConfig generator_from_json(const util::Json& j) {
  const auto& obj = require_object(j, "documents.generator");
  reject_unknown_keys(obj, {"count", "seed", "scanned_fraction",
                            "corrupted_fraction"},
                      "documents.generator");
  doc::GeneratorConfig config;
  config.num_documents = static_cast<std::size_t>(
      integer_field(obj, "count", "documents.generator.count", 0));
  config.seed = static_cast<std::uint64_t>(
      integer_field(obj, "seed", "documents.generator.seed", 42));
  config.scanned_fraction =
      number_field(obj, "scanned_fraction",
                   "documents.generator.scanned_fraction",
                   config.scanned_fraction);
  config.corrupted_fraction =
      number_field(obj, "corrupted_fraction",
                   "documents.generator.corrupted_fraction",
                   config.corrupted_fraction);
  return config;
}

doc::Document materialize(const InlineDocument& inline_doc) {
  doc::Document d;
  d.id = inline_doc.id;
  d.groundtruth_pages = inline_doc.pages;
  d.text_layer.pages = inline_doc.pages;
  d.text_layer.present = true;
  d.text_layer.fidelity = 1.0;
  d.seed = inline_doc.seed;
  d.meta.num_pages = static_cast<int>(inline_doc.pages.size());
  return d;
}

}  // namespace

const char* variant_wire_name(core::Variant v) {
  return v == core::Variant::kFastText ? "fasttext" : "llm";
}

util::Json JobSpec::to_json() const {
  util::JsonObject engine_obj;
  engine_obj["variant"] = variant_wire_name(engine.variant);
  engine_obj["alpha"] = engine.alpha;
  engine_obj["batch_size"] = engine.batch_size;
  engine_obj["cls2_threshold"] = engine.cls2_threshold;

  util::JsonObject out;
  out["tenant"] = tenant;
  out["priority"] = priority;
  out["deadline_ms"] = static_cast<std::int64_t>(deadline.count());
  out["engine"] = util::Json(std::move(engine_obj));

  util::JsonObject docs_obj;
  switch (documents) {
    case Documents::kNone:
      break;
    case Documents::kInline: {
      util::JsonArray docs;
      docs.reserve(inline_docs.size());
      for (const InlineDocument& d : inline_docs) {
        util::JsonObject doc_obj;
        doc_obj["id"] = d.id;
        util::JsonArray pages;
        pages.reserve(d.pages.size());
        for (const std::string& page : d.pages) pages.emplace_back(page);
        doc_obj["pages"] = util::Json(std::move(pages));
        doc_obj["seed"] = static_cast<std::int64_t>(d.seed);
        docs.emplace_back(std::move(doc_obj));
      }
      docs_obj["inline"] = util::Json(std::move(docs));
      break;
    }
    case Documents::kGenerator: {
      util::JsonObject gen;
      gen["count"] = generator.num_documents;
      gen["seed"] = static_cast<std::int64_t>(generator.seed);
      gen["scanned_fraction"] = generator.scanned_fraction;
      gen["corrupted_fraction"] = generator.corrupted_fraction;
      docs_obj["generator"] = util::Json(std::move(gen));
      break;
    }
    case Documents::kShardFile:
      docs_obj["shard_file"] = shard_file;
      break;
  }
  if (documents != Documents::kNone) {
    out["documents"] = util::Json(std::move(docs_obj));
  }
  return util::Json(std::move(out));
}

JobSpec JobSpec::from_json(const util::Json& json) {
  const auto& obj = require_object(json, "(request)");
  reject_unknown_keys(obj, {"tenant", "priority", "deadline_ms", "engine",
                            "documents"},
                      "");
  JobSpec spec;
  spec.tenant = string_field(obj, "tenant", "tenant", spec.tenant);
  spec.priority = static_cast<int>(
      integer_field(obj, "priority", "priority", spec.priority));
  spec.deadline = std::chrono::milliseconds(
      integer_field(obj, "deadline_ms", "deadline_ms", 0));
  if (const auto it = obj.find("engine"); it != obj.end()) {
    spec.engine = engine_from_json(it->second);
  }
  if (const auto it = obj.find("documents"); it != obj.end()) {
    const auto& docs = require_object(it->second, "documents");
    reject_unknown_keys(docs, {"inline", "generator", "shard_file"},
                        "documents");
    if (docs.size() != 1) {
      throw SpecError("documents",
                      "must contain exactly one of \"inline\", "
                      "\"generator\", \"shard_file\"");
    }
    if (const auto inline_it = docs.find("inline");
        inline_it != docs.end()) {
      if (!inline_it->second.is_array()) {
        throw SpecError("documents.inline", "must be an array");
      }
      spec.documents = Documents::kInline;
      const auto& arr = inline_it->second.as_array();
      spec.inline_docs.reserve(arr.size());
      for (std::size_t i = 0; i < arr.size(); ++i) {
        spec.inline_docs.push_back(inline_doc_from_json(
            arr[i], "documents.inline[" + std::to_string(i) + "]"));
      }
    } else if (const auto gen_it = docs.find("generator");
               gen_it != docs.end()) {
      spec.documents = Documents::kGenerator;
      spec.generator = generator_from_json(gen_it->second);
    } else {
      spec.documents = Documents::kShardFile;
      const auto shard_it = docs.find("shard_file");
      if (!shard_it->second.is_string()) {
        throw SpecError("documents.shard_file", "must be a string");
      }
      spec.shard_file = shard_it->second.as_string();
    }
  }
  spec.validate();
  return spec;
}

void JobSpec::validate() const {
  if (tenant.empty() || tenant.size() > 128) {
    throw SpecError("tenant", "must be 1..128 bytes");
  }
  for (const char c : tenant) {
    if (static_cast<unsigned char>(c) < 0x20) {
      throw SpecError("tenant", "must not contain control characters");
    }
  }
  if (priority < -1000 || priority > 1000) {
    throw SpecError("priority", "must be in [-1000, 1000]");
  }
  if (deadline.count() < 0 || deadline.count() > 86'400'000) {
    throw SpecError("deadline_ms", "must be in [0, 86400000]");
  }
  check_fraction(engine.alpha, "engine.alpha");
  check_fraction(engine.cls2_threshold, "engine.cls2_threshold");
  if (engine.batch_size < 1 || engine.batch_size > 65536) {
    throw SpecError("engine.batch_size", "must be in [1, 65536]");
  }
  switch (documents) {
    case Documents::kNone:
      break;
    case Documents::kInline: {
      if (inline_docs.empty() || inline_docs.size() > 4096) {
        throw SpecError("documents.inline", "must hold 1..4096 documents");
      }
      for (std::size_t i = 0; i < inline_docs.size(); ++i) {
        const std::string field =
            "documents.inline[" + std::to_string(i) + "]";
        const InlineDocument& d = inline_docs[i];
        if (d.id.empty() || d.id.size() > 256) {
          throw SpecError(field + ".id", "must be 1..256 bytes");
        }
        if (d.pages.empty() || d.pages.size() > 512) {
          throw SpecError(field + ".pages", "must hold 1..512 pages");
        }
      }
      break;
    }
    case Documents::kGenerator:
      if (generator.num_documents < 1 ||
          generator.num_documents > 10'000'000) {
        throw SpecError("documents.generator.count",
                        "must be in [1, 10000000]");
      }
      check_fraction(generator.scanned_fraction,
                     "documents.generator.scanned_fraction");
      check_fraction(generator.corrupted_fraction,
                     "documents.generator.corrupted_fraction");
      break;
    case Documents::kShardFile:
      if (shard_file.empty()) {
        throw SpecError("documents.shard_file", "must be non-empty");
      }
      break;
  }
}

std::unique_ptr<core::DocumentSource> JobSpec::make_source() const {
  switch (documents) {
    case Documents::kNone:
      throw SpecError("documents", "spec has no documents section");
    case Documents::kInline: {
      std::vector<doc::Document> docs;
      docs.reserve(inline_docs.size());
      for (const InlineDocument& d : inline_docs) {
        docs.push_back(materialize(d));
      }
      return std::make_unique<core::OwnedVectorSource>(std::move(docs));
    }
    case Documents::kGenerator:
      return std::make_unique<core::GeneratorSource>(generator);
    case Documents::kShardFile: {
      auto blob = io::read_file(shard_file);
      if (!blob) {
        throw std::runtime_error("documents.shard_file: cannot read " +
                                 shard_file);
      }
      return std::make_unique<core::ShardSource>(*blob);
    }
  }
  throw SpecError("documents", "spec has no documents section");
}

}  // namespace adaparse::serve
