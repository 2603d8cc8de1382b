#include "core/doc_source.hpp"

#include "io/doc_codec.hpp"
#include "util/json.hpp"

namespace adaparse::core {

GeneratorSource::GeneratorSource(doc::GeneratorConfig config)
    : generator_(config), count_(config.num_documents) {}

std::shared_ptr<const doc::Document> GeneratorSource::next() {
  if (next_ >= count_) return nullptr;
  return std::make_shared<const doc::Document>(
      generator_.generate_one(next_++));
}

ShardSource::ShardSource(std::string_view blob) : reader_(blob) {}

std::shared_ptr<const doc::Document> ShardSource::next() {
  if (next_ >= reader_.count()) return nullptr;
  const auto& entry = reader_.entries()[next_++];
  return std::make_shared<const doc::Document>(
      io::document_from_json(util::Json::parse(entry.payload)));
}

}  // namespace adaparse::core
