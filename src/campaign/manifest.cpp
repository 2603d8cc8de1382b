#include "campaign/manifest.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace adaparse::campaign {
namespace {

void apply_record(ManifestState& state, const util::JsonObject& obj) {
  const util::FieldReader record(obj, "manifest");
  const std::string& type = record.string_field("type");
  if (type == "plan") {
    PlanRecord plan;
    plan.docs = record.size_field("docs");
    plan.shard_docs = record.size_array_field("shard_docs");
    plan.fingerprint = record.string_field("fingerprint");
    state.plan = std::move(plan);
  } else if (type == "shard") {
    ShardRecord shard;
    shard.index = record.size_field("index");
    shard.attempt = record.size_field("attempt");
    shard.docs = record.size_field("docs");
    shard.bytes = record.size_field("bytes");
    shard.checksum = record.u64_field("checksum");
    shard.quarantined = record.size_field("quarantined");
    state.shards[shard.index] = std::move(shard);
  } else if (type == "quarantine") {
    QuarantineRecord q;
    q.shard = record.size_field("shard");
    q.doc_id = record.string_field("doc");
    state.quarantines.push_back(std::move(q));
  } else if (type == "final") {
    FinalRecord fin;
    fin.records = record.size_field("records");
    fin.checksum = record.u64_field("checksum");
    state.final_record = fin;
  } else {
    throw std::runtime_error("manifest: unknown record type '" + type + "'");
  }
}

util::JsonObject to_object(const PlanRecord& record) {
  util::JsonArray shard_docs;
  shard_docs.reserve(record.shard_docs.size());
  for (const std::size_t n : record.shard_docs) shard_docs.emplace_back(n);
  return {{"type", "plan"},
          {"docs", record.docs},
          {"shard_docs", util::Json(std::move(shard_docs))},
          {"fingerprint", record.fingerprint}};
}

util::JsonObject to_object(const ShardRecord& record) {
  return {{"type", "shard"},
          {"index", record.index},
          {"attempt", record.attempt},
          {"docs", record.docs},
          {"bytes", record.bytes},
          {"checksum", std::to_string(record.checksum)},
          {"quarantined", record.quarantined}};
}

util::JsonObject to_object(const QuarantineRecord& record) {
  return {{"type", "quarantine"},
          {"shard", record.shard},
          {"doc", record.doc_id}};
}

util::JsonObject to_object(const FinalRecord& record) {
  return {{"type", "final"},
          {"records", record.records},
          {"checksum", std::to_string(record.checksum)}};
}

}  // namespace

ManifestState load_manifest(const std::string& path) {
  const io::SealedLogContents log = io::load_sealed_log(path, "manifest");
  ManifestState state;
  for (const auto& record : log.records) apply_record(state, record);
  state.dropped_torn_tail = log.dropped_torn_tail;
  state.valid_prefix_bytes = log.valid_prefix_bytes;
  return state;
}

ManifestWriter::ManifestWriter(const std::string& path)
    : log_(path, "manifest") {}

void ManifestWriter::append(const PlanRecord& record) {
  log_.append(to_object(record));
}

void ManifestWriter::append(const ShardRecord& record) {
  log_.append(to_object(record));
}

void ManifestWriter::append(const QuarantineRecord& record) {
  log_.append(to_object(record));
}

void ManifestWriter::append(const FinalRecord& record) {
  log_.append(to_object(record));
}

void ManifestWriter::append_torn(const ShardRecord& record) {
  log_.append_torn(to_object(record));
}

}  // namespace adaparse::campaign
