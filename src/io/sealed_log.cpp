#include "io/sealed_log.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "io/fsio.hpp"

namespace adaparse::io {
namespace {

std::string seal(util::JsonObject record) {
  const std::string body = util::Json(record).dump();
  record["crc"] = std::to_string(fnv1a(body));
  return util::Json(std::move(record)).dump();
}

/// Parses and CRC-checks one line (without its newline); nullopt when the
/// line is damaged, so the caller can apply the tail policy.
std::optional<util::JsonObject> open_line(std::string_view line) {
  util::Json parsed;
  try {
    parsed = util::Json::parse(line);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  if (!parsed.is_object()) return std::nullopt;
  util::JsonObject record = std::move(parsed.as_object());
  const auto crc_it = record.find("crc");
  if (crc_it == record.end() || !crc_it->second.is_string()) {
    return std::nullopt;
  }
  const auto crc = util::parse_u64(crc_it->second.as_string());
  record.erase(crc_it);
  if (!crc || *crc != fnv1a(util::Json(record).dump())) return std::nullopt;
  return record;
}

}  // namespace

SealedLogContents load_sealed_log(const std::string& path,
                                  const char* context) {
  SealedLogContents log;
  const auto bytes = read_file(path);
  if (!bytes) return log;

  std::string_view rest = *bytes;
  for (std::size_t line = 1; !rest.empty(); ++line) {
    const std::size_t end = rest.find('\n');
    std::optional<util::JsonObject> record;
    if (end != std::string_view::npos) record = open_line(rest.substr(0, end));
    if (!record) {
      if (end == std::string_view::npos || end + 1 == rest.size()) {
        // Torn tail: the process died mid-append. The record never
        // committed; whatever it described happens again or never did.
        log.dropped_torn_tail = true;
        break;
      }
      throw std::runtime_error(std::string(context) +
                               ": corrupt record at line " +
                               std::to_string(line) + " of " + path);
    }
    log.records.push_back(std::move(*record));
    log.valid_prefix_bytes += end + 1;
    rest.remove_prefix(end + 1);
  }
  return log;
}

SealedLog::SealedLog(const std::string& path, const char* context)
    : path_(path), context_(context) {
  const SealedLogContents log = load_sealed_log(path, context);
  if (log.dropped_torn_tail) {
    std::filesystem::resize_file(path, log.valid_prefix_bytes);
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error(std::string(context) + ": cannot open " + path);
  }
}

void SealedLog::append(util::JsonObject record) {
  const std::string line = seal(std::move(record));
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.put('\n');
  out_.flush();
  if (!out_) {
    throw std::runtime_error(std::string(context_) + ": append failed " +
                             path_);
  }
}

void SealedLog::append_torn(util::JsonObject record) {
  const std::string line = seal(std::move(record));
  out_.write(line.data(), static_cast<std::streamsize>(line.size() / 2));
  out_.flush();
}

}  // namespace adaparse::io
