#include "io/shard.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace adaparse::io {
namespace {

constexpr std::uint32_t kMagic = 0xADA90001;

char* put_u32(char* out, std::uint32_t v) {
  std::memcpy(out, &v, 4);
  return out + 4;
}

std::uint32_t get_u32(std::string_view s, std::size_t& pos) {
  if (pos + 4 > s.size()) {
    throw std::runtime_error("shard: truncated (u32)");
  }
  std::uint32_t v = 0;
  std::memcpy(&v, s.data() + pos, 4);
  pos += 4;
  return v;
}

std::string_view get_bytes(std::string_view s, std::size_t& pos,
                           std::size_t n) {
  if (pos + n > s.size()) {
    throw std::runtime_error("shard: truncated (bytes)");
  }
  const auto out = s.substr(pos, n);
  pos += n;
  return out;
}

/// Writes `s` as (count 1..255, byte) pairs at `out`, which must have room
/// for 2 * s.size() bytes; returns the end of what it wrote.
char* encode_runs(std::string_view s, char* out) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p < end) {
    const char c = *p;
    const char* const limit = p + std::min<std::ptrdiff_t>(255, end - p);
    const char* run_end = p + 1;
    while (run_end < limit && *run_end == c) ++run_end;
    *out++ = static_cast<char>(run_end - p);
    *out++ = c;
    p = run_end;
  }
  return out;
}

}  // namespace

std::string rle_encode(std::string_view s) {
  std::string out(2 * s.size(), '\0');
  out.resize(static_cast<std::size_t>(encode_runs(s, out.data()) - out.data()));
  return out;
}

std::string rle_decode(std::string_view s) {
  if (s.size() % 2 != 0) {
    throw std::runtime_error("rle: odd-length input");
  }
  // Size the output from the count bytes first, then fill it in one pass.
  std::size_t size = 0;
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const auto run = static_cast<unsigned char>(s[i]);
    if (run == 0) throw std::runtime_error("rle: zero run length");
    size += run;
  }
  std::string out(size, '\0');
  char* p = out.data();
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const auto run = static_cast<unsigned char>(s[i]);
    if (run == 1) {
      *p++ = s[i + 1];
    } else {
      std::memset(p, s[i + 1], run);
      p += run;
    }
  }
  return out;
}

void ShardWriter::add(std::string name, std::string payload) {
  payload_bytes_ += payload.size();
  entries_.push_back({std::move(name), std::move(payload)});
}

std::string ShardWriter::finish() const {
  // Size the blob for the worst case, every byte its own run, encode each
  // payload straight into it, and cut it to length at the end.
  std::size_t bound = 8;
  for (const auto& entry : entries_) {
    bound += 8 + entry.name.size() + 2 * entry.payload.size();
  }
  std::string out(bound, '\0');
  char* p = out.data();
  p = put_u32(p, kMagic);
  p = put_u32(p, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& entry : entries_) {
    p = put_u32(p, static_cast<std::uint32_t>(entry.name.size()));
    std::memcpy(p, entry.name.data(), entry.name.size());
    p += entry.name.size();
    char* const data = p + 4;
    char* const data_end = encode_runs(entry.payload, data);
    put_u32(p, static_cast<std::uint32_t>(data_end - data));
    p = data_end;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

ShardReader::ShardReader(std::string_view blob) {
  std::size_t pos = 0;
  if (get_u32(blob, pos) != kMagic) {
    throw std::runtime_error("shard: bad magic");
  }
  const std::uint32_t n = get_u32(blob, pos);
  // Every entry takes at least its two length fields: a count the blob
  // cannot hold is caught as truncation below, not reserved up front.
  entries_.reserve(std::min<std::size_t>(n, (blob.size() - pos) / 8));
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t name_len = get_u32(blob, pos);
    const auto name = get_bytes(blob, pos, name_len);
    const std::uint32_t data_len = get_u32(blob, pos);
    const auto encoded = get_bytes(blob, pos, data_len);
    entries_.push_back({std::string(name), rle_decode(encoded)});
  }
  if (pos != blob.size()) {
    throw std::runtime_error("shard: trailing bytes");
  }
}

std::optional<std::string_view> ShardReader::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return std::string_view(entry.payload);
  }
  return std::nullopt;
}

std::vector<std::pair<std::size_t, std::size_t>> plan_shards(
    const std::vector<std::size_t>& payload_sizes, std::size_t shard_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  std::size_t begin = 0, acc = 0;
  for (std::size_t i = 0; i < payload_sizes.size(); ++i) {
    if (acc > 0 && acc + payload_sizes[i] > shard_bytes) {
      shards.emplace_back(begin, i);
      begin = i;
      acc = 0;
    }
    acc += payload_sizes[i];
  }
  if (begin < payload_sizes.size()) {
    shards.emplace_back(begin, payload_sizes.size());
  }
  return shards;
}

}  // namespace adaparse::io
