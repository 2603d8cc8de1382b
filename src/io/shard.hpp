// Shard archives: many small documents packed into few large files.
//
// Paper §6.1: "we aggregate and chunk input files into a set of compressed
// ZIP archives and transfer them to node-local RAM storage" to avoid
// hammering Lustre with small-file I/O. This module implements that
// pattern as one length-prefixed blob per shard:
//
//   [magic u32][n u32] then n times [name_len u32][name][data_len u32][data]
//
// with every integer in host byte order and `data` the run-length pairs
// of the payload. No compression codec is shipped
// offline, so the pairs (count 1..255, byte) stand in for DEFLATE; they
// double plain text, which has few runs, so a shard is about twice its
// JSON. The I/O pattern — one large sequential file per shard — is what
// matters for the system. The format is pinned byte for byte by
// `Shard.PackedBenchmarkCorpusBytesArePinned`: shard files staged by an
// older build stay readable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adaparse::io {

/// One archived entry.
struct ShardEntry {
  std::string name;
  std::string payload;
};

/// Builds a shard in memory and serializes it to a single contiguous blob.
class ShardWriter {
 public:
  void add(std::string name, std::string payload);
  std::size_t count() const { return entries_.size(); }
  /// Total payload bytes added (pre-encoding).
  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Serializes every entry in the order added (format above).
  std::string finish() const;

 private:
  std::vector<ShardEntry> entries_;
  std::size_t payload_bytes_ = 0;
};

/// Reads a serialized shard; validates magic and lengths.
class ShardReader {
 public:
  /// Decodes every entry of `blob`, which need not outlive the reader.
  /// Throws std::runtime_error on malformed input.
  explicit ShardReader(std::string_view blob);

  std::size_t count() const { return entries_.size(); }
  const std::vector<ShardEntry>& entries() const { return entries_; }
  /// Looks an entry up by name.
  std::optional<std::string_view> find(std::string_view name) const;

 private:
  std::vector<ShardEntry> entries_;
};

/// Run-length encoding used as the stand-in "compression" codec.
std::string rle_encode(std::string_view s);
std::string rle_decode(std::string_view s);

/// Splits `names` into shards of at most `shard_bytes` payload each, greedy
/// in order; returns shard boundaries as index ranges [begin, end).
std::vector<std::pair<std::size_t, std::size_t>> plan_shards(
    const std::vector<std::size_t>& payload_sizes, std::size_t shard_bytes);

}  // namespace adaparse::io
