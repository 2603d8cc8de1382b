// Write-ahead campaign manifest — the durable record of shard progress.
//
// A campaign directory contains one append-only `manifest.jsonl`, a
// CRC-sealed log in the format of io/sealed_log.hpp. A record commits when
// its newline is written: a resumed run drops a torn final line (cut off,
// unterminated, or failing its CRC) and treats the shard it was committing
// as uncommitted; reopening the writer cuts that tail off. A damaged line
// anywhere *before* the tail is real corruption and loading throws.
//
// Record types, in the order a campaign produces them:
//   plan        staging finished: shard sizes + engine fingerprint
//   quarantine  a poison document was removed from its shard
//   shard       a shard's output file is durable (the commit point)
//   final       the concatenated output.jsonl was assembled
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "io/sealed_log.hpp"

namespace adaparse::campaign {

/// Staging is complete: the corpus is packed into `shard_docs.size()`
/// shard files, shard i holding `shard_docs[i]` documents.
struct PlanRecord {
  std::size_t docs = 0;
  std::vector<std::size_t> shard_docs;
  /// Engine/config fingerprint; a resume with a different engine config
  /// would not reproduce the committed shards and is rejected.
  std::string fingerprint;
};

/// Shard `index` committed: its output file is in place with `checksum`
/// (FNV-1a over the output bytes). `attempt` is diagnostic only.
struct ShardRecord {
  std::size_t index = 0;
  std::size_t attempt = 0;
  std::size_t docs = 0;
  std::size_t bytes = 0;
  std::uint64_t checksum = 0;
  std::size_t quarantined = 0;  ///< quarantine records inside this shard
};

/// Document `doc_id` (living in shard `shard`) was quarantined after
/// repeated attempt failures; committed shards emit a deterministic
/// quarantine record in its place.
struct QuarantineRecord {
  std::size_t shard = 0;
  std::string doc_id;
};

/// The final output.jsonl was assembled from every committed shard.
struct FinalRecord {
  std::size_t records = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a over the whole output file
};

/// Everything a resumed run needs to know, replayed from the journal.
struct ManifestState {
  std::optional<PlanRecord> plan;
  std::map<std::size_t, ShardRecord> shards;  ///< committed, by index
  std::vector<QuarantineRecord> quarantines;
  std::optional<FinalRecord> final_record;
  /// True when the journal ended in a torn line (dropped). The shard that
  /// line was committing re-executes — its output is deterministic. A
  /// ManifestWriter opened on the file cuts it back to `valid_prefix_bytes`
  /// before its first append.
  bool dropped_torn_tail = false;
  /// Byte length of the journal's valid prefix (end of the last intact
  /// line, including its newline).
  std::size_t valid_prefix_bytes = 0;
};

/// Replays a manifest. A missing file yields an empty state; a torn final
/// line is dropped (see dropped_torn_tail); a malformed non-final line
/// throws std::runtime_error.
ManifestState load_manifest(const std::string& path);

/// Append-only journal writer. Not thread-safe; the runner serializes
/// appends under its state mutex. Each append flushes, so the line is in
/// the OS page cache before the commit is considered durable.
class ManifestWriter {
 public:
  /// Opens `path` for append, creating it if absent and cutting a torn tail
  /// off first.
  explicit ManifestWriter(const std::string& path);

  void append(const PlanRecord& record);
  void append(const ShardRecord& record);
  void append(const QuarantineRecord& record);
  void append(const FinalRecord& record);

  /// Failure-injection hook: writes only the first half of the shard
  /// record's line (no newline) — a torn write. The caller must treat the
  /// process as dead afterwards; load_manifest drops the torn tail.
  void append_torn(const ShardRecord& record);

 private:
  io::SealedLog log_;
};

}  // namespace adaparse::campaign
