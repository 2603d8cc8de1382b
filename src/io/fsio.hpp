// Small filesystem helpers for durable campaign state.
//
// The campaign runner journals progress to disk and must never leave a
// half-written shard or output file visible to a resumed run: every file
// is written to a temporary sibling and renamed into place (rename is
// atomic on POSIX filesystems). A file that cannot be opened reads as
// nullopt rather than an error, so callers can treat a missing file as
// "not yet produced".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace adaparse::io {

/// Reads a whole file into memory, to EOF; nullopt if it cannot be opened.
/// Throws std::runtime_error if it opens but a read fails (a directory).
std::optional<std::string> read_file(const std::string& path);

/// Writes `bytes` to `path` via a temporary sibling + rename, so a reader
/// (or a resumed run) never observes a partially written file. The temp
/// file is fsync'd before the rename and the parent directory after it, so
/// the rename is a durable commit point (not just an atomic one) — a power
/// cut can lose the whole write, never replace good bytes with bad. Throws
/// std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Total successful fsyncs issued by write_file_atomic since process
/// start — a test hook asserting the durability path is actually
/// exercised (each call syncs the temp file and its parent directory).
std::uint64_t fsync_count_for_testing();

/// FNV-1a over a byte string — the integrity checksum the campaign layer
/// records for shard outputs and manifest lines.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace adaparse::io
