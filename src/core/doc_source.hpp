// Streaming document sources — where the pipeline pulls its input from.
//
// The paper's engine never holds the corpus in memory: shards are staged
// into node-local storage and documents flow through the stages one at a
// time. DocumentSource abstracts that ingress so the same Pipeline drives
//   - an in-memory corpus           (VectorSource, zero-copy),
//   - a packed shard archive        (ShardSource, paper §6.1 staging), or
//   - a lazily generated stream     (GeneratorSource — corpora far larger
//                                    than RAM, one resident document at a
//                                    time on the producer side).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "doc/document.hpp"
#include "doc/generator.hpp"
#include "io/shard.hpp"

namespace adaparse::core {

/// Pull-based document stream. next() is called from exactly one thread
/// (the pipeline's prefetch stage), so implementations need no locking.
class DocumentSource {
 public:
  virtual ~DocumentSource() = default;

  /// Pulls the next document; nullptr = end of stream.
  virtual std::shared_ptr<const doc::Document> next() = 0;

  /// Total documents if known; 0 = unknown/unbounded (sizing hint only —
  /// the pipeline never relies on it).
  virtual std::size_t size_hint() const { return 0; }
};

/// Zero-copy view over an in-memory corpus. The vector must outlive every
/// pipeline run using this source (documents are aliased, not copied).
class VectorSource final : public DocumentSource {
 public:
  explicit VectorSource(const std::vector<doc::Document>& docs)
      : docs_(&docs) {}
  /// A temporary corpus would dangle before the first next().
  explicit VectorSource(const std::vector<doc::Document>&&) = delete;

  std::shared_ptr<const doc::Document> next() override {
    if (next_ >= docs_->size()) return nullptr;
    // Aliasing shared_ptr: no ownership, no copy.
    return std::shared_ptr<const doc::Document>(
        std::shared_ptr<const doc::Document>(), &(*docs_)[next_++]);
  }

  std::size_t size_hint() const override { return docs_->size(); }

 private:
  const std::vector<doc::Document>* docs_;
  std::size_t next_ = 0;
};

/// Owning variant of VectorSource for corpora materialized on behalf of a
/// caller who keeps nothing (e.g. documents parsed out of a wire request):
/// the source itself keeps the documents alive for the whole run.
class OwnedVectorSource final : public DocumentSource {
 public:
  explicit OwnedVectorSource(std::vector<doc::Document> docs)
      : docs_(std::move(docs)) {}

  std::shared_ptr<const doc::Document> next() override {
    if (next_ >= docs_.size()) return nullptr;
    // Aliasing shared_ptr into our own vector: valid because the pipeline
    // finishes (and drops every document reference) before the source dies.
    return std::shared_ptr<const doc::Document>(
        std::shared_ptr<const doc::Document>(), &docs_[next_++]);
  }

  std::size_t size_hint() const override { return docs_.size(); }

 private:
  std::vector<doc::Document> docs_;
  std::size_t next_ = 0;
};

/// Generates documents on demand from a CorpusGenerator — the "millions of
/// documents that don't fit in RAM" ingress: only the documents currently
/// in flight through the pipeline are resident.
class GeneratorSource final : public DocumentSource {
 public:
  explicit GeneratorSource(doc::GeneratorConfig config);

  std::shared_ptr<const doc::Document> next() override;
  std::size_t size_hint() const override { return count_; }

 private:
  doc::CorpusGenerator generator_;
  std::size_t count_;
  std::size_t next_ = 0;
};

/// Streams documents out of a packed shard archive (io::ShardReader over a
/// blob produced by io::pack_corpus_shard). Entries are decoded lazily,
/// one document per next() call.
class ShardSource final : public DocumentSource {
 public:
  /// Throws std::runtime_error on a malformed shard. The blob need not
  /// outlive the source.
  explicit ShardSource(std::string_view blob);

  std::shared_ptr<const doc::Document> next() override;
  std::size_t size_hint() const override { return reader_.count(); }

 private:
  io::ShardReader reader_;
  std::size_t next_ = 0;
};

}  // namespace adaparse::core
