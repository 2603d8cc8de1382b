// Tests for the fault-tolerant campaign runner: write-ahead manifest
// round-trip and torn-tail policy, crash/resume byte-identical equivalence
// (killed after every shard boundary), per-document retry + poison
// quarantine, corrupt-shard re-staging, torn manifest commits, hedged
// stragglers, and the Prometheus stats surface.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "core/doc_source.hpp"
#include "core/training.hpp"
#include "doc/generator.hpp"
#include "io/fsio.hpp"
#include "io/jsonl.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/json.hpp"

namespace adaparse::campaign {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("adaparse_campaign_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// ----------------------------------------------------------- manifest ----

TEST(CampaignManifest, MissingFileYieldsEmptyState) {
  const auto state = load_manifest(fresh_dir("missing") + "/manifest.jsonl");
  EXPECT_FALSE(state.plan.has_value());
  EXPECT_TRUE(state.shards.empty());
  EXPECT_FALSE(state.dropped_torn_tail);
}

TEST(CampaignManifest, RoundTripsEveryRecordType) {
  const std::string dir = fresh_dir("roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  {
    ManifestWriter writer(path);
    PlanRecord plan;
    plan.docs = 7;
    plan.shard_docs = {4, 3};
    plan.fingerprint = "llm|alpha=0.1";
    writer.append(plan);
    QuarantineRecord q;
    q.shard = 1;
    q.doc_id = "doc-0042";
    writer.append(q);
    ShardRecord shard;
    shard.index = 1;
    shard.attempt = 2;
    shard.docs = 3;
    shard.bytes = 999;
    shard.checksum = 0xDEADBEEFCAFEF00DULL;  // checks 64-bit round-trip
    shard.quarantined = 1;
    writer.append(shard);
    FinalRecord fin;
    fin.records = 7;
    fin.checksum = 0xFFFFFFFFFFFFFFFFULL;
    writer.append(fin);
  }
  const auto state = load_manifest(path);
  ASSERT_TRUE(state.plan.has_value());
  EXPECT_EQ(state.plan->docs, 7u);
  EXPECT_EQ(state.plan->shard_docs, (std::vector<std::size_t>{4, 3}));
  EXPECT_EQ(state.plan->fingerprint, "llm|alpha=0.1");
  ASSERT_EQ(state.quarantines.size(), 1u);
  EXPECT_EQ(state.quarantines[0].doc_id, "doc-0042");
  ASSERT_EQ(state.shards.count(1), 1u);
  EXPECT_EQ(state.shards.at(1).attempt, 2u);
  EXPECT_EQ(state.shards.at(1).checksum, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(state.shards.at(1).quarantined, 1u);
  ASSERT_TRUE(state.final_record.has_value());
  EXPECT_EQ(state.final_record->records, 7u);
  EXPECT_EQ(state.final_record->checksum, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_FALSE(state.dropped_torn_tail);
}

TEST(CampaignManifest, TornTailIsDroppedNotFatal) {
  const std::string dir = fresh_dir("torn_tail");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  ShardRecord committed;
  committed.index = 0;
  ShardRecord torn;
  torn.index = 1;
  {
    ManifestWriter writer(path);
    writer.append(committed);
    writer.append_torn(torn);
  }
  const auto state = load_manifest(path);
  EXPECT_TRUE(state.dropped_torn_tail);
  EXPECT_EQ(state.shards.size(), 1u);
  EXPECT_EQ(state.shards.count(0), 1u);
  EXPECT_EQ(state.shards.count(1), 0u);  // the torn commit never happened
}

TEST(CampaignManifest, CorruptNonFinalLineThrows) {
  const std::string dir = fresh_dir("corrupt_middle");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  ShardRecord a;
  a.index = 0;
  ShardRecord b;
  b.index = 1;
  {
    ManifestWriter writer(path);
    writer.append(a);
    writer.append(b);
  }
  // Splice a garbage line *between* the two valid records: mid-journal
  // damage is real corruption, not a recoverable torn tail.
  auto bytes = io::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  const auto first_newline = bytes->find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  bytes->insert(first_newline + 1, "{\"type\":\"shar\n");
  io::write_file_atomic(path, *bytes);
  EXPECT_THROW(load_manifest(path), std::runtime_error);
}

TEST(CampaignManifest, FlippedByteFailsCrc) {
  const std::string dir = fresh_dir("crc");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  ShardRecord a;
  a.index = 0;
  a.docs = 5;
  ShardRecord b;
  b.index = 1;
  {
    ManifestWriter writer(path);
    writer.append(a);
    writer.append(b);
  }
  auto bytes = io::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  // Flip a digit inside the first line's payload; the JSON still parses
  // but the CRC no longer matches → corruption, not a torn tail.
  const auto pos = bytes->find("\"docs\":5");
  ASSERT_NE(pos, std::string::npos);
  (*bytes)[pos + 7] = '6';
  io::write_file_atomic(path, *bytes);
  EXPECT_THROW(load_manifest(path), std::runtime_error);
}

TEST(CampaignManifest, EmptyFileYieldsEmptyStateNotTornTail) {
  const std::string dir = fresh_dir("empty_file");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  std::ofstream(path).close();  // zero bytes: created, never written
  const auto state = load_manifest(path);
  EXPECT_FALSE(state.plan.has_value());
  EXPECT_TRUE(state.shards.empty());
  EXPECT_FALSE(state.dropped_torn_tail);
  EXPECT_EQ(state.valid_prefix_bytes, 0u);
}

TEST(CampaignManifest, FileEndingExactlyAtRecordBoundaryIsFullyValid) {
  const std::string dir = fresh_dir("exact_boundary");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  {
    ManifestWriter writer(path);
    PlanRecord plan;
    plan.docs = 4;
    plan.shard_docs = {4};
    plan.fingerprint = "f";
    writer.append(plan);
    ShardRecord shard;
    shard.index = 0;
    writer.append(shard);
  }
  // A journal whose last byte is the final record's newline is the normal
  // clean-shutdown shape: nothing must be dropped, and the valid prefix
  // must span the whole file (a resume truncates to this offset before
  // appending — an off-by-one would eat the last record).
  const auto state = load_manifest(path);
  EXPECT_FALSE(state.dropped_torn_tail);
  EXPECT_EQ(state.shards.size(), 1u);
  EXPECT_EQ(state.valid_prefix_bytes, fs::file_size(path));
}

TEST(CampaignManifest, DuplicateShardCommitReplaysIdempotently) {
  const std::string dir = fresh_dir("dup_commit");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  {
    ManifestWriter writer(path);
    ShardRecord first;
    first.index = 2;
    first.attempt = 0;
    first.checksum = 0x1111;
    writer.append(first);
    // The same shard committed again (e.g. a resume re-executed it after
    // its output file was damaged): replay must be idempotent — one entry,
    // last record wins.
    ShardRecord again;
    again.index = 2;
    again.attempt = 3;
    again.checksum = 0x2222;
    writer.append(again);
  }
  const auto state = load_manifest(path);
  EXPECT_EQ(state.shards.size(), 1u);
  ASSERT_EQ(state.shards.count(2), 1u);
  EXPECT_EQ(state.shards.at(2).attempt, 3u);
  EXPECT_EQ(state.shards.at(2).checksum, 0x2222u);
}

TEST(CampaignManifest, UnterminatedLastRecordIsCutBeforeTheNextAppend) {
  const std::string dir = fresh_dir("unterminated");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  ShardRecord first;
  first.index = 0;
  ShardRecord lost;
  lost.index = 1;
  {
    ManifestWriter writer(path);
    writer.append(first);
    writer.append(lost);
  }
  // The last record is intact but its newline never landed: the newline is
  // the commit point, so the record is a torn tail even though it parses.
  fs::resize_file(path, fs::file_size(path) - 1);
  const auto torn = load_manifest(path);
  EXPECT_TRUE(torn.dropped_torn_tail);
  EXPECT_EQ(torn.shards.size(), 1u);

  ShardRecord next;
  next.index = 2;
  {
    ManifestWriter writer(path);  // must cut the fragment before appending
    writer.append(next);
  }
  const auto state = load_manifest(path);
  EXPECT_FALSE(state.dropped_torn_tail);
  EXPECT_EQ(state.shards.size(), 2u);
  EXPECT_EQ(state.shards.count(0), 1u);
  EXPECT_EQ(state.shards.count(2), 1u);
  EXPECT_EQ(state.valid_prefix_bytes, fs::file_size(path));
}

/// One manifest line sealed the way the format defines it: the crc field is
/// the decimal FNV-1a of the object's dump without it.
std::string sealed_line(util::JsonObject obj) {
  obj["crc"] = std::to_string(io::fnv1a(util::Json(obj).dump()));
  return util::Json(std::move(obj)).dump() + "\n";
}

TEST(CampaignManifest, CrcValidRecordWithBadFieldsThrowsRuntimeError) {
  const std::string dir = fresh_dir("bad_fields");
  fs::create_directories(dir);
  const std::string path = dir + "/manifest.jsonl";
  util::JsonObject shard;
  shard["type"] = "shard";
  shard["index"] = 0;
  shard["attempt"] = 0;
  shard["docs"] = 4;
  shard["bytes"] = 10;
  shard["checksum"] = "17";
  shard["quarantined"] = 0;
  io::write_file_atomic(path, sealed_line(shard));
  ASSERT_EQ(load_manifest(path).shards.size(), 1u);

  std::vector<util::JsonObject> bad;
  for (const char* key : {"type", "index", "checksum", "quarantined"}) {
    bad.push_back(shard);
    bad.back().erase(key);  // missing
  }
  bad.push_back(shard);
  bad.back()["docs"] = "4";  // mistyped
  bad.push_back(shard);
  bad.back()["index"] = -1;  // negative size
  bad.push_back(shard);
  bad.back()["bytes"] = 1e300;  // beyond any size
  bad.push_back(shard);
  bad.back()["checksum"] = "18446744073709551616";  // u64 overflow
  bad.push_back(shard);
  bad.back()["checksum"] = "12a";
  for (const auto& obj : bad) {
    io::write_file_atomic(path, sealed_line(obj));
    EXPECT_THROW(load_manifest(path), std::runtime_error)
        << util::Json(obj).dump();
  }
}

// ------------------------------------------------------------- runner ----

/// Trains one small bundle per process (each ctest case is its own
/// process) and shares one 96-document corpus across cases.
class CampaignFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto train_docs =
        doc::CorpusGenerator(doc::benchmark_config(160, 404)).generate();
    core::TrainAdaParseOptions options;
    options.engine.threads = 4;
    options.engine.alpha = 0.10;
    options.engine.batch_size = 32;
    options.regression.epochs = 6;
    options.apply_dpo = false;
    bundle_ = new core::TrainedAdaParse(
        core::train_adaparse(train_docs, nullptr, nullptr, options));
    auto config = doc::benchmark_config(96, 1313);
    config.corrupted_fraction = 0.05;  // unreadable docs flow through too
    docs_ = new std::vector<doc::Document>(
        doc::CorpusGenerator(config).generate());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete docs_;
    bundle_ = nullptr;
    docs_ = nullptr;
  }

  static CampaignRunner::SourceFactory source() {
    return [] { return std::make_unique<core::VectorSource>(*docs_); };
  }

  static CampaignConfig base_config(const std::string& name) {
    CampaignConfig config;
    config.dir = fresh_dir(name);
    config.docs_per_shard = 24;  // 96 docs -> 4 shards
    config.workers = 2;
    config.extract_workers = 2;
    config.upgrade_workers = 1;
    config.queue_capacity = 8;
    return config;
  }

  static std::string output_bytes(const CampaignRunner& runner) {
    const auto bytes = io::read_file(runner.output_path());
    EXPECT_TRUE(bytes.has_value()) << runner.output_path();
    return bytes.value_or("");
  }

  /// Uninterrupted, fault-free reference output (computed once per case
  /// that needs it; campaigns are deterministic so this is canonical).
  /// The directory is per-process: ctest runs cases as concurrent
  /// processes, and a shared reference dir would race its own remove_all.
  static const std::string& reference_bytes() {
    static std::string cached = [] {
      CampaignRunner runner(
          *bundle_->llm,
          base_config("reference_" + std::to_string(::getpid())));
      const auto stats = runner.run(source());
      EXPECT_TRUE(stats.completed);
      return output_bytes(runner);
    }();
    return cached;
  }

  static core::TrainedAdaParse* bundle_;
  static std::vector<doc::Document>* docs_;
};

core::TrainedAdaParse* CampaignFixture::bundle_ = nullptr;
std::vector<doc::Document>* CampaignFixture::docs_ = nullptr;

TEST_F(CampaignFixture, CleanRunCompletesAndCommitsEveryShard) {
  CampaignRunner runner(*bundle_->llm, base_config("clean"));
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.halted);
  EXPECT_EQ(stats.shards_total, 4u);
  EXPECT_EQ(stats.shards_committed, 4u);
  EXPECT_EQ(stats.attempts_failed, 0u);
  EXPECT_EQ(stats.docs_processed, 96u);
  EXPECT_EQ(stats.docs_quarantined, 0u);
  const std::string bytes = output_bytes(runner);
  EXPECT_EQ(bytes, reference_bytes());
  // One JSONL record per input document.
  std::istringstream is(bytes);
  EXPECT_EQ(io::read_jsonl(is).size(), 96u);
  // The journal replays to a fully committed campaign.
  const auto state = load_manifest(runner.manifest_path());
  ASSERT_TRUE(state.plan.has_value());
  EXPECT_EQ(state.shards.size(), 4u);
  ASSERT_TRUE(state.final_record.has_value());
  EXPECT_EQ(state.final_record->records, 96u);
}

TEST_F(CampaignFixture, MatchesStandaloneEngineRunWhenShardsAlignWithBatches) {
  auto config = base_config("engine_equiv");
  config.docs_per_shard = 32;  // == batch_size: budget windows align
  CampaignRunner runner(*bundle_->llm, config);
  ASSERT_TRUE(runner.run(source()).completed);
  std::istringstream is(output_bytes(runner));
  const auto campaign_records = io::read_jsonl(is);
  const auto standalone = bundle_->llm->run(*docs_);
  ASSERT_EQ(campaign_records.size(), standalone.records.size());
  for (std::size_t i = 0; i < campaign_records.size(); ++i) {
    EXPECT_EQ(campaign_records[i].to_json().dump(),
              standalone.records[i].to_json().dump())
        << "record " << i << " diverged";
  }
}

TEST_F(CampaignFixture, EmptyCorpusCompletesWithEmptyOutput) {
  static const std::vector<doc::Document> empty;
  auto config = base_config("empty");
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(
      [] { return std::make_unique<core::VectorSource>(empty); });
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shards_total, 0u);
  EXPECT_EQ(output_bytes(runner), "");
}

/// The acceptance-criteria scenario: kill the runner after every shard
/// boundary, resume, and require byte-identical final output.
class CampaignCrashResume : public CampaignFixture,
                            public ::testing::WithParamInterface<std::size_t> {
};

TEST_P(CampaignCrashResume, ResumedOutputIsByteIdentical) {
  const std::size_t kill_after = GetParam();
  auto config = base_config("kill_" + std::to_string(kill_after));
  config.failures.halt_after_commits = kill_after;
  CampaignRunner first(*bundle_->llm, config);
  const auto halted = first.run(source());
  EXPECT_TRUE(halted.halted);
  EXPECT_FALSE(halted.completed);
  EXPECT_EQ(halted.shards_committed, kill_after);
  EXPECT_FALSE(fs::exists(first.output_path()));

  auto resume_config = config;
  resume_config.failures = FailurePlan{};  // the "new process" sees no kill
  CampaignRunner second(*bundle_->llm, resume_config);
  const auto resumed = second.run(source());
  EXPECT_TRUE(resumed.completed);
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(resumed.shards_resumed_skip, kill_after);
  EXPECT_EQ(resumed.shards_committed, 4u);
  EXPECT_EQ(output_bytes(second), reference_bytes());
}

INSTANTIATE_TEST_SUITE_P(EveryShardBoundary, CampaignCrashResume,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_F(CampaignFixture, WorkerCrashMidShardRetriesAndRecovers) {
  auto config = base_config("crash_retry");
  config.failures.crashes = {{/*shard=*/2, /*attempt=*/0, /*after_docs=*/5},
                             {/*shard=*/2, /*attempt=*/1, /*after_docs=*/5}};
  config.max_shard_attempts = 5;  // retries well before quarantine kicks in
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.attempts_failed, 2u);
  EXPECT_GE(stats.shards_retried, 2u);
  EXPECT_EQ(stats.docs_quarantined, 0u);
  EXPECT_GT(stats.recovery_wall_seconds, 0.0);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_F(CampaignFixture, PoisonDocumentIsQuarantinedDeterministically) {
  const std::string poison_id = (*docs_)[30].id;  // lives in shard 1
  auto config = base_config("poison");
  config.failures.poison_docs = {poison_id};
  config.max_shard_attempts = 2;
  config.workers = 1;  // deterministic attempt interleaving
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.docs_quarantined, 1u);
  EXPECT_EQ(stats.attempts_failed, 2u);

  // The output still has one record per document; the poison document's is
  // the deterministic quarantine stand-in. Every shard *other* than the
  // poisoned one matches the fault-free reference byte for byte (inside
  // shard 1 the quarantine changes the routing windows for its neighbors,
  // so their records legitimately differ).
  std::istringstream is(output_bytes(runner));
  const auto records = io::read_jsonl(is);
  std::istringstream ref_is(reference_bytes());
  const auto reference = io::read_jsonl(ref_is);
  ASSERT_EQ(records.size(), reference.size());
  std::size_t quarantined_seen = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bool in_poisoned_shard = i >= 24 && i < 48;  // shard 1 = docs 24-47
    if (records[i].document_id == poison_id) {
      EXPECT_EQ(records[i].parser, "quarantined");
      EXPECT_EQ(records[i].route, "campaign:quarantined");
      ++quarantined_seen;
    } else if (!in_poisoned_shard) {
      EXPECT_EQ(records[i].to_json().dump(), reference[i].to_json().dump());
    } else {
      EXPECT_EQ(records[i].document_id, reference[i].document_id);
    }
  }
  EXPECT_EQ(quarantined_seen, 1u);

  // The quarantine decision is journaled: a rerun of the same plan in a
  // fresh directory produces byte-identical output.
  auto again = config;
  again.dir = fresh_dir("poison_again");
  CampaignRunner rerun(*bundle_->llm, again);
  ASSERT_TRUE(rerun.run(source()).completed);
  EXPECT_EQ(output_bytes(rerun), output_bytes(runner));
}

TEST_F(CampaignFixture, KillDuringPoisonRecoveryResumesIdentically) {
  const std::string poison_id = (*docs_)[30].id;
  auto config = base_config("poison_kill");
  config.failures.poison_docs = {poison_id};
  config.failures.halt_after_commits = 2;
  config.max_shard_attempts = 2;
  config.workers = 1;
  CampaignRunner first(*bundle_->llm, config);
  EXPECT_TRUE(first.run(source()).halted);

  auto resume = config;
  resume.failures.halt_after_commits.reset();  // poison persists; kill not
  CampaignRunner second(*bundle_->llm, resume);
  EXPECT_TRUE(second.run(source()).completed);

  auto uninterrupted = config;
  uninterrupted.dir = fresh_dir("poison_uninterrupted");
  uninterrupted.failures.halt_after_commits.reset();
  CampaignRunner full(*bundle_->llm, uninterrupted);
  EXPECT_TRUE(full.run(source()).completed);
  EXPECT_EQ(output_bytes(second), output_bytes(full));
}

TEST_F(CampaignFixture, CorruptShardFileIsRestagedFromSource) {
  auto config = base_config("corrupt_shard");
  config.failures.corrupt_shards = {1};
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.corrupt_shard_recoveries, 1u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_F(CampaignFixture, CorruptRunLengthCountIsRestagedFromSource) {
  // One count byte 1 -> 2 turns the key "id" into "iid": the shard still
  // frames and parses, and only the document decoder can tell.
  auto config = base_config("corrupt_count");
  config.workers = 1;  // shard 0 commits first, shard 1 stays pending
  config.failures.halt_after_commits = 1;
  CampaignRunner first(*bundle_->llm, config);
  ASSERT_TRUE(first.run(source()).halted);

  const std::string path = first.shard_path(1);
  std::string blob = io::read_file(path).value_or("");
  // Keys are written in sorted order, so "id" sits mid-object: find its
  // pairs, (1,'"') (1,'i') (1,'d') (1,'"') (1,':'), in the first entry.
  const std::string key_pairs("\x01\"\x01i\x01" "d\x01\"\x01:", 10);
  const std::size_t at = blob.find(key_pairs);
  ASSERT_NE(at, std::string::npos);
  blob[at + 2] = '\x02';
  io::write_file_atomic(path, blob);

  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(*bundle_->llm, resume);
  const auto stats = second.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.corrupt_shard_recoveries, 1u);
  EXPECT_EQ(output_bytes(second), reference_bytes());
}

TEST_F(CampaignFixture, ExceptionInAnAttemptPropagatesOutOfRun) {
  // Shard 1 is corrupt at rest and the source shrinks after staging, so
  // re-staging throws inside the attempt. That error must leave run() with
  // its own message — a retry would only hit it again, so it must not turn
  // into a worker respawn loop.
  static const std::vector<doc::Document> empty;
  auto config = base_config("attempt_throws");
  config.failures.corrupt_shards = {1};
  auto calls = std::make_shared<std::atomic<int>>(0);
  CampaignRunner runner(*bundle_->llm, config);
  try {
    runner.run([calls]() -> std::unique_ptr<core::DocumentSource> {
      if (calls->fetch_add(1) == 0) {
        return std::make_unique<core::VectorSource>(*docs_);
      }
      return std::make_unique<core::VectorSource>(empty);
    });
    FAIL() << "run() returned instead of throwing";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("source shrank"), std::string::npos)
        << e.what();
  }
}

TEST_F(CampaignFixture, TornManifestCommitIsRedoneOnResume) {
  auto config = base_config("torn");
  config.failures.torn_manifest_shards = {0};
  config.workers = 1;  // shard 0 commits first, deterministically
  CampaignRunner first(*bundle_->llm, config);
  const auto halted = first.run(source());
  EXPECT_TRUE(halted.halted);

  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(*bundle_->llm, resume);
  const auto resumed = second.run(source());
  EXPECT_TRUE(resumed.completed);
  EXPECT_TRUE(resumed.recovered_torn_manifest);
  EXPECT_EQ(resumed.shards_resumed_skip, 0u);  // the torn commit didn't count
  EXPECT_EQ(output_bytes(second), reference_bytes());

  // The resume truncated the torn fragment before appending, so the
  // journal stays loadable: a third run replays it cleanly and has
  // nothing left to execute.
  CampaignRunner third(*bundle_->llm, resume);
  const auto replay = third.run(source());
  EXPECT_TRUE(replay.completed);
  EXPECT_FALSE(replay.recovered_torn_manifest);
  EXPECT_EQ(replay.attempts_started, 0u);
  EXPECT_EQ(output_bytes(third), reference_bytes());
}

TEST_F(CampaignFixture, CorruptCommittedOutputIsReExecutedOnResume) {
  auto config = base_config("corrupt_out");
  config.failures.halt_after_commits = 2;
  CampaignRunner first(*bundle_->llm, config);
  EXPECT_TRUE(first.run(source()).halted);
  // Damage one committed shard output while the campaign is "down".
  const auto state = load_manifest(first.manifest_path());
  ASSERT_FALSE(state.shards.empty());
  const std::size_t victim = state.shards.begin()->first;
  io::write_file_atomic(first.shard_output_path(victim), "garbage\n");

  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(*bundle_->llm, resume);
  const auto resumed = second.run(source());
  EXPECT_TRUE(resumed.completed);
  EXPECT_GE(resumed.corrupt_output_recoveries, 1u);
  EXPECT_EQ(output_bytes(second), reference_bytes());
}

TEST_F(CampaignFixture, StragglerShardIsHedged) {
  auto config = base_config("straggler");
  config.failures.stragglers = {
      {/*shard=*/3, /*first_attempts=*/1,
       /*per_doc_delay=*/std::chrono::milliseconds(150)}};
  // Hedge on runtime alone so the test is robust to sanitizer slowdowns.
  config.hedge_factor = 1e-6;
  config.hedge_min_runtime = std::chrono::milliseconds(100);
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.hedges_launched, 1u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_F(CampaignFixture, ResumeWithDifferentEngineConfigIsRejected) {
  auto config = base_config("fingerprint");
  config.failures.halt_after_commits = 1;
  CampaignRunner first(*bundle_->llm, config);
  EXPECT_TRUE(first.run(source()).halted);

  core::EngineConfig other = bundle_->llm->config();
  other.alpha = 0.25;  // committed shards would not be reproducible
  const core::AdaParseEngine reconfigured(other, bundle_->predictor,
                                          bundle_->improver);
  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(reconfigured, resume);
  EXPECT_THROW(second.run(source()), std::runtime_error);
}

TEST_F(CampaignFixture, ResumeWithRetrainedModelIsRejected) {
  auto config = base_config("model_fingerprint");
  config.failures.halt_after_commits = 1;
  CampaignRunner first(*bundle_->llm, config);
  EXPECT_TRUE(first.run(source()).halted);

  // Identical EngineConfig, different training corpus — different weights
  // would produce different records for the remaining shards, silently
  // mixing two models' outputs. The fingerprint's model digest rejects it.
  const auto other_train =
      doc::CorpusGenerator(doc::benchmark_config(160, 909)).generate();
  core::TrainAdaParseOptions options;
  options.engine.threads = 4;
  options.engine.alpha = 0.10;
  options.engine.batch_size = 32;
  options.regression.epochs = 6;
  options.apply_dpo = false;
  const auto retrained =
      core::train_adaparse(other_train, nullptr, nullptr, options);
  ASSERT_NE(retrained.llm->model_digest(), bundle_->llm->model_digest());
  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(*retrained.llm, resume);
  EXPECT_THROW(second.run(source()), std::runtime_error);
}

TEST_F(CampaignFixture, RunIsIdempotentAfterCompletion) {
  auto config = base_config("idempotent");
  CampaignRunner runner(*bundle_->llm, config);
  ASSERT_TRUE(runner.run(source()).completed);
  const std::string bytes = output_bytes(runner);
  const auto again = runner.run(source());  // nothing left to execute
  EXPECT_TRUE(again.completed);
  EXPECT_EQ(again.shards_resumed_skip, 4u);
  EXPECT_EQ(again.attempts_started, 0u);
  EXPECT_EQ(output_bytes(runner), bytes);
}

// ------------------------------------------------- multi-process runner ----

TEST_F(CampaignFixture, MultiProcessCleanRunMatchesInProcessByteForByte) {
  auto config = base_config("mp_clean");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shards_committed, 4u);
  EXPECT_EQ(stats.docs_processed, 96u);
  EXPECT_GE(stats.workers_spawned, 1u);
  EXPECT_EQ(stats.workers_died, 0u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
  const std::string text = render_prometheus(stats);
  EXPECT_NE(text.find("adaparse_campaign_workers_spawned"), std::string::npos);
  EXPECT_NE(text.find("adaparse_campaign_shards_stolen"), std::string::npos);
}

/// The tentpole acceptance scenario, parameterized over every shard: a
/// worker process is killed with a real SIGKILL mid-shard (no unwinding,
/// no flushing — the kernel reaps it), the coordinator detects the death
/// via waitpid, requeues its shards, and the campaign still produces
/// byte-identical output; and a run halted at every shard boundary resumes
/// byte-identically in multi-process mode.
class CampaignRealKill : public CampaignFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(CampaignRealKill, SigkilledWorkerIsRecoveredByteIdentically) {
  const std::size_t shard = GetParam();
  auto config = base_config("mp_kill_" + std::to_string(shard));
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  // Attempt 0 of the target shard SIGKILLs its worker process after 12 of
  // 24 records — a genuine kill -9, not a simulated failure.
  config.failures.crashes = {{shard, /*attempt=*/0, /*after_docs=*/12}};
  config.max_shard_attempts = 5;  // a single death must not quarantine
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.workers_spawned, 2u);  // at least one respawn
  EXPECT_EQ(stats.docs_quarantined, 0u);
  EXPECT_GE(stats.recovery_latency_seconds.size(), 1u);
  EXPECT_GT(stats.recovery_wall_seconds, 0.0);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_P(CampaignRealKill, HaltAtEveryShardBoundaryResumesByteIdentically) {
  const std::size_t halt_after = GetParam() + 1;  // 1..4 commits
  auto config = base_config("mp_halt_" + std::to_string(halt_after));
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.failures.halt_after_commits = halt_after;
  CampaignRunner first(*bundle_->llm, config);
  const auto halted = first.run(source());
  EXPECT_TRUE(halted.halted);
  EXPECT_FALSE(halted.completed);
  EXPECT_EQ(halted.shards_committed, halt_after);
  EXPECT_FALSE(fs::exists(first.output_path()));

  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(*bundle_->llm, resume);
  const auto resumed = second.run(source());
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.shards_resumed_skip, halt_after);
  EXPECT_EQ(output_bytes(second), reference_bytes());
}

INSTANTIATE_TEST_SUITE_P(EveryShard, CampaignRealKill,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST_F(CampaignFixture, MultiProcessPoisonQuarantineMatchesInProcess) {
  const std::string poison_id = (*docs_)[30].id;  // lives in shard 1
  auto config = base_config("mp_poison");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.failures.poison_docs = {poison_id};
  config.max_shard_attempts = 2;
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.docs_quarantined, 1u);

  // The quarantine decision flows over the wire (failed_doc_id in the
  // result frame) but must land on the same document and produce the same
  // bytes as the in-process run of the identical failure plan.
  auto in_process = base_config("mp_poison_inproc");
  in_process.failures.poison_docs = {poison_id};
  in_process.max_shard_attempts = 2;
  in_process.workers = 1;
  CampaignRunner twin(*bundle_->llm, in_process);
  ASSERT_TRUE(twin.run(source()).completed);
  EXPECT_EQ(output_bytes(runner), output_bytes(twin));
}

TEST_F(CampaignFixture, MultiProcessRepeatedDeathsQuarantineTheSuspect) {
  // Attempts 0 and 1 of shard 1 both SIGKILL their worker after 7 records:
  // with max_shard_attempts=2 the coordinator must quarantine the first
  // unemitted document — identified purely from heartbeat progress, since
  // a SIGKILLed process reports nothing. The in-process run of the same
  // plan (where the crash is simulated and the failed document reported
  // directly) is the ground truth: byte-identical output proves the
  // heartbeat-derived suspect matches.
  auto config = base_config("mp_crashq");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.failures.crashes = {{/*shard=*/1, /*attempt=*/0, /*after_docs=*/7},
                             {/*shard=*/1, /*attempt=*/1, /*after_docs=*/7}};
  config.max_shard_attempts = 2;
  // Stealing or hedging would renumber shard 1's attempts and dodge the
  // scripted crashes; keep queues shallow and hedging off so attempts 0
  // and 1 are exactly the two that die.
  config.worker_queue_depth = 1;
  config.hedge_factor = 0.0;
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.workers_died, 2u);
  EXPECT_EQ(stats.docs_quarantined, 1u);

  auto in_process = base_config("mp_crashq_inproc");
  in_process.failures = config.failures;
  in_process.max_shard_attempts = 2;
  in_process.workers = 1;
  CampaignRunner twin(*bundle_->llm, in_process);
  const auto twin_stats = twin.run(source());
  ASSERT_TRUE(twin_stats.completed);
  EXPECT_EQ(twin_stats.docs_quarantined, 1u);
  EXPECT_EQ(output_bytes(runner), output_bytes(twin));
}

TEST_F(CampaignFixture, MultiProcessIdleWorkerStealsQueuedShards) {
  auto config = base_config("mp_steal");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.docs_per_shard = 12;  // 96 docs -> 8 shards
  config.worker_queue_depth = 4;  // both workers pre-loaded with 4 shards
  // Whoever draws shard 0 crawls (100ms per record); the other worker
  // drains its own queue and must steal the victim's queued shards.
  config.failures.stragglers = {
      {/*shard=*/0, /*first_attempts=*/1,
       /*per_doc_delay=*/std::chrono::milliseconds(100)}};
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.shards_stolen, 1u);

  // Stolen work produces the same bytes it would have on the victim.
  auto in_process = base_config("mp_steal_inproc");
  in_process.docs_per_shard = 12;
  CampaignRunner twin(*bundle_->llm, in_process);
  ASSERT_TRUE(twin.run(source()).completed);
  EXPECT_EQ(output_bytes(runner), output_bytes(twin));
}

TEST_F(CampaignFixture, MultiProcessHungWorkerIsKilledByHeartbeatTimeout) {
  auto config = base_config("mp_hung");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  // The worker running shard 1 goes comatose between records (15s per
  // document against a 4s heartbeat timeout). waitpid sees nothing — the
  // process is alive — so only the missed-heartbeat path can save the
  // campaign: SIGKILL the zombie-in-spirit, requeue, respawn. The wide
  // margin matters: healthy workers' inter-record gaps grow ~15x under
  // TSan, and a timeout they can miss turns this test into a kill loop.
  config.failures.stragglers = {
      {/*shard=*/1, /*first_attempts=*/1,
       /*per_doc_delay=*/std::chrono::milliseconds(15000)}};
  config.heartbeat_timeout = std::chrono::milliseconds(4000);
  config.hedge_factor = 0.0;  // isolate the timeout path from hedging
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.workers_killed, 1u);
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_F(CampaignFixture, MultiProcessStragglerIsHedged) {
  auto config = base_config("mp_hedge");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.worker_queue_depth = 1;  // nothing queued to steal: hedging only
  config.failures.stragglers = {
      {/*shard=*/3, /*first_attempts=*/1,
       /*per_doc_delay=*/std::chrono::milliseconds(150)}};
  config.hedge_factor = 1e-6;
  config.hedge_min_runtime = std::chrono::milliseconds(100);
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.hedges_launched, 1u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_F(CampaignFixture, MultiProcessTornManifestCommitIsRedoneOnResume) {
  auto config = base_config("mp_torn");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.failures.torn_manifest_shards = {0};
  config.workers = 1;  // shard 0 commits first, deterministically
  CampaignRunner first(*bundle_->llm, config);
  EXPECT_TRUE(first.run(source()).halted);

  auto resume = config;
  resume.failures = FailurePlan{};
  CampaignRunner second(*bundle_->llm, resume);
  const auto resumed = second.run(source());
  EXPECT_TRUE(resumed.completed);
  EXPECT_TRUE(resumed.recovered_torn_manifest);
  EXPECT_EQ(resumed.shards_resumed_skip, 0u);  // the torn commit didn't count
  EXPECT_EQ(output_bytes(second), reference_bytes());
}

TEST_F(CampaignFixture, MultiProcessCorruptShardIsRestagedInsideTheWorker) {
  auto config = base_config("mp_corrupt_shard");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.failures.corrupt_shards = {1};
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());
  EXPECT_TRUE(stats.completed);
  EXPECT_GE(stats.corrupt_shard_recoveries, 1u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());
}

TEST_F(CampaignFixture, CampaignResumesAcrossExecutionModes) {
  // The two modes share the shard plan, manifest, and commit protocol —
  // so a campaign killed under one mode must resume under the other with
  // byte-identical final output (the engine fingerprint deliberately
  // excludes the execution mode).
  auto config = base_config("cross_mode");
  config.failures.halt_after_commits = 2;
  CampaignRunner first(*bundle_->llm, config);  // in-process, killed
  EXPECT_TRUE(first.run(source()).halted);

  auto mp_resume = config;
  mp_resume.failures = FailurePlan{};
  mp_resume.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  CampaignRunner second(*bundle_->llm, mp_resume);
  const auto resumed = second.run(source());
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.shards_resumed_skip, 2u);
  EXPECT_EQ(output_bytes(second), reference_bytes());

  // And the mirror image: halted multi-process, finished in-process.
  auto config2 = base_config("cross_mode_back");
  config2.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config2.failures.halt_after_commits = 1;
  CampaignRunner third(*bundle_->llm, config2);
  EXPECT_TRUE(third.run(source()).halted);
  auto in_resume = config2;
  in_resume.failures = FailurePlan{};
  in_resume.execution = CampaignConfig::ExecutionMode::kInProcess;
  CampaignRunner fourth(*bundle_->llm, in_resume);
  EXPECT_TRUE(fourth.run(source()).completed);
  EXPECT_EQ(output_bytes(fourth), reference_bytes());
}

TEST_F(CampaignFixture, PrometheusRenderExposesCampaignCounters) {
  CampaignRunner runner(*bundle_->llm, base_config("prometheus"));
  const auto stats = runner.run(source());
  const std::string text = render_prometheus(stats);
  EXPECT_NE(text.find("adaparse_campaign_shards_total 4"), std::string::npos);
  EXPECT_NE(text.find("adaparse_campaign_shards_committed 4"),
            std::string::npos);
  EXPECT_NE(text.find("adaparse_campaign_docs_processed 96"),
            std::string::npos);
  EXPECT_NE(text.find("adaparse_campaign_completed 1"), std::string::npos);
}

TEST(CampaignMetrics, PrometheusExpositionMatchesGoldenText) {
  // Byte-exact regression gate for the migration onto obs::Registry. The
  // golden below was captured from the pre-migration hand-rolled renderer:
  // same family order, no HELP lines, counters-vs-gauges split, bools as
  // 0/1, recovery_events derived from the latency vector, and default
  // double formatting ("1.5", "0.25") must all survive.
  const simd::TierScope scope(simd::Tier::kScalar);
  CampaignStats stats;
  stats.shards_total = 4;
  stats.shards_committed = 4;
  stats.shards_resumed_skip = 1;
  stats.attempts_started = 6;
  stats.attempts_failed = 2;
  stats.shards_retried = 2;
  stats.hedges_launched = 1;
  stats.hedges_won = 1;
  stats.docs_processed = 96;
  stats.docs_quarantined = 1;
  stats.corrupt_shard_recoveries = 1;
  stats.corrupt_output_recoveries = 0;
  stats.recovered_torn_manifest = true;
  stats.workers_spawned = 3;
  stats.workers_died = 1;
  stats.workers_killed = 1;
  stats.shards_stolen = 2;
  stats.recovery_wall_seconds = 1.5;
  stats.recovery_latency_seconds = {0.5, 1.0};
  stats.wall_seconds = 0.25;
  stats.halted = false;
  stats.completed = true;

  const std::string golden = R"(# TYPE adaparse_campaign_shards_total gauge
adaparse_campaign_shards_total 4
# TYPE adaparse_campaign_shards_committed counter
adaparse_campaign_shards_committed 4
# TYPE adaparse_campaign_shards_resumed_skip counter
adaparse_campaign_shards_resumed_skip 1
# TYPE adaparse_campaign_attempts_started counter
adaparse_campaign_attempts_started 6
# TYPE adaparse_campaign_attempts_failed counter
adaparse_campaign_attempts_failed 2
# TYPE adaparse_campaign_shards_retried counter
adaparse_campaign_shards_retried 2
# TYPE adaparse_campaign_hedges_launched counter
adaparse_campaign_hedges_launched 1
# TYPE adaparse_campaign_hedges_won counter
adaparse_campaign_hedges_won 1
# TYPE adaparse_campaign_docs_processed counter
adaparse_campaign_docs_processed 96
# TYPE adaparse_campaign_docs_quarantined counter
adaparse_campaign_docs_quarantined 1
# TYPE adaparse_campaign_corrupt_shard_recoveries counter
adaparse_campaign_corrupt_shard_recoveries 1
# TYPE adaparse_campaign_corrupt_output_recoveries counter
adaparse_campaign_corrupt_output_recoveries 0
# TYPE adaparse_campaign_recovered_torn_manifest gauge
adaparse_campaign_recovered_torn_manifest 1
# TYPE adaparse_campaign_workers_spawned counter
adaparse_campaign_workers_spawned 3
# TYPE adaparse_campaign_workers_died counter
adaparse_campaign_workers_died 1
# TYPE adaparse_campaign_workers_killed counter
adaparse_campaign_workers_killed 1
# TYPE adaparse_campaign_shards_stolen counter
adaparse_campaign_shards_stolen 2
# TYPE adaparse_campaign_recovery_events counter
adaparse_campaign_recovery_events 2
# TYPE adaparse_campaign_recovery_wall_seconds counter
adaparse_campaign_recovery_wall_seconds 1.5
# TYPE adaparse_campaign_wall_seconds gauge
adaparse_campaign_wall_seconds 0.25
# TYPE adaparse_campaign_halted gauge
adaparse_campaign_halted 0
# TYPE adaparse_campaign_completed gauge
adaparse_campaign_completed 1
# TYPE adaparse_simd_tier gauge
adaparse_simd_tier{tier="scalar"} 1
)";
  EXPECT_EQ(render_prometheus(stats), golden);
}

TEST_F(CampaignFixture, MultiProcessRunWithRealKillTracesAcrossProcesses) {
  // The tentpole acceptance scenario with tracing on: a multi-process
  // campaign with >= 2 workers and a real SIGKILL must yield one coherent
  // trace — spans from the coordinator pid AND >= 2 worker pids, shipped
  // over kSpans frames, with every surviving parent link resolving (a
  // SIGKILLed worker loses an attempt's unflushed spans and their parent
  // together, never a child without its parent).
  auto& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  static_cast<void>(tracer.collect());  // drop anything from earlier tests

  auto config = base_config("mp_trace");
  config.execution = CampaignConfig::ExecutionMode::kMultiProcess;
  config.workers = 2;
  config.failures.crashes = {{/*shard=*/1, /*attempt=*/0, /*after_docs=*/12}};
  config.max_shard_attempts = 5;
  CampaignRunner runner(*bundle_->llm, config);
  const auto stats = runner.run(source());

  const auto records = tracer.collect();
  tracer.set_enabled(was_enabled);

  ASSERT_TRUE(stats.completed);
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_EQ(output_bytes(runner), reference_bytes());

  std::set<std::int32_t> pids;
  std::set<std::uint64_t> ids;
  for (const auto& rec : records) {
    pids.insert(rec.pid);
    ids.insert(rec.id);
  }
  EXPECT_GE(pids.size(), 3u) << "coordinator + 2 worker pids expected";
  EXPECT_TRUE(pids.count(static_cast<std::int32_t>(::getpid())));
  EXPECT_EQ(ids.size(), records.size()) << "span ids must be unique";
  for (const auto& rec : records) {
    if (rec.parent != 0) {
      EXPECT_TRUE(ids.count(rec.parent))
          << "dangling parent for span " << rec.name;
    }
  }

  // The exporter must render the whole multi-process batch as one valid
  // Chrome-trace JSON document with per-pid process metadata.
  const auto root = util::Json::parse(obs::trace_to_json(records));
  const auto& events = root.at("traceEvents").as_array();
  std::set<double> meta_pids;
  std::size_t slices = 0;
  for (const auto& event : events) {
    if (event.at("ph").as_string() == "M") {
      meta_pids.insert(event.at("pid").as_number());
    } else {
      ++slices;
    }
  }
  EXPECT_EQ(meta_pids.size(), pids.size());
  EXPECT_GE(slices, records.size());
}

}  // namespace
}  // namespace adaparse::campaign
