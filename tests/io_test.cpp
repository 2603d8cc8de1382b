// Tests for the io module: JSONL records, shard archives, and the document
// codec used by shard-backed streaming sources.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "campaign/manifest.hpp"
#include "doc/generator.hpp"
#include "io/doc_codec.hpp"
#include "io/fsio.hpp"
#include "io/jsonl.hpp"
#include "io/sealed_log.hpp"
#include "io/shard.hpp"
#include "serve/control/journal.hpp"
#include "util/rng.hpp"

namespace adaparse::io {
namespace {

ParseRecord sample_record() {
  ParseRecord r;
  r.document_id = "doc-42";
  r.parser = "PyMuPDF";
  r.text = "line one\nline \"two\" with quotes";
  r.predicted_accuracy = 0.52;
  r.route = "cls1:valid|accept";
  r.pages = 12;
  r.pages_retrieved = 11;
  return r;
}

TEST(Jsonl, RecordRoundTrip) {
  const auto r = sample_record();
  const auto back = ParseRecord::from_json(util::Json::parse(r.to_json().dump()));
  EXPECT_EQ(back.document_id, r.document_id);
  EXPECT_EQ(back.parser, r.parser);
  EXPECT_EQ(back.text, r.text);
  EXPECT_NEAR(back.predicted_accuracy, r.predicted_accuracy, 1e-12);
  EXPECT_EQ(back.route, r.route);
  EXPECT_EQ(back.pages, r.pages);
  EXPECT_EQ(back.pages_retrieved, r.pages_retrieved);
}

TEST(Jsonl, WriterProducesOneLinePerRecord) {
  std::ostringstream os;
  JsonlWriter writer(os);
  writer.write(sample_record());
  writer.write(sample_record());
  EXPECT_EQ(writer.count(), 2U);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Jsonl, ReadSkipsBlankLines) {
  std::ostringstream os;
  JsonlWriter writer(os);
  writer.write(sample_record());
  std::istringstream is(os.str() + "\n\n");
  const auto records = read_jsonl(is);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].document_id, "doc-42");
}

TEST(Jsonl, NewlinesInTextSurviveRoundTrip) {
  ParseRecord r = sample_record();
  r.text = "a\nb\nc";
  std::ostringstream os;
  JsonlWriter writer(os);
  writer.write(r);
  std::istringstream is(os.str());
  const auto records = read_jsonl(is);
  ASSERT_EQ(records.size(), 1U);  // newline stayed escaped inside one line
  EXPECT_EQ(records[0].text, "a\nb\nc");
}

// --------------------------------------------------------------- shard ----

TEST(Rle, RoundTrip) {
  const std::string payloads[] = {"", "a", "aaabbbccc", "no runs here!",
                                  std::string(1000, 'x')};
  for (const auto& p : payloads) {
    EXPECT_EQ(rle_decode(rle_encode(p)), p);
  }
}

TEST(Rle, CompressesRuns) {
  const std::string runs(500, ' ');
  EXPECT_LT(rle_encode(runs).size(), runs.size() / 10);
}

TEST(Rle, RejectsMalformed) {
  EXPECT_THROW(rle_decode("abc"), std::runtime_error);  // odd length
  std::string zero_run;
  zero_run += '\0';
  zero_run += 'a';
  EXPECT_THROW(rle_decode(zero_run), std::runtime_error);
}

/// The run-length encoder as first written, one (count, char) pair per
/// run built into a temporary string: the on-disk format reference.
std::string reference_rle_encode(std::string_view s) {
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    std::size_t run = 1;
    while (i + run < s.size() && s[i + run] == c && run < 255) ++run;
    out += static_cast<char>(run);
    out += c;
    i += run;
  }
  return out;
}

std::string reference_rle_decode(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); i += 2) {
    out.append(static_cast<unsigned char>(s[i]), s[i + 1]);
  }
  return out;
}

TEST(Rle, MatchesReferenceLoopAtRunBoundaries) {
  util::Rng rng(0x41E);
  std::vector<std::string> inputs;
  for (const std::size_t run : {1, 254, 255, 256, 511}) {
    inputs.push_back(std::string(run, 'a'));
    inputs.push_back("x" + std::string(run, '\0') + "y");
    inputs.push_back(std::string(run, '\xFF') + std::string(run, '\x01'));
  }
  for (int n = 0; n < 64; ++n) {
    std::string random(rng.below(2048), '\0');
    // Few distinct bytes, so runs of every length appear.
    const std::uint64_t alphabet = 1 + rng.below(n % 2 == 0 ? 3 : 256);
    for (char& c : random) c = static_cast<char>(rng.below(alphabet));
    inputs.push_back(std::move(random));
  }
  for (const auto& input : inputs) {
    const std::string encoded = rle_encode(input);
    ASSERT_EQ(encoded, reference_rle_encode(input)) << input.size();
    EXPECT_EQ(rle_decode(encoded), input);
  }
  // Decoding any well-formed pair stream, not only the encoder's output.
  for (int n = 0; n < 64; ++n) {
    std::string pairs(2 * rng.below(600), '\0');
    for (std::size_t i = 0; i < pairs.size(); i += 2) {
      pairs[i] = static_cast<char>(1 + rng.below(255));
      pairs[i + 1] = static_cast<char>(rng.below(256));
    }
    EXPECT_EQ(rle_decode(pairs), reference_rle_decode(pairs));
  }
}

TEST(Shard, WriteReadRoundTrip) {
  ShardWriter writer;
  writer.add("doc-0.txt", "first document body");
  writer.add("doc-1.txt", "second   body   with   runs");
  EXPECT_EQ(writer.count(), 2U);
  EXPECT_GT(writer.payload_bytes(), 0U);

  ShardReader reader(writer.finish());
  ASSERT_EQ(reader.count(), 2U);
  EXPECT_EQ(reader.entries()[0].name, "doc-0.txt");
  EXPECT_EQ(reader.entries()[0].payload, "first document body");
  const auto found = reader.find("doc-1.txt");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, "second   body   with   runs");
  EXPECT_FALSE(reader.find("missing").has_value());
}

TEST(Shard, EmptyShard) {
  ShardWriter writer;
  ShardReader reader(writer.finish());
  EXPECT_EQ(reader.count(), 0U);
}

TEST(Shard, RejectsCorruptedBlobs) {
  ShardWriter writer;
  writer.add("a", "payload");
  std::string blob = writer.finish();
  // Bad magic.
  std::string bad = blob;
  bad[0] = static_cast<char>(~bad[0]);
  EXPECT_THROW(ShardReader{bad}, std::runtime_error);
  // Truncation.
  EXPECT_THROW(ShardReader{blob.substr(0, blob.size() - 3)},
               std::runtime_error);
  // Trailing garbage.
  EXPECT_THROW(ShardReader{blob + "x"}, std::runtime_error);
}

TEST(Shard, PackedBenchmarkCorpusBytesArePinned) {
  // Pins the staged shard format byte for byte: entry framing, the JSON
  // each document is written as, and the run-length pairs around it.
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const std::uint64_t seed : {1ULL, 42ULL, 0x7EA1ULL}) {
    const auto docs =
        doc::CorpusGenerator(doc::benchmark_config(20, seed)).generate();
    for (const char c : pack_corpus_shard(docs)) {
      h = util::fnv1a_step(h, static_cast<unsigned char>(c));
    }
  }
  EXPECT_EQ(h, 0xBC9D9E96EEF91A3BULL);
}

TEST(Shard, HugeEntryCountIsMalformedNotAnAllocation) {
  ShardWriter writer;
  writer.add("a", "payload");
  std::string blob = writer.finish();
  blob[7] = '\x7F';  // entry count 0x7F000001
  EXPECT_THROW(ShardReader{blob}, std::runtime_error);
}

TEST(Shard, PlanShardsRespectsByteBudget) {
  const std::vector<std::size_t> sizes = {100, 200, 300, 400, 500};
  const auto shards = plan_shards(sizes, 600);
  // Greedy packing: {100,200,300}, {400}, {500}... 100+200+300=600 fits.
  ASSERT_GE(shards.size(), 2U);
  std::size_t covered = 0;
  for (const auto& [begin, end] : shards) {
    std::size_t total = 0;
    for (std::size_t i = begin; i < end; ++i) total += sizes[i];
    EXPECT_TRUE(total <= 600 || end - begin == 1);
    covered += end - begin;
  }
  EXPECT_EQ(covered, sizes.size());
}

TEST(Shard, PlanShardsSingleOversizedEntry) {
  const auto shards = plan_shards({10'000}, 100);
  ASSERT_EQ(shards.size(), 1U);
  EXPECT_EQ(shards[0], std::make_pair(std::size_t{0}, std::size_t{1}));
}

TEST(Shard, PlanShardsEmpty) {
  EXPECT_TRUE(plan_shards({}, 100).empty());
}

// ----------------------------------------------------------- doc codec ----

TEST(DocCodec, DocumentRoundTripPreservesEveryField) {
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(6, /*seed=*/31)).generate();
  for (const auto& original : docs) {
    const auto back = document_from_json(
        util::Json::parse(document_to_json(original).dump()));
    EXPECT_EQ(back.id, original.id);
    EXPECT_EQ(back.meta.publisher, original.meta.publisher);
    EXPECT_EQ(back.meta.domain, original.meta.domain);
    EXPECT_EQ(back.meta.subcategory, original.meta.subcategory);
    EXPECT_EQ(back.meta.year, original.meta.year);
    EXPECT_EQ(back.meta.format, original.meta.format);
    EXPECT_EQ(back.meta.producer, original.meta.producer);
    EXPECT_EQ(back.meta.num_pages, original.meta.num_pages);
    EXPECT_EQ(back.meta.title, original.meta.title);
    EXPECT_EQ(back.groundtruth_pages, original.groundtruth_pages);
    EXPECT_EQ(back.text_layer.pages, original.text_layer.pages);
    EXPECT_NEAR(back.text_layer.fidelity, original.text_layer.fidelity, 1e-12);
    EXPECT_EQ(back.text_layer.present, original.text_layer.present);
    EXPECT_EQ(back.image_layer.born_digital, original.image_layer.born_digital);
    EXPECT_NEAR(back.layout_complexity, original.layout_complexity, 1e-12);
    EXPECT_EQ(back.seed, original.seed);
    EXPECT_EQ(back.corrupted, original.corrupted);
  }
}

TEST(DocCodec, SeedSurvivesAbove53Bits) {
  // JSON numbers are doubles; the codec must not round 64-bit seeds.
  doc::Document document;
  document.id = "seed-test";
  document.seed = 0xFFFFFFFFFFFFFFFFULL;
  const auto back =
      document_from_json(util::Json::parse(document_to_json(document).dump()));
  EXPECT_EQ(back.seed, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(DocCodec, PackedCorpusShardReadsBack) {
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(5, /*seed=*/32)).generate();
  ShardReader reader(pack_corpus_shard(docs));
  ASSERT_EQ(reader.count(), docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(reader.entries()[i].name, docs[i].id);
    const auto back = document_from_json(
        util::Json::parse(reader.entries()[i].payload));
    EXPECT_EQ(back.id, docs[i].id);
    EXPECT_EQ(back.groundtruth_pages, docs[i].groundtruth_pages);
  }
}

TEST(DocCodec, RejectsOutOfRangeEnum) {
  auto j = document_to_json(doc::Document{});
  j.as_object()["producer"] = 99;
  EXPECT_THROW(document_from_json(j), std::runtime_error);
}

TEST(DocCodec, UnpackInvertsPack) {
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(6, /*seed=*/33)).generate();
  const auto back = unpack_corpus_shard(pack_corpus_shard(docs));
  ASSERT_EQ(back.size(), docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(document_to_json(back[i]).dump(),
              document_to_json(docs[i]).dump());
  }
}

TEST(DocCodec, UnpackRejectsCorruptBlob) {
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(3, /*seed=*/34)).generate();
  std::string blob = pack_corpus_shard(docs);
  blob.resize(blob.size() / 2);  // torn shard file
  EXPECT_THROW(unpack_corpus_shard(blob), std::runtime_error);
}

TEST(DocCodec, SeedMustBeAnUnsignedDecimal) {
  doc::Document document;
  document.id = "seed-digits";
  for (const char* bad : {"1#3", "", "-1", " 7", "+7", "0x10",
                          "18446744073709551616"}) {
    auto j = document_to_json(document);
    j.as_object()["seed"] = bad;
    EXPECT_THROW(document_from_json(j), std::runtime_error) << bad;
  }
  auto j = document_to_json(document);
  j.as_object()["seed"] = "18446744073709551615";
  EXPECT_EQ(document_from_json(j).seed, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(DocCodec, MissingOrMistypedFieldsAreRuntimeErrors) {
  const auto good = document_to_json(doc::Document{});
  for (const auto& [key, value] : good.as_object()) {
    auto missing = good;
    missing.as_object().erase(key);
    EXPECT_THROW(document_from_json(missing), std::runtime_error) << key;
    auto mistyped = good;
    mistyped.as_object()[key] =
        value.is_string() ? util::Json(1.0) : util::Json("1");
    EXPECT_THROW(document_from_json(mistyped), std::runtime_error) << key;
  }
  for (const char* key : {"year", "meta_pages", "subcategory", "publisher"}) {
    auto huge = good;
    huge.as_object()[key] = 2e19;  // outside int: no undefined cast
    EXPECT_THROW(document_from_json(huge), std::runtime_error) << key;
    auto fractional = good;
    fractional.as_object()[key] = 0.5;
    EXPECT_THROW(document_from_json(fractional), std::runtime_error) << key;
  }
  EXPECT_THROW(document_from_json(util::Json(util::JsonArray{})),
               std::runtime_error);
}

TEST(DocCodec, SingleByteMutantsDecodeOrThrowRuntimeError) {
  // Every damaged shard must be reported as std::runtime_error, the one
  // type the campaign catches to re-stage a shard from its source.
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(2, /*seed=*/35)).generate();
  const std::string blob = pack_corpus_shard(docs);
  util::Rng rng(0xB17F11B);
  std::vector<std::size_t> positions;
  // Every header byte and the first entry's opening pairs (keys and
  // count bytes), then a sample of the whole blob.
  for (std::size_t i = 0; i < std::min<std::size_t>(blob.size(), 160); ++i) {
    positions.push_back(i);
  }
  for (int i = 0; i < 1500; ++i) positions.push_back(rng.below(blob.size()));
  std::size_t decoded = 0, rejected = 0;
  for (const std::size_t pos : positions) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ (1 + rng.below(255)));
    try {
      unpack_corpus_shard(mutant);
      ++decoded;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << pos << ": " << e.what();
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(DocCodec, BenchmarkCorpusBytesArePinned) {
  // Pins the generated corpus byte for byte: any change to the generator or
  // to an RNG draw it makes (the Zipf sampler included) moves this digest.
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const std::uint64_t seed : {1ULL, 42ULL, 0x7EA1ULL}) {
    const auto docs =
        doc::CorpusGenerator(doc::benchmark_config(20, seed)).generate();
    for (const auto& document : docs) {
      for (const char c : document_to_json(document).dump()) {
        h = util::fnv1a_step(h, static_cast<unsigned char>(c));
      }
    }
  }
  EXPECT_EQ(h, 0xF8044F2C2400B4CFULL);
}

TEST(Fsio, ReadMissingFileReturnsNullopt) {
  EXPECT_FALSE(read_file("/nonexistent/adaparse-fsio-test").has_value());
}

TEST(Fsio, ReadEmptyFileAndDirectory) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adaparse_fsio_read";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string empty = (dir / "empty.bin").string();
  write_file_atomic(empty, "");
  const auto bytes = read_file(empty);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "");
  // A directory opens but cannot be read: an error, not an empty file.
  EXPECT_THROW(read_file(dir.string()), std::runtime_error);
}

TEST(Fsio, ReadFileReadsPastItsStatSize) {
  // /proc files report size 0 but have content: the size is only a hint.
  const auto bytes = read_file("/proc/self/status");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_NE(bytes->find("Name:"), std::string::npos);
}

TEST(Fsio, AtomicWriteRoundTripsAndLeavesNoTemp) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adaparse_fsio_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "roundtrip.bin").string();
  const std::string payload = std::string("binary\0payload\n", 15);
  write_file_atomic(path, payload);
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  // Overwrite is atomic too: a second write fully replaces the first.
  write_file_atomic(path, "v2");
  EXPECT_EQ(read_file(path).value_or(""), "v2");
  // No temp siblings survive (temp names are unique per call).
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(Fsio, AtomicWriteExercisesFsyncPath) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adaparse_fsio_fsync";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Every atomic write must sync the temp file (data before the rename)
  // and the parent directory (the rename itself) — at least two fsyncs.
  const std::uint64_t before = fsync_count_for_testing();
  write_file_atomic((dir / "durable.bin").string(), "must hit the platter");
  const std::uint64_t after = fsync_count_for_testing();
  EXPECT_GE(after - before, 2u);
  EXPECT_EQ(read_file((dir / "durable.bin").string()).value_or(""),
            "must hit the platter");
}

TEST(Fsio, AtomicWritesFromForkedProcessesDoNotCollide) {
  // A forked child inherits the temp-name counter; parent and child
  // committing the same path at once must still use distinct temp files.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adaparse_fsio_fork";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "shared.bin").string();
  constexpr int kWrites = 200;
  const auto write_all = [&path](const char* who) {
    int failures = 0;
    for (int i = 0; i < kWrites; ++i) {
      try {
        write_file_atomic(path, who);
      } catch (const std::runtime_error&) {
        ++failures;
      }
    }
    return failures;
  };
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(write_all("child") == 0 ? 0 : 1);
  const int parent_failures = write_all("parent");
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_EQ(parent_failures, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "a write in the child failed";
  const std::string last = read_file(path).value_or("");
  EXPECT_TRUE(last == "parent" || last == "child") << last;
}

TEST(Fsio, Fnv1aIsStableAndContentSensitive) {
  EXPECT_EQ(fnv1a("campaign"), fnv1a("campaign"));
  EXPECT_NE(fnv1a("campaign"), fnv1a("campaigN"));
  EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
}

// ---------------------------------------------------------- sealed log ----

std::string sealed_log_path(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "adaparse_sealed_log";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / name;
  std::filesystem::remove(path);
  return path.string();
}

/// Five records of different shapes, one of them with escapes and a
/// newline inside a string.
std::vector<util::JsonObject> sample_log_records() {
  std::vector<util::JsonObject> records;
  for (int i = 0; i < 5; ++i) {
    util::JsonObject record;
    record["type"] = i % 2 == 0 ? "even" : "odd";
    record["index"] = i;
    record["note"] = std::string(static_cast<std::size_t>(i), 'x') + "\"\n";
    if (i == 3) record["list"] = util::Json(util::JsonArray{1, "two", true});
    records.push_back(std::move(record));
  }
  return records;
}

/// Overwrites `path` without write_file_atomic's fsyncs: these tests
/// rewrite one small file thousands of times.
void put_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::vector<std::string> dumps(const std::vector<util::JsonObject>& records) {
  std::vector<std::string> out;
  for (const auto& record : records) out.push_back(util::Json(record).dump());
  return out;
}

TEST(SealedLog, TruncationAndSingleByteMutantsAreTornTailsOrTypedErrors) {
  const std::string path = sealed_log_path("mutants.jsonl");
  const auto records = sample_log_records();
  {
    SealedLog log(path, "test log");
    for (const auto& record : records) log.append(record);
  }
  const std::string full = read_file(path).value();
  const auto expected = dumps(records);
  ASSERT_EQ(dumps(load_sealed_log(path, "test log").records), expected);

  util::JsonObject extra;
  extra["type"] = "extra";
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    // Property 1: any truncation loads, holding exactly the records whose
    // newline survived.
    const std::string prefix = full.substr(0, cut);
    const auto committed = static_cast<std::size_t>(
        std::count(prefix.begin(), prefix.end(), '\n'));
    const std::size_t valid = prefix.rfind('\n') + 1;  // 0 when none
    put_file(path, prefix);
    const auto torn = load_sealed_log(path, "test log");
    EXPECT_EQ(dumps(torn.records),
              std::vector<std::string>(expected.begin(),
                                       expected.begin() + committed))
        << "cut " << cut;
    EXPECT_EQ(torn.valid_prefix_bytes, valid) << "cut " << cut;
    EXPECT_EQ(torn.dropped_torn_tail, valid != cut) << "cut " << cut;

    // Property 2: reopening for append cuts the tail, so the next load
    // holds those records plus the new one.
    {
      SealedLog log(path, "test log");
      log.append(extra);
    }
    auto want = std::vector<std::string>(expected.begin(),
                                         expected.begin() + committed);
    want.push_back(util::Json(extra).dump());
    const auto reopened = load_sealed_log(path, "test log");
    EXPECT_EQ(dumps(reopened.records), want) << "cut " << cut;
    EXPECT_FALSE(reopened.dropped_torn_tail) << "cut " << cut;
  }

  // Property 3: every single-byte mutant loads or throws runtime_error.
  util::Rng rng(0x5EA1ED);
  std::size_t loaded = 0, rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = full;
    const std::size_t pos = rng.below(mutant.size());
    mutant[pos] = static_cast<char>(mutant[pos] ^ (1 + rng.below(255)));
    put_file(path, mutant);
    try {
      load_sealed_log(path, "test log");
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << pos << ": " << e.what();
    }
  }
  EXPECT_GT(loaded, 0u);  // damage in the final line is a torn tail
  EXPECT_GT(rejected, 0u);
}

TEST(SealedLog, ResealedFieldMutantsDecodeOrThrowRuntimeError) {
  // Byte mutants almost never keep a valid CRC, so they stop at the line
  // check. Resealing each mutated record drives the damage into the
  // manifest and journal decoders, which must fail only with
  // std::runtime_error.
  const std::string manifest = sealed_log_path("fields_manifest.jsonl");
  {
    campaign::ManifestWriter writer(manifest);
    campaign::PlanRecord plan;
    plan.docs = 7;
    plan.shard_docs = {4, 3};
    plan.fingerprint = "f";
    writer.append(plan);
    writer.append(campaign::QuarantineRecord{1, "doc-1"});
    writer.append(campaign::ShardRecord{1, 0, 3, 99, 42, 1});
    writer.append(campaign::FinalRecord{7, 43});
  }
  const std::string journal = sealed_log_path("fields_journal.jsonl");
  {
    serve::control::DecisionJournal writer(journal);
    writer.append(serve::control::ControlConfig{});
    serve::control::TickRecord tick;
    tick.reading.tick = 1;
    tick.reason = "hold";
    writer.append(tick);
  }
  const std::string mutant = sealed_log_path("fields_mutant.jsonl");
  const std::function<void()> decoders[] = {
      [&] { campaign::load_manifest(mutant); },
      [&] { serve::control::load_decision_log(mutant); }};
  const std::string sources[] = {manifest, journal};
  util::Rng rng(0xF1E1D5);
  std::size_t decoded = 0, rejected = 0;
  for (int which = 0; which < 2; ++which) {
    const auto records = load_sealed_log(sources[which], "test log").records;
    for (int i = 0; i < 600; ++i) {
      std::string body = util::Json(records[rng.below(records.size())]).dump();
      const std::size_t pos = rng.below(body.size());
      body[pos] = static_cast<char>(body[pos] ^ (1 + rng.below(255)));
      util::Json mutated;
      try {
        mutated = util::Json::parse(body);
      } catch (const std::runtime_error&) {
        continue;  // no longer JSON: the CRC check's case, covered above
      }
      if (!mutated.is_object()) continue;
      std::filesystem::remove(mutant);
      {
        SealedLog log(mutant, "test log");
        log.append(mutated.as_object());
      }
      try {
        decoders[which]();
        ++decoded;
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << body << ": " << e.what();
      }
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SealedLog, ManifestAndJournalBytesArePinned) {
  // Pins the on-disk bytes of both logs: every existing manifest and
  // journal must keep loading, so neither the line format nor a record
  // codec may move these digests.
  const std::string manifest = sealed_log_path("pinned_manifest.jsonl");
  {
    campaign::ManifestWriter writer(manifest);
    campaign::PlanRecord plan;
    plan.docs = 7;
    plan.shard_docs = {4, 3};
    plan.fingerprint = "llm|alpha=0.1";
    writer.append(plan);
    writer.append(campaign::QuarantineRecord{1, "doc-\"0042\""});
    writer.append(
        campaign::ShardRecord{1, 2, 3, 999, 0xDEADBEEFCAFEF00DULL, 1});
    writer.append(campaign::FinalRecord{7, 0xFFFFFFFFFFFFFFFFULL});
  }
  const std::string journal = sealed_log_path("pinned_journal.jsonl");
  {
    serve::control::DecisionJournal writer(journal);
    serve::control::ControlConfig config;
    config.slo_p95_micros = 100000;
    config.recover_fraction = 0.7;
    config.queue_high = 10;
    config.queue_low = 4;
    writer.append(config);
    const serve::control::Action actions[] = {
        serve::control::Action::kHold, serve::control::Action::kEscalate,
        serve::control::Action::kRestore};
    for (std::uint64_t t = 1; t <= 3; ++t) {
      serve::control::TickRecord tick;
      tick.reading.tick = t;
      tick.reading.p95_micros = 60000 * t;
      tick.reading.window_count = t + 2;
      tick.reading.queued_jobs = 2 * t;
      tick.reading.running_jobs = 1;
      tick.reading.resident_documents = 32 * t;
      tick.action = actions[t - 1];
      tick.level = static_cast<serve::control::Level>(t % 2);
      tick.reason = "tick " + std::to_string(t);
      writer.append(tick);
    }
  }
  EXPECT_EQ(fnv1a(read_file(manifest).value()), 11206406291623076937ULL);
  EXPECT_EQ(fnv1a(read_file(journal).value()), 5225525218140465116ULL);

  const auto state = campaign::load_manifest(manifest);
  EXPECT_EQ(state.quarantines.at(0).doc_id, "doc-\"0042\"");
  EXPECT_EQ(state.shards.at(1).checksum, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(state.final_record->checksum, 0xFFFFFFFFFFFFFFFFULL);
  const auto log = serve::control::load_decision_log(journal);
  EXPECT_EQ(log.config->slo_p95_micros, 100000u);
  ASSERT_EQ(log.ticks.size(), 3u);
  EXPECT_EQ(log.ticks[2].action, serve::control::Action::kRestore);
  EXPECT_EQ(log.ticks[2].reading.resident_documents, 96u);
}

}  // namespace
}  // namespace adaparse::io
