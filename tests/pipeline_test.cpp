// Tests for the streaming pipeline engine: equivalence with the barrier
// reference implementation (byte-identical records/decisions), streaming
// sources (vector / generator / shard), in-order incremental sinks, and
// the memory-boundedness the bounded queues buy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

#include "core/doc_source.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "doc/generator.hpp"
#include "io/doc_codec.hpp"
#include "io/jsonl.hpp"

namespace adaparse::core {
namespace {

/// Mixed corpus with some corrupted (unreadable) documents, so the failure
/// lane flows through the pipeline too.
std::vector<doc::Document> mixed_corpus(std::size_t n, std::uint64_t seed) {
  auto config = doc::benchmark_config(n, seed);
  config.corrupted_fraction = 0.05;
  return doc::CorpusGenerator(config).generate();
}

void expect_identical(const RunOutput& streaming, const RunOutput& barrier) {
  ASSERT_EQ(streaming.records.size(), barrier.records.size());
  ASSERT_EQ(streaming.decisions.size(), barrier.decisions.size());
  for (std::size_t i = 0; i < barrier.records.size(); ++i) {
    // Byte-identical serialized records.
    EXPECT_EQ(streaming.records[i].to_json().dump(),
              barrier.records[i].to_json().dump())
        << "record " << i << " diverged";
    const auto& sd = streaming.decisions[i];
    const auto& bd = barrier.decisions[i];
    EXPECT_EQ(sd.doc_index, bd.doc_index);
    EXPECT_EQ(sd.chosen, bd.chosen);
    EXPECT_EQ(sd.cls1_valid, bd.cls1_valid);
    EXPECT_EQ(sd.predicted_gain, bd.predicted_gain);
    EXPECT_EQ(sd.predicted_accuracy, bd.predicted_accuracy);
    EXPECT_EQ(sd.trail, bd.trail);
  }
  EXPECT_EQ(streaming.stats.total_docs, barrier.stats.total_docs);
  EXPECT_EQ(streaming.stats.cls1_invalid, barrier.stats.cls1_invalid);
  EXPECT_EQ(streaming.stats.routed_to_nougat, barrier.stats.routed_to_nougat);
  EXPECT_EQ(streaming.stats.accepted_extraction,
            barrier.stats.accepted_extraction);
  EXPECT_EQ(streaming.stats.failed_docs, barrier.stats.failed_docs);
  EXPECT_NEAR(streaming.stats.extraction_cpu_seconds,
              barrier.stats.extraction_cpu_seconds, 1e-9);
  EXPECT_NEAR(streaming.stats.nougat_gpu_seconds,
              barrier.stats.nougat_gpu_seconds, 1e-9);
}

/// Trains a small bundle once for the whole suite (CLS II + CLS III).
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto train_docs =
        doc::CorpusGenerator(doc::benchmark_config(160, 404)).generate();
    TrainAdaParseOptions options;
    options.engine.threads = 4;
    options.engine.alpha = 0.10;
    options.engine.batch_size = 32;
    options.regression.epochs = 6;
    options.apply_dpo = false;
    bundle_ = new TrainedAdaParse(
        train_adaparse(train_docs, nullptr, nullptr, options));
    docs_ = new std::vector<doc::Document>(mixed_corpus(150, 505));
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete docs_;
    bundle_ = nullptr;
    docs_ = nullptr;
  }
  /// Streaming vs barrier over budget windows k in {1, 7, 256} and extract
  /// workers W in {1, 4}. With W > 1, scoring finishes out of order on the
  /// workers; the router must still budget each window of k consecutive
  /// documents exactly as the barrier path does.
  static void expect_matches_barrier_across_shapes(
      const AdaParseEngine& trained) {
    for (const std::size_t batch_size : {1, 7, 256}) {
      EngineConfig config = trained.config();
      config.batch_size = batch_size;
      const AdaParseEngine engine(config, bundle_->predictor,
                                  bundle_->improver);
      const auto barrier = engine.run_barrier(*docs_);
      for (const std::size_t workers : {1, 4}) {
        SCOPED_TRACE("k=" + std::to_string(batch_size) +
                     " W=" + std::to_string(workers));
        PipelineConfig pipeline;
        pipeline.extract_workers = workers;
        expect_identical(Pipeline(engine, pipeline).run_collect(*docs_),
                         barrier);
      }
    }
  }

  static TrainedAdaParse* bundle_;
  static std::vector<doc::Document>* docs_;
};

TrainedAdaParse* PipelineFixture::bundle_ = nullptr;
std::vector<doc::Document>* PipelineFixture::docs_ = nullptr;

// ----------------------------------------------------------- equivalence ----

TEST_F(PipelineFixture, StreamingMatchesBarrierLlmVariant) {
  const auto& engine = *bundle_->llm;
  const auto barrier = engine.run_barrier(*docs_);
  const auto streaming = Pipeline(engine).run_collect(*docs_);
  EXPECT_TRUE(streaming.stats.pipeline.streaming);
  EXPECT_FALSE(barrier.stats.pipeline.streaming);
  EXPECT_GT(barrier.stats.routed_to_nougat, 0U);  // the GPU lane is live
  expect_identical(streaming, barrier);
  expect_matches_barrier_across_shapes(engine);
}

TEST_F(PipelineFixture, StreamingMatchesBarrierFtVariant) {
  const auto& engine = *bundle_->ft;
  const auto barrier = engine.run_barrier(*docs_);
  const auto streaming = Pipeline(engine).run_collect(*docs_);
  expect_identical(streaming, barrier);
  expect_matches_barrier_across_shapes(engine);
}

TEST_F(PipelineFixture, RunDelegatesToStreamingPipeline) {
  const auto output = bundle_->llm->run(*docs_);
  EXPECT_TRUE(output.stats.pipeline.streaming);
  expect_identical(output, bundle_->llm->run_barrier(*docs_));
}

TEST_F(PipelineFixture, TinyQueuesStillMatch) {
  // Capacity 1 everywhere: maximal backpressure must change nothing but
  // timing.
  PipelineConfig config;
  config.queue_capacity = 1;
  config.extract_workers = 3;
  const auto streaming =
      Pipeline(*bundle_->llm, config).run_collect(*docs_);
  expect_identical(streaming, bundle_->llm->run_barrier(*docs_));
}

// ---------------------------------------------------------------- sources ----

TEST_F(PipelineFixture, GeneratorSourceMatchesInMemoryCorpus) {
  auto config = doc::benchmark_config(90, 717);
  config.corrupted_fraction = 0.04;
  const auto materialized = doc::CorpusGenerator(config).generate();

  GeneratorSource source(config);
  EXPECT_EQ(source.size_hint(), materialized.size());
  std::vector<io::ParseRecord> streamed;
  Pipeline(*bundle_->llm)
      .run(source, [&](std::size_t index, const io::ParseRecord& record,
                       const RouteDecision&) {
        EXPECT_EQ(index, streamed.size());
        streamed.push_back(record);
      });

  const auto reference = bundle_->llm->run_barrier(materialized);
  ASSERT_EQ(streamed.size(), reference.records.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].to_json().dump(),
              reference.records[i].to_json().dump());
  }
}

TEST_F(PipelineFixture, ShardSourceMatchesInMemoryCorpus) {
  const auto subset =
      std::vector<doc::Document>(docs_->begin(), docs_->begin() + 60);
  ShardSource source(io::pack_corpus_shard(subset));
  EXPECT_EQ(source.size_hint(), subset.size());

  std::vector<io::ParseRecord> streamed;
  Pipeline(*bundle_->llm)
      .run(source, [&](std::size_t, const io::ParseRecord& record,
                       const RouteDecision&) { streamed.push_back(record); });

  const auto reference = bundle_->llm->run_barrier(subset);
  ASSERT_EQ(streamed.size(), reference.records.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].to_json().dump(),
              reference.records[i].to_json().dump());
  }
}

// ------------------------------------------------------------ sink order ----

TEST_F(PipelineFixture, SinkSeesStrictInputOrder) {
  std::vector<std::size_t> order;
  VectorSource source(*docs_);
  Pipeline(*bundle_->llm)
      .run(source, [&](std::size_t index, const io::ParseRecord&,
                       const RouteDecision&) { order.push_back(index); });
  ASSERT_EQ(order.size(), docs_->size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST_F(PipelineFixture, JsonlSinkStreamsEveryRecord) {
  std::ostringstream os;
  VectorSource source(*docs_);
  const auto stats = Pipeline(*bundle_->llm).run_to_jsonl(source, os);
  EXPECT_EQ(stats.total_docs, docs_->size());

  std::istringstream is(os.str());
  const auto records = io::read_jsonl(is);
  const auto reference = bundle_->llm->run_barrier(*docs_);
  ASSERT_EQ(records.size(), reference.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].to_json().dump(),
              reference.records[i].to_json().dump());
  }
}

// ------------------------------------------------------------- hooks ----

TEST(PipelineHooks, OnProgressReportsEveryEmittedRecordInOrder) {
  EngineConfig config;
  config.variant = Variant::kFastText;
  const AdaParseEngine engine(config, nullptr,
                              std::make_shared<Cls2Improver>());
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(40, 343)).generate();

  std::vector<std::size_t> progress;
  PipelineConfig pipeline_config;
  pipeline_config.on_progress = [&progress](std::size_t emitted) {
    progress.push_back(emitted);
  };
  VectorSource source(docs);
  std::size_t sunk = 0;
  Pipeline(engine, pipeline_config)
      .run(source, [&](std::size_t, const io::ParseRecord&,
                       const RouteDecision&) { ++sunk; });

  // Called once per record, on the writer thread, with the running total.
  ASSERT_EQ(progress.size(), docs.size());
  ASSERT_EQ(sunk, docs.size());
  for (std::size_t i = 0; i < progress.size(); ++i) {
    EXPECT_EQ(progress[i], i + 1);
  }
}

TEST(PipelineHooks, CancelFlagStopsAdmissionAndDrainsInFlight) {
  EngineConfig config;
  config.variant = Variant::kFastText;
  const AdaParseEngine engine(config, nullptr,
                              std::make_shared<Cls2Improver>());
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(400, 454)).generate();

  std::atomic<bool> cancel{false};
  PipelineConfig pipeline_config;
  pipeline_config.cancel = &cancel;
  pipeline_config.queue_capacity = 4;
  VectorSource source(docs);
  std::size_t emitted = 0;
  const auto stats =
      Pipeline(engine, pipeline_config)
          .run(source, [&](std::size_t index, const io::ParseRecord&,
                           const RouteDecision&) {
            EXPECT_EQ(index, emitted);  // drained records stay in order
            ++emitted;
            if (emitted == 20) cancel.store(true);
          });

  EXPECT_TRUE(stats.pipeline.cancelled);
  EXPECT_GE(emitted, 20U);          // everything admitted still drained
  EXPECT_LT(emitted, docs.size());  // but admission stopped early
  EXPECT_EQ(stats.total_docs, emitted);
}

// --------------------------------------------------------- boundedness ----

TEST(PipelineMemory, PeakResidentExtractionsBoundedByWindowNotCorpus) {
  // FT variant with an untrained improver: no training cost, deterministic.
  EngineConfig engine_config;
  engine_config.variant = Variant::kFastText;
  engine_config.batch_size = 32;
  engine_config.threads = 4;
  const AdaParseEngine engine(engine_config, nullptr,
                              std::make_shared<Cls2Improver>());

  auto corpus_config = doc::benchmark_config(400, 919);
  const auto docs = doc::CorpusGenerator(corpus_config).generate();

  PipelineConfig config;
  config.queue_capacity = 4;
  config.extract_workers = 4;
  config.upgrade_workers = 2;
  const auto output = Pipeline(engine, config).run_collect(docs);

  const auto& pipeline = output.stats.pipeline;
  EXPECT_EQ(output.stats.total_docs, docs.size());
  // The admission-credit window is the hard bound on resident extractions;
  // it is sized from batch size + queue capacities, far below the corpus.
  EXPECT_GT(pipeline.peak_resident_extractions, 0U);
  EXPECT_GT(pipeline.resident_window, 0U);
  EXPECT_LE(pipeline.peak_resident_extractions, pipeline.resident_window);
  EXPECT_LT(pipeline.resident_window, docs.size() / 2);
  EXPECT_LT(pipeline.peak_resident_extractions, docs.size() / 2);
  // Queues respected their bound.
  EXPECT_LE(pipeline.prefetch.peak_queue_depth, config.queue_capacity);
  EXPECT_LE(pipeline.extract.peak_queue_depth, config.queue_capacity);
  EXPECT_LE(pipeline.route.peak_queue_depth, config.queue_capacity);
  EXPECT_LE(pipeline.upgrade.peak_queue_depth, config.queue_capacity);
  // Every stage processed every document.
  EXPECT_EQ(pipeline.prefetch.items, docs.size());
  EXPECT_EQ(pipeline.extract.items, docs.size());
  EXPECT_EQ(pipeline.route.items, docs.size());
  EXPECT_EQ(pipeline.upgrade.items, docs.size());
  EXPECT_EQ(pipeline.write.items, docs.size());
}

// --------------------------------------------------------------- edges ----

TEST(PipelineEdge, EmptyCorpusCompletes) {
  EngineConfig config;
  config.variant = Variant::kFastText;
  const AdaParseEngine engine(config, nullptr,
                              std::make_shared<Cls2Improver>());
  const auto output = Pipeline(engine).run_collect({});
  EXPECT_TRUE(output.records.empty());
  EXPECT_TRUE(output.decisions.empty());
  EXPECT_EQ(output.stats.total_docs, 0U);
  EXPECT_TRUE(output.stats.pipeline.streaming);
}

TEST(PipelineEdge, BatchLargerThanCorpus) {
  EngineConfig config;
  config.variant = Variant::kFastText;
  config.batch_size = 256;  // corpus far smaller than one batch
  const AdaParseEngine engine(config, nullptr,
                              std::make_shared<Cls2Improver>());
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(7, 121)).generate();
  const auto streaming = Pipeline(engine).run_collect(docs);
  ASSERT_EQ(streaming.records.size(), docs.size());
  const auto barrier = engine.run_barrier(docs);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(streaming.records[i].to_json().dump(),
              barrier.records[i].to_json().dump());
  }
}

TEST(PipelineEdge, SinkExceptionPropagatesAndShutsDownCleanly) {
  EngineConfig config;
  config.variant = Variant::kFastText;
  const AdaParseEngine engine(config, nullptr,
                              std::make_shared<Cls2Improver>());
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(50, 232)).generate();
  VectorSource source(docs);
  Pipeline pipeline(engine);
  EXPECT_THROW(
      pipeline.run(source,
                   [](std::size_t index, const io::ParseRecord&,
                      const RouteDecision&) {
                     if (index == 3) throw std::runtime_error("sink failed");
                   }),
      std::runtime_error);
  // A fresh run on the same pipeline object still works (no poisoned state).
  VectorSource retry(docs);
  std::size_t count = 0;
  pipeline.run(retry, [&](std::size_t, const io::ParseRecord&,
                          const RouteDecision&) { ++count; });
  EXPECT_EQ(count, docs.size());
}

}  // namespace
}  // namespace adaparse::core
