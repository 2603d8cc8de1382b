#include "layers.hpp"

#include <algorithm>
#include <filesystem>

#include "campaign/manifest.hpp"
#include "core/budget.hpp"
#include "core/cls1.hpp"
#include "io/doc_codec.hpp"
#include "io/fsio.hpp"
#include "net/http.hpp"
#include "parsers/registry.hpp"
#include "text/features.hpp"

namespace perfbench {
using namespace adaparse;

namespace {

/// Documents regenerated for the document-source layer. Generation is the
/// slowest layer call, so a sample keeps the replay short.
constexpr std::size_t kRegenerated = 24;
/// Shards packed, unpacked and written for the io layer.
constexpr std::size_t kShardProbes = 4;
constexpr std::size_t kShardDocs = 64;  ///< CampaignConfig's default
constexpr std::size_t kManifestAppends = 64;
constexpr std::size_t kRequestParses = 256;
constexpr double kMandatoryGain = 1e9;  ///< the engine's CLS I-invalid gain

/// What the optimizer may not delete: every measured call's result feeds
/// this, and it is checked once at the end.
std::size_t g_consumed = 0;

std::string_view first_page(const parsers::ParseResult& extraction) {
  for (const auto& page : extraction.pages) {
    if (!page.empty()) return page;
  }
  return {};
}

struct GroupResult {
  std::size_t mismatches = 0;  ///< replayed choice != engine's choice
  std::size_t record_bytes = 0;
};

/// Routes one engine run's documents through the layer calls.
GroupResult replay_group(const ReplayInput& in, const ReplayGroup& group,
                         SpanLog& spans) {
  const core::EngineConfig& config = in.engine->config();
  static const parsers::ParserPtr extractor =
      parsers::make_parser(parsers::ParserKind::kPyMuPdf);
  static const parsers::ParserPtr nougat =
      parsers::make_parser(parsers::ParserKind::kNougat);

  const std::size_t n = group.docs.size();
  std::vector<double> gains(n, 0.0);
  std::vector<bool> readable(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    const doc::Document& document = *group.docs[i];
    const ScopedSpan doc_span(&spans, "replay.document");
    parsers::ParseResult extraction;
    {
      const ScopedSpan s(&spans, "parsers.extract", doc_span.id());
      extraction = extractor->parse(document);
    }
    if (!extraction.ok) {
      readable[i] = false;
      continue;
    }
    const std::string text = extraction.full_text();
    {
      const ScopedSpan s(&spans, "text.compute_features", doc_span.id());
      g_consumed += static_cast<std::size_t>(
          text::compute_features(text).char_count);
    }
    core::Cls1Verdict verdict;
    {
      const ScopedSpan s(&spans, "core.cls1_validate", doc_span.id());
      verdict = core::cls1_validate(text, document.num_pages(),
                                    config.cls1_rules);
    }
    double p = 0.0;
    {
      const ScopedSpan s(&spans, "core.cls2", doc_span.id());
      p = in.models->improver->improvement_probability(document.meta);
    }
    std::vector<double> scores;
    {
      const ScopedSpan s(&spans, "core.predict", doc_span.id());
      scores = in.models->predictor->predict(first_page(extraction),
                                             document.meta.title,
                                             document.meta);
    }
    if (!verdict.valid) {
      gains[i] = kMandatoryGain;
    } else if (config.variant == core::Variant::kFastText) {
      gains[i] = p >= config.cls2_threshold ? p : 0.0;
    } else {
      gains[i] =
          scores[static_cast<std::size_t>(parsers::ParserKind::kNougat)] -
          scores[static_cast<std::size_t>(parsers::ParserKind::kPyMuPdf)];
    }
  }

  std::vector<bool> upgrade(n, false);
  const std::size_t k = std::max<std::size_t>(1, config.batch_size);
  for (std::size_t base = 0; base < n; base += k) {
    const std::vector<double> window(
        gains.begin() + static_cast<std::ptrdiff_t>(base),
        gains.begin() + static_cast<std::ptrdiff_t>(std::min(n, base + k)));
    std::vector<std::size_t> selected;
    {
      const ScopedSpan s(&spans, "core.select_budgeted");
      selected = core::select_budgeted(window, config.alpha,
                                       /*require_positive_gain=*/true);
    }
    for (const std::size_t local : selected) {
      if (readable[base + local]) upgrade[base + local] = true;
    }
  }

  GroupResult result;
  for (std::size_t i = 0; i < n; ++i) {
    const bool engine_upgraded = group.output->decisions.at(i).chosen ==
                                 parsers::ParserKind::kNougat;
    if (engine_upgraded != upgrade[i]) ++result.mismatches;
    if (upgrade[i]) {
      const ScopedSpan s(&spans, "parsers.upgrade");
      g_consumed += nougat->parse(*group.docs[i]).pages.size();
    }
  }
  for (const io::ParseRecord& record : group.output->records) {
    std::string line;
    {
      const ScopedSpan s(&spans, "io.record_serialize");
      line = record.to_json().dump();
    }
    result.record_bytes += line.size();
  }
  return result;
}

}  // namespace

void replay_layers(const ReplayInput& in, SpanLog& spans, Report& report) {
  std::vector<const doc::Document*> all;
  std::size_t mismatches = 0, record_bytes = 0;
  for (const ReplayGroup& group : in.groups) {
    const GroupResult result = replay_group(in, group, spans);
    mismatches += result.mismatches;
    record_bytes += result.record_bytes;
    all.insert(all.end(), group.docs.begin(), group.docs.end());
  }
  if (mismatches > 0) {
    report.fail("replayed routing differs from the engine's decisions on " +
                std::to_string(mismatches) + " of " +
                std::to_string(all.size()) + " documents");
  }

  // Document source: regenerating must reproduce the documents exactly.
  for (std::size_t i = 0; i < std::min(kRegenerated, all.size()); ++i) {
    doc::Document again;
    {
      const ScopedSpan s(&spans, "doc.generate_one");
      again = in.regenerate(i);
    }
    if (io::document_to_json(again).dump() !=
        io::document_to_json(*all[i]).dump()) {
      report.fail("regenerated document " + std::to_string(i) +
                  " differs from the workload's");
    }
  }

  // Shard staging: pack, unpack and durably write shard-sized batches.
  const std::size_t shard_docs = std::min(kShardDocs, all.size());
  for (std::size_t s = 0; s < kShardProbes; ++s) {
    const std::size_t begin = s * shard_docs;
    if (shard_docs == 0 || begin + shard_docs > all.size()) break;
    std::vector<doc::Document> shard;
    for (std::size_t i = begin; i < begin + shard_docs; ++i) {
      shard.push_back(*all[i]);
    }
    std::string blob;
    {
      const ScopedSpan span(&spans, "io.pack_corpus_shard");
      blob = io::pack_corpus_shard(shard);
    }
    std::vector<doc::Document> unpacked;
    {
      const ScopedSpan span(&spans, "io.unpack_corpus_shard");
      unpacked = io::unpack_corpus_shard(blob);
    }
    if (unpacked.size() != shard.size() ||
        unpacked.back().id != shard.back().id) {
      report.fail("shard round trip lost documents");
    }
    const std::string path =
        (std::filesystem::path(in.scratch_dir) /
         ("shard-" + std::to_string(s) + ".bin")).string();
    const ScopedSpan span(&spans, "io.write_file_atomic");
    io::write_file_atomic(path, blob);
  }

  {
    campaign::ManifestWriter manifest(
        (std::filesystem::path(in.scratch_dir) / "manifest.jsonl").string());
    for (std::size_t i = 0; i < kManifestAppends; ++i) {
      campaign::ShardRecord record;
      record.index = i;
      record.docs = kShardDocs;
      record.bytes = 4 << 20;
      record.checksum = 0x9E3779B97F4A7C15ULL * (i + 1);
      const ScopedSpan span(&spans, "campaign.manifest_append");
      manifest.append(record);
    }
  }

  for (std::size_t i = 0; i < kRequestParses; ++i) {
    net::http::RequestParser parser;
    std::size_t consumed = 0;
    net::http::ParseStatus status;
    {
      const ScopedSpan span(&spans, "net.request_parse");
      status = parser.consume(in.request_bytes, &consumed);
    }
    if (status != net::http::ParseStatus::kComplete) {
      report.fail("the workload's request does not parse as one request");
      break;
    }
    g_consumed += parser.request().body.size();
  }
  if (g_consumed == 0) report.fail("replay produced no output");

  const auto ms = [&](const char* name) { return spans.mean_seconds(name) * 1e3; };
  const auto us = [&](const char* name) { return spans.mean_seconds(name) * 1e6; };
  report.set("doc.generate_ms_per_doc", ms("doc.generate_one"));
  report.set("parsers.extract_ms_per_doc", ms("parsers.extract"));
  report.set("text.features_us_per_doc", us("text.compute_features"));
  report.set("core.cls1_us_per_doc", us("core.cls1_validate"));
  report.set("core.predict_us_per_doc", us("core.predict"));
  report.set("core.cls2_us_per_doc", us("core.cls2"));
  report.set("core.budget_us_per_window", us("core.select_budgeted"));
  report.set("parsers.upgrade_ms_per_doc", ms("parsers.upgrade"));
  report.set("io.record_serialize_us_per_doc", us("io.record_serialize"));
  report.set("io.record_bytes_per_doc",
             static_cast<double>(record_bytes) /
                 static_cast<double>(std::max<std::size_t>(1, all.size())));
  report.set("io.shard_pack_ms_per_shard", ms("io.pack_corpus_shard"));
  report.set("io.shard_unpack_ms_per_shard", ms("io.unpack_corpus_shard"));
  report.set("io.atomic_write_ms_per_shard", ms("io.write_file_atomic"));
  report.set("campaign.manifest_append_us", us("campaign.manifest_append"));
  report.set("net.request_parse_us", us("net.request_parse"));
}

void report_engine_stats(const std::vector<core::EngineStats>& runs,
                         Report& report) {
  double wall = 0.0, docs = 0.0, cls1_invalid = 0.0, nougat = 0.0;
  core::PipelineStats sum;
  const auto add = [](core::StageStats& into, const core::StageStats& from) {
    into.busy_seconds += from.busy_seconds;
    into.idle_seconds += from.idle_seconds;
  };
  for (const core::EngineStats& run : runs) {
    wall += run.wall_seconds;
    docs += static_cast<double>(run.total_docs);
    cls1_invalid += static_cast<double>(run.cls1_invalid);
    nougat += static_cast<double>(run.routed_to_nougat);
    add(sum.prefetch, run.pipeline.prefetch);
    add(sum.extract, run.pipeline.extract);
    add(sum.route, run.pipeline.route);
    add(sum.upgrade, run.pipeline.upgrade);
    add(sum.write, run.pipeline.write);
  }
  wall = std::max(wall, 1e-12);
  docs = std::max(docs, 1.0);
  report.set("pipeline.prefetch.busy_share", sum.prefetch.busy_seconds / wall);
  report.set("pipeline.extract.busy_share", sum.extract.busy_seconds / wall);
  report.set("pipeline.extract.idle_share", sum.extract.idle_seconds / wall);
  report.set("pipeline.route.busy_share", sum.route.busy_seconds / wall);
  report.set("pipeline.upgrade.busy_share", sum.upgrade.busy_seconds / wall);
  report.set("pipeline.write.busy_share", sum.write.busy_seconds / wall);
  report.set("core.cls1_reject_rate", cls1_invalid / docs);
  report.set("core.nougat_share", nougat / docs);
}

}  // namespace perfbench
