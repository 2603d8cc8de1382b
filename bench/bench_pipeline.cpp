// Streaming-pipeline throughput benchmark: barrier-staged run_barrier()
// vs the backpressured streaming Pipeline on the same corpus and engine.
//
// Verifies the outputs are byte-identical, reports wall-clock for both
// execution modes plus per-stage busy/idle and the resident-extraction
// high-water mark, and emits machine-readable BENCH_pipeline.json for CI.
// Exits non-zero on any output mismatch, or when the streaming route stage
// is busy for more than 10% of the wall time: scoring belongs on the
// extract workers, and the router should only apply the window budget.
//
//   ADAPARSE_BENCH_N     corpus size (default 1000)
//   ADAPARSE_BENCH_REPS  timed repetitions per mode (default 3, best-of)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "doc/generator.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace adaparse;

namespace {

util::Json stage_json(const core::StageStats& stage) {
  util::JsonObject obj;
  obj["busy_seconds"] = stage.busy_seconds;
  obj["idle_seconds"] = stage.idle_seconds;
  obj["items"] = stage.items;
  obj["peak_queue_depth"] = stage.peak_queue_depth;
  return util::Json(std::move(obj));
}

}  // namespace

int main() {
  util::Stopwatch total;
  const std::size_t n = bench::env().eval_docs;
  int reps = 3;
  if (const char* env_reps = std::getenv("ADAPARSE_BENCH_REPS")) {
    reps = std::max(1, std::atoi(env_reps));
  }
  const auto docs =
      doc::CorpusGenerator(doc::benchmark_config(n, 0xF1BE)).generate();
  std::cout << "== streaming pipeline vs barrier staging (n=" << docs.size()
            << ", best of " << reps << ") ==\n";

  const auto& bundle = bench::trained_bundle(/*with_dpo=*/true);
  const core::AdaParseEngine& engine = *bundle.llm;
  const core::Pipeline pipeline(engine);

  // Warm-up once per mode (page-cache/allocator effects), then best-of.
  core::RunOutput barrier = engine.run_barrier(docs);
  core::RunOutput streaming = pipeline.run_collect(docs);
  double barrier_wall = barrier.stats.wall_seconds;
  double streaming_wall = streaming.stats.wall_seconds;
  for (int r = 1; r < reps; ++r) {
    auto b = engine.run_barrier(docs);
    barrier_wall = std::min(barrier_wall, b.stats.wall_seconds);
    auto s = pipeline.run_collect(docs);
    if (s.stats.wall_seconds < streaming_wall) {
      streaming_wall = s.stats.wall_seconds;
      streaming = std::move(s);
    }
  }

  // Equivalence: the refactor must not change a single output byte.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (streaming.records[i].to_json().dump() !=
        barrier.records[i].to_json().dump()) {
      ++mismatches;
    }
  }

  const auto& ps = streaming.stats.pipeline;
  constexpr double kMaxRouteBusyShare = 0.10;
  const double route_busy_share = ps.route.busy_seconds / streaming_wall;
  const bool route_ok = route_busy_share <= kMaxRouteBusyShare;
  util::Table table({"Mode", "wall (s)", "docs/s", "routed", "peak resident"});
  table.row()
      .add("barrier (4-stage)")
      .add(barrier_wall, 2)
      .add(static_cast<double>(docs.size()) / barrier_wall, 1)
      .add(barrier.stats.routed_to_nougat)
      .add(docs.size());  // everything extracted before routing starts
  table.row()
      .add("streaming pipeline")
      .add(streaming_wall, 2)
      .add(static_cast<double>(docs.size()) / streaming_wall, 1)
      .add(streaming.stats.routed_to_nougat)
      .add(ps.peak_resident_extractions);
  table.print(std::cout);
  std::cout << "speedup: " << util::format_fixed(barrier_wall / streaming_wall, 2)
            << "x, identical outputs: " << (mismatches == 0 ? "yes" : "NO")
            << " (" << mismatches << " mismatches)\n"
            << "resident window: " << ps.resident_window << " documents ("
            << util::format_fixed(
                   100.0 * static_cast<double>(ps.resident_window) /
                       static_cast<double>(docs.size()),
                   1)
            << "% of corpus)\n"
            << "route busy share: "
            << util::format_fixed(100.0 * route_busy_share, 1) << "% of wall"
            << (route_ok ? "" : " — OVER the 10% gate") << "\n\n";

  util::Table stages({"Stage", "busy (s)", "idle (s)", "items", "peak queue"});
  const std::pair<const char*, const core::StageStats*> rows[] = {
      {"prefetch", &ps.prefetch}, {"extract", &ps.extract},
      {"route", &ps.route},       {"upgrade", &ps.upgrade},
      {"write", &ps.write}};
  for (const auto& [name, stage] : rows) {
    stages.row()
        .add(name)
        .add(stage->busy_seconds, 2)
        .add(stage->idle_seconds, 2)
        .add(stage->items)
        .add(stage->peak_queue_depth);
  }
  stages.print(std::cout);

  util::JsonObject out;
  out["bench"] = "pipeline";
  out["n"] = docs.size();
  out["reps"] = reps;
  out["barrier_wall_seconds"] = barrier_wall;
  out["streaming_wall_seconds"] = streaming_wall;
  out["speedup"] = barrier_wall / streaming_wall;
  out["identical_outputs"] = mismatches == 0;
  out["mismatches"] = mismatches;
  out["routed_to_nougat"] = streaming.stats.routed_to_nougat;
  out["queue_capacity"] = ps.queue_capacity;
  out["resident_window"] = ps.resident_window;
  out["peak_resident_extractions"] = ps.peak_resident_extractions;
  out["route_busy_share"] = route_busy_share;
  util::JsonObject stage_obj;
  for (const auto& [name, stage] : rows) stage_obj[name] = stage_json(*stage);
  out["stages"] = util::Json(std::move(stage_obj));
  {
    std::ofstream json_file("BENCH_pipeline.json");
    json_file << util::Json(std::move(out)).dump() << '\n';
  }
  std::cout << "\nwrote BENCH_pipeline.json; wall time: "
            << util::format_fixed(total.seconds(), 1) << " s\n";
  return mismatches == 0 && route_ok ? 0 : 1;
}
