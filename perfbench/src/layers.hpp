// The traced layer replay: the workload's documents sent through each
// layer's public function one call at a time, each call under a span, so
// every layer's cost is measured where it happens. The replay also routes
// the documents itself (CLS I, then CLS III or CLS II, then the floor(a*k)
// budget per window) and checks its choices against the engine's.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/training.hpp"
#include "harness.hpp"

namespace perfbench {

/// The documents of one engine run and what the engine made of them.
struct ReplayGroup {
  std::vector<const adaparse::doc::Document*> docs;
  const adaparse::core::RunOutput* output = nullptr;
};

struct ReplayInput {
  const adaparse::core::AdaParseEngine* engine = nullptr;
  const adaparse::core::TrainedAdaParse* models = nullptr;
  std::vector<ReplayGroup> groups;
  /// Regenerates document i of the groups' documents in order (the
  /// document-source layer); the replay checks it equals the original.
  std::function<adaparse::doc::Document(std::size_t)> regenerate;
  /// The workload's POST /v1/parse request, fed to the HTTP parser.
  std::string request_bytes;
  /// Scratch directory for the shard-write and manifest probes.
  std::string scratch_dir;
};

/// Runs the replay, checks its routing against every group's decisions,
/// and sets the per-layer metrics measured by layer calls.
void replay_layers(const ReplayInput& input, SpanLog& spans, Report& report);

/// Sets the pipeline.* shares (stage busy or idle seconds over wall
/// seconds, summed over `runs`) and the routing outcome rates.
void report_engine_stats(const std::vector<adaparse::core::EngineStats>& runs,
                         Report& report);

}  // namespace perfbench
