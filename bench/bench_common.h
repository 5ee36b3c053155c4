// Shared infrastructure for the paper-reproduction bench binaries: flag
// parsing, single-core-sized model configurations, and a method registry
// that runs any Table III row end-to-end on a PreparedData.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/turbo.h"
#include "graphfe/blp.h"
#include "graphfe/deepwalk.h"
#include "ml/gbdt.h"
#include "ml/linear.h"
#include "ml/mlp.h"

namespace turbo::benchx {

/// Aborts unless this binary was built with optimization AND a
/// Release-family CMAKE_BUILD_TYPE: numbers from unoptimized builds are
/// meaningless, and their ratio floors fail or pass for the wrong reason.
/// Set TURBO_ALLOW_DEBUG_BENCH=1 to downgrade the abort to a warning
/// (for smoke-testing bench code paths, never for recording).
void RequireReleaseBuild();

/// --key=value flags with typed getters. Construction runs
/// RequireReleaseBuild(), so every bench using Flags is Release-gated.
class Flags {
 public:
  Flags(int argc, char** argv);
  int GetInt(const std::string& key, int def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key,
                        const std::string& def) const;
  bool GetBool(const std::string& key, bool def) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Model/training sizes tuned for a single-core machine; the paper's
/// settings (hidden 128/64, attention 64) are reachable with
/// --paper_scale=1.
struct BenchScale {
  int users = 4000;
  int epochs = 60;
  std::vector<int> hidden = {48, 24};
  int attention_dim = 24;
  int mlp_hidden = 24;
  int rounds = 3;

  static BenchScale FromFlags(const Flags& flags);
};

gnn::GnnConfig MakeGnnConfig(const BenchScale& s, uint64_t seed);
core::HagConfig MakeHagConfig(const BenchScale& s, uint64_t seed,
                              bool use_sao = true, bool use_cfo = true);
gnn::TrainConfig MakeTrainConfig(const BenchScale& s, uint64_t seed);

/// Table III method names in paper order.
const std::vector<std::string>& TableThreeMethods();

/// Trains method `name` on data's train split and returns test-split
/// fraud probabilities (aligned with data.test_uids). `seed` varies
/// initialization/sampling per round.
///
/// Sampler fidelity: the GNN baselines sample neighbors uniformly, as
/// GCN/GraphSAGE/GAT specify; HAG uses Turbo's weight-guided BN-server
/// sampler (part of the system under reproduction).
std::vector<double> RunMethod(const std::string& name,
                              const core::PreparedData& data,
                              const BenchScale& scale, uint64_t seed);

/// Prepares one PreparedData per round, each with a different train/test
/// split (the paper's "multiple rounds of the same experiment").
std::vector<std::unique_ptr<core::PreparedData>> PrepareRounds(
    const datagen::ScenarioConfig& scenario, int rounds,
    core::PipelineConfig pipeline = {});

/// Full evaluation of one method across rounds (distinct splits and
/// seeds): averaged metrics plus AUC variance (the Variance column).
struct MethodResult {
  metrics::Report mean;
  double auc_variance = 0.0;
};
MethodResult EvaluateMethod(
    const std::string& name,
    const std::vector<std::unique_ptr<core::PreparedData>>& rounds,
    const BenchScale& scale, double threshold = 0.5);

}  // namespace turbo::benchx
