#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "gnn/sage.h"

// Stamped by bench/CMakeLists.txt with the generator's $<CONFIG>; empty
// when the build directory was configured without CMAKE_BUILD_TYPE.
#ifndef TURBO_BENCH_BUILD_TYPE
#define TURBO_BENCH_BUILD_TYPE ""
#endif

namespace turbo::benchx {

void RequireReleaseBuild() {
  const std::string build_type = TURBO_BENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  // Release and RelWithDebInfo both qualify; MinSizeRel trades speed for
  // size, so it does not.
  const bool release_like =
      optimized &&
      (build_type == "Release" || build_type == "RelWithDebInfo");
  if (release_like) return;
  std::fprintf(stderr,
               "bench built from a non-Release configuration "
               "(CMAKE_BUILD_TYPE=\"%s\", optimization %s) — numbers "
               "would be meaningless.\n",
               build_type.c_str(), optimized ? "on" : "off");
  if (std::getenv("TURBO_ALLOW_DEBUG_BENCH") != nullptr) {
    std::fprintf(stderr,
                 "TURBO_ALLOW_DEBUG_BENCH set: continuing anyway; do NOT "
                 "record these numbers.\n");
    return;
  }
  std::fprintf(stderr,
               "Reconfigure with -DCMAKE_BUILD_TYPE=Release (or set "
               "TURBO_ALLOW_DEBUG_BENCH=1 to smoke-test).\n");
  std::exit(1);
}

Flags::Flags(int argc, char** argv) {
  RequireReleaseBuild();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    const bool bare = eq == std::string::npos;  // `--key` means key=1
    kv_[arg.substr(2, bare ? std::string::npos : eq - 2)] =
        bare ? std::string("1") : arg.substr(eq + 1);
  }
}

int Flags::GetInt(const std::string& key, int def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stoi(it->second);
}

double Flags::GetDouble(const std::string& key, double def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stod(it->second);
}

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second != "0" && it->second != "false";
}

BenchScale BenchScale::FromFlags(const Flags& flags) {
  BenchScale s;
  if (flags.GetBool("paper_scale", false)) {
    s.users = 67072;
    s.hidden = {128, 64};
    s.attention_dim = 64;
    s.mlp_hidden = 32;
    s.epochs = 100;
  }
  s.users = flags.GetInt("users", s.users);
  s.epochs = flags.GetInt("epochs", s.epochs);
  s.rounds = flags.GetInt("rounds", s.rounds);
  return s;
}

gnn::GnnConfig MakeGnnConfig(const BenchScale& s, uint64_t seed) {
  gnn::GnnConfig cfg;
  cfg.hidden = s.hidden;
  cfg.attention_dim = s.attention_dim;
  cfg.mlp_hidden = s.mlp_hidden;
  cfg.seed = seed;
  return cfg;
}

core::HagConfig MakeHagConfig(const BenchScale& s, uint64_t seed,
                              bool use_sao, bool use_cfo) {
  core::HagConfig cfg;
  static_cast<gnn::GnnConfig&>(cfg) = MakeGnnConfig(s, seed);
  cfg.use_sao = use_sao;
  cfg.use_cfo = use_cfo;
  return cfg;
}

gnn::TrainConfig MakeTrainConfig(const BenchScale& s, uint64_t seed) {
  gnn::TrainConfig cfg;
  cfg.epochs = s.epochs;
  cfg.lr = 1e-3f;
  cfg.seed = seed;
  return cfg;
}

const std::vector<std::string>& TableThreeMethods() {
  static const std::vector<std::string> kMethods = {
      "LR",  "SVM", "GBDT", "DNN",  "GCN",  "G-SAGE",
      "GAT", "BLP", "DTX1", "DTX2", "HAG"};
  return kMethods;
}

namespace {

std::vector<double> RunFeatureModel(ml::BinaryClassifier* model,
                                    const core::PreparedData& data) {
  model->Fit(data.FeaturesFor(data.train_uids),
             data.LabelsFor(data.train_uids));
  return model->PredictProba(data.FeaturesFor(data.test_uids));
}

const graphfe::BipartiteGraph& CachedBipartite(
    const core::PreparedData& data) {
  // The bipartite graph depends only on the dataset; cache per dataset
  // pointer so DTX1/DTX2/BLP share it within one bench process.
  static const core::PreparedData* cached_for = nullptr;
  static std::unique_ptr<graphfe::BipartiteGraph> graph;
  if (cached_for != &data) {
    graph = std::make_unique<graphfe::BipartiteGraph>(
        graphfe::BipartiteGraph::FromLogs(
            data.dataset.logs, static_cast<int>(data.dataset.users.size())));
    cached_for = &data;
  }
  return *graph;
}

}  // namespace

std::vector<double> RunMethod(const std::string& name,
                              const core::PreparedData& data,
                              const BenchScale& scale, uint64_t seed) {
  const auto y_train = data.LabelsFor(data.train_uids);
  if (name == "LR") {
    ml::LogisticRegressionConfig cfg;
    cfg.seed = seed;
    // Grid-searched like the paper's baselines; the balanced weight
    // over-fires at threshold 0.5 on 1.4% positives.
    cfg.positive_weight = 5.0;
    ml::LogisticRegression m(cfg);
    return RunFeatureModel(&m, data);
  }
  if (name == "SVM") {
    ml::LinearSvmConfig cfg;
    cfg.seed = seed;
    cfg.positive_weight = 5.0;
    ml::LinearSvm m(cfg);
    return RunFeatureModel(&m, data);
  }
  if (name == "GBDT") {
    ml::GbdtConfig cfg;
    cfg.seed = seed;
    ml::Gbdt m(cfg);
    return RunFeatureModel(&m, data);
  }
  if (name == "DNN") {
    ml::MlpConfig cfg;
    cfg.seed = seed;
    ml::Mlp m(cfg);
    return RunFeatureModel(&m, data);
  }
  // GNN baselines sample uniformly, per their papers; Turbo's BN server
  // samples by weight (SamplerConfig default).
  bn::SamplerConfig uniform_sampler;
  uniform_sampler.top_by_weight = false;
  if (name == "GCN") {
    gnn::Gcn m(MakeGnnConfig(scale, seed));
    return core::TrainAndScoreGnn(&m, data, uniform_sampler,
                                  MakeTrainConfig(scale, seed));
  }
  if (name == "G-SAGE") {
    gnn::GraphSage m(MakeGnnConfig(scale, seed));
    return core::TrainAndScoreGnn(&m, data, uniform_sampler,
                                  MakeTrainConfig(scale, seed));
  }
  if (name == "GAT") {
    gnn::Gat m(MakeGnnConfig(scale, seed));
    auto cfg = MakeTrainConfig(scale, seed);
    cfg.lr = 5e-3f;  // attention heads need a larger step (see tests)
    return core::TrainAndScoreGnn(&m, data, uniform_sampler, cfg);
  }
  if (name == "BLP") {
    graphfe::BlpConfig cfg;
    cfg.gbdt.seed = seed;
    graphfe::Blp m(cfg, CachedBipartite(data));
    m.Fit(data.features, data.train_uids, y_train);
    return m.Predict(data.features, data.test_uids);
  }
  if (name == "DTX1" || name == "DTX2") {
    graphfe::DeepTraxConfig cfg;
    cfg.gbdt.seed = seed;
    cfg.walk.seed = seed + 1;
    cfg.include_original_features = (name == "DTX2");
    graphfe::DeepTrax m(cfg, CachedBipartite(data));
    m.Fit(data.features, data.train_uids, y_train);
    return m.Predict(data.features, data.test_uids);
  }
  if (name == "HAG" || name == "SAO(-)" || name == "CFO(-)" ||
      name == "Both(-)") {
    const bool use_sao = (name == "HAG" || name == "CFO(-)");
    const bool use_cfo = (name == "HAG" || name == "SAO(-)");
    core::Hag m(MakeHagConfig(scale, seed, use_sao, use_cfo));
    return core::TrainAndScoreGnn(&m, data, bn::SamplerConfig{},
                                  MakeTrainConfig(scale, seed));
  }
  TURBO_CHECK_MSG(false, "unknown method " << name);
  return {};
}

std::vector<std::unique_ptr<core::PreparedData>> PrepareRounds(
    const datagen::ScenarioConfig& scenario, int rounds,
    core::PipelineConfig pipeline) {
  std::vector<std::unique_ptr<core::PreparedData>> out;
  for (int round = 0; round < rounds; ++round) {
    pipeline.split_seed = 7 + 13 * round;
    out.push_back(
        core::PrepareData(datagen::GenerateScenario(scenario), pipeline));
  }
  return out;
}

MethodResult EvaluateMethod(
    const std::string& name,
    const std::vector<std::unique_ptr<core::PreparedData>>& rounds,
    const BenchScale& scale, double threshold) {
  std::vector<double> p, r, f1, f2, auc;
  for (size_t round = 0; round < rounds.size(); ++round) {
    const auto& data = *rounds[round];
    const auto labels = data.LabelsFor(data.test_uids);
    auto scores = RunMethod(name, data, scale, 1000 + 31 * round);
    auto rep = metrics::Evaluate(scores, labels, threshold);
    p.push_back(rep.precision_pct);
    r.push_back(rep.recall_pct);
    f1.push_back(rep.f1_pct);
    f2.push_back(rep.f2_pct);
    auc.push_back(rep.auc_pct);
  }
  MethodResult res;
  res.mean = {metrics::Aggregate(p).mean, metrics::Aggregate(r).mean,
              metrics::Aggregate(f1).mean, metrics::Aggregate(f2).mean,
              metrics::Aggregate(auc).mean};
  res.auc_variance = metrics::Aggregate(auc).variance;
  return res;
}

}  // namespace turbo::benchx
