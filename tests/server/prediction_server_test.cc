// End-to-end serving tests: scenario -> trained HAG -> streaming replay
// of audit requests (each request handled at its user's audit moment,
// like production, so BN edges and burst features are live).
#include "server/prediction_server.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/turbo.h"
#include "metrics/metrics.h"

namespace turbo::server {
namespace {

struct Replay {
  std::vector<UserId> uids;
  std::vector<int> labels;
  std::vector<PredictionResponse> responses;
};

class PredictionServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Offline phase: train a small HAG on a scenario.
    auto ds = datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(800));
    core::PipelineConfig pcfg;
    pcfg.bn.windows = {kHour, 6 * kHour, kDay};
    data_ = core::PrepareData(std::move(ds), pcfg).release();
    core::HagConfig hcfg;
    hcfg.hidden = {16, 8};
    hcfg.attention_dim = 8;
    hcfg.mlp_hidden = 8;
    model_ = new core::Hag(hcfg);
    gnn::TrainConfig tcfg;
    tcfg.epochs = 25;
    tcfg.lr = 2e-3f;
    core::TrainAndScoreGnn(model_, *data_, bn::SamplerConfig{}, tcfg);

    // Online phase: stand up servers over the same scenario.
    BnServerConfig bcfg;
    bcfg.bn = pcfg.bn;
    bcfg.num_users = 800;
    bn_ = new BnServer(bcfg);
    bn_->IngestBatch(data_->dataset.logs);

    features::FeatureStoreConfig fcfg;
    features_ = new features::FeatureStore(fcfg, &bn_->logs());
    for (UserId u = 0; u < 800; ++u) {
      const float* row = data_->dataset.profile_features.row(u);
      features_->PutProfile(
          u, std::vector<float>(
                 row, row + data_->dataset.profile_features.cols()));
    }
    metrics_ = new obs::MetricsRegistry();
    PredictionConfig scfg;
    scfg.metrics = metrics_;
    server_ = new PredictionServer(scfg, bn_, features_, model_,
                                   &data_->scaler);

    // Streaming replay: handle every test user at application + 24h,
    // in audit-time order.
    replay_ = new Replay();
    std::vector<UserId> order = data_->test_uids;
    std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
      return data_->dataset.users[a].application_time <
             data_->dataset.users[b].application_time;
    });
    for (UserId u : order) {
      bn_->AdvanceTo(data_->dataset.users[u].application_time + kDay);
      replay_->uids.push_back(u);
      replay_->labels.push_back(data_->labels[u]);
      replay_->responses.push_back(server_->Handle(u));
    }
  }
  static void TearDownTestSuite() {
    delete replay_;
    delete server_;
    delete metrics_;
    delete features_;
    delete bn_;
    delete model_;
    delete data_;
    server_ = nullptr;
  }

  static core::PreparedData* data_;
  static core::Hag* model_;
  static BnServer* bn_;
  static features::FeatureStore* features_;
  static obs::MetricsRegistry* metrics_;
  static PredictionServer* server_;
  static Replay* replay_;
};

core::PreparedData* PredictionServerTest::data_ = nullptr;
core::Hag* PredictionServerTest::model_ = nullptr;
BnServer* PredictionServerTest::bn_ = nullptr;
features::FeatureStore* PredictionServerTest::features_ = nullptr;
obs::MetricsRegistry* PredictionServerTest::metrics_ = nullptr;
PredictionServer* PredictionServerTest::server_ = nullptr;
Replay* PredictionServerTest::replay_ = nullptr;

TEST_F(PredictionServerTest, ResponseFieldsPopulated) {
  for (const auto& resp : replay_->responses) {
    ASSERT_GE(resp.fraud_probability, 0.0);
    ASSERT_LE(resp.fraud_probability, 1.0);
    ASSERT_GE(resp.subgraph_nodes, 1);
    ASSERT_GT(resp.total_ms, 0.0);
    ASSERT_NEAR(resp.total_ms,
                resp.sampling_ms + resp.feature_ms + resp.inference_ms,
                1e-9);
  }
}

TEST_F(PredictionServerTest, LatencyHistogramsRecordEveryRequest) {
  EXPECT_EQ(server_->total_latency().count(), replay_->responses.size());
  EXPECT_EQ(server_->sampling_latency().count(),
            replay_->responses.size());
  EXPECT_GT(server_->total_latency().Mean(), 0.0);
}

TEST_F(PredictionServerTest, MetricsRegistryExposesServingPath) {
  const auto& reg = server_->metrics();
  const std::string text = reg.RenderText();
  for (const char* name :
       {"predict_requests_total", "predict_sample_ms",
        "predict_feature_ms", "predict_inference_ms", "predict_total_ms",
        "predict_subgraph_nodes", "predict_feature_rows"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // The server fetches features only for the rows HAG reads, fewer than
  // it samples over the replay.
  const obs::Histogram* sampled =
      metrics_->GetHistogram("predict_subgraph_nodes");
  const obs::Histogram* fetched =
      metrics_->GetHistogram("predict_feature_rows");
  EXPECT_EQ(fetched->count(), replay_->responses.size());
  EXPECT_LT(fetched->Sum(), sampled->Sum());
  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"predict_total_ms\""), std::string::npos);
  // Request ids are per-server and monotonic.
  for (size_t i = 0; i < replay_->responses.size(); ++i) {
    EXPECT_EQ(replay_->responses[i].request_id, i + 1);
  }
}

TEST_F(PredictionServerTest, BnServerMetricsTrackIngestAndJobs) {
  const auto& reg = bn_->metrics();
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("bn_ingest_events_total"), std::string::npos);
  EXPECT_NE(text.find("bn_window_jobs_total"), std::string::npos);
  EXPECT_NE(text.find("bn_snapshot_builds_total"), std::string::npos);
}

TEST_F(PredictionServerTest, OnlineScoresRankFraudHigh) {
  std::vector<double> scores;
  for (const auto& r : replay_->responses) {
    scores.push_back(r.fraud_probability);
  }
  const double auc = metrics::RocAuc(scores, replay_->labels);
  EXPECT_GT(auc, 0.8) << "online replay AUC";
}

TEST_F(PredictionServerTest, FraudSubgraphsAreLarger) {
  double fraud_nodes = 0, normal_nodes = 0;
  int nf = 0, nn = 0;
  for (size_t i = 0; i < replay_->responses.size(); ++i) {
    if (replay_->labels[i]) {
      fraud_nodes += replay_->responses[i].subgraph_nodes;
      ++nf;
    } else {
      normal_nodes += replay_->responses[i].subgraph_nodes;
      ++nn;
    }
  }
  ASSERT_GT(nf, 0);
  ASSERT_GT(nn, 0);
  EXPECT_GT(fraud_nodes / nf, normal_nodes / nn);
}

/// Sigmoid as GnnTrainer computes it from a float logit.
double Sigmoid(float z) {
  return z >= 0.0f ? 1.0 / (1.0 + std::exp(-z))
                   : std::exp(z) / (1.0 + std::exp(z));
}

TEST_F(PredictionServerTest, HandleBatchEqualsUnprunedForwardBitForBit) {
  // The reference rebuilds the request path without pruning: every
  // sampled node's features, every adjacency view, and HAG's tape-free
  // forward over every row. The server must serve its probabilities bit
  // for bit, whatever `use_inference_path` says: the field is inert.
  auto reference = [&](const std::vector<UserId>& uids) {
    const bn::Subgraph sg = bn_->SampleSubgraph(uids);
    la::Matrix raw;
    for (size_t i = 0; i < sg.nodes.size(); ++i) {
      const auto row = features_->GetFeatures(sg.nodes[i], bn_->now());
      if (raw.empty()) raw = la::Matrix(sg.nodes.size(), row.size());
      std::copy(row.begin(), row.end(), raw.row(i));
    }
    bn::Subgraph local = sg;
    for (size_t i = 0; i < local.nodes.size(); ++i) {
      local.nodes[i] = static_cast<UserId>(i);
    }
    const gnn::GraphBatch batch =
        gnn::MakeGraphBatch(local, data_->scaler.Transform(raw));
    const la::Matrix logits = model_->LogitsInference(batch);
    std::vector<double> out;
    for (UserId u : uids) out.push_back(Sigmoid(logits(sg.local.at(u), 0)));
    return out;
  };

  size_t checked = 0;
  for (bool inference_path : {false, true}) {
    SCOPED_TRACE(::testing::Message()
                 << "use_inference_path=" << inference_path);
    PredictionConfig cfg;
    cfg.use_inference_path = inference_path;
    PredictionServer fresh(cfg, bn_, features_, model_, &data_->scaler);
    std::vector<std::vector<UserId>> batches;
    for (size_t i = 0; i + 8 <= replay_->uids.size() && i < 64; i += 8) {
      batches.emplace_back(replay_->uids.begin() + i,
                           replay_->uids.begin() + i + 8);
    }
    for (size_t i = 0; i < replay_->uids.size() && i < 32; ++i) {
      batches.push_back({replay_->uids[replay_->uids.size() - 1 - i]});
    }
    for (const auto& uids : batches) {
      const auto served = fresh.HandleBatch(uids);
      const auto want = reference(uids);
      for (size_t j = 0; j < uids.size(); ++j) {
        EXPECT_EQ(served[j].fraud_probability, want[j]) << "uid " << uids[j];
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2u * (64 + 32));
}

TEST_F(PredictionServerTest, DuplicateUidsInOneBatchGetIdenticalScores) {
  // A batch naming one user several times (client retry racing its
  // original) collapses to a single sampler target; every position must
  // still receive that user's probability — previously this tripped a
  // CHECK in the sampler and, with it removed, would have misaligned the
  // probability-to-slot mapping.
  PredictionConfig cfg;
  cfg.cache_capacity = 0;  // force all positions down the compute path
  PredictionServer fresh(cfg, bn_, features_, model_, &data_->scaler);
  const UserId a = replay_->uids.front();
  const UserId b = replay_->uids.back();
  ASSERT_NE(a, b);
  const auto batch = fresh.HandleBatch({a, b, a, a, b});
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_DOUBLE_EQ(batch[0].fraud_probability, batch[2].fraud_probability);
  EXPECT_DOUBLE_EQ(batch[0].fraud_probability, batch[3].fraud_probability);
  EXPECT_DOUBLE_EQ(batch[1].fraud_probability, batch[4].fraud_probability);
  // Distinct users keep distinct, valid scores — the remap did not smear
  // one row over the whole batch.
  for (const auto& r : batch) {
    EXPECT_GE(r.fraud_probability, 0.0);
    EXPECT_LE(r.fraud_probability, 1.0);
  }
  // A duplicate-heavy batch equals the deduplicated batch position-wise:
  // both sample the same {a, b} union subgraph.
  const auto dedup = fresh.HandleBatch({a, b});
  EXPECT_DOUBLE_EQ(batch[0].fraud_probability, dedup[0].fraud_probability);
  EXPECT_DOUBLE_EQ(batch[1].fraud_probability, dedup[1].fraud_probability);
}

TEST_F(PredictionServerTest, ThresholdControlsBlocking) {
  PredictionConfig strict;
  strict.threshold = 0.0;  // block everyone
  PredictionServer block_all(strict, bn_, features_, model_,
                             &data_->scaler);
  EXPECT_TRUE(block_all.Handle(replay_->uids.back()).blocked);

  PredictionConfig lax;
  lax.threshold = 1.01;  // block no one
  PredictionServer block_none(lax, bn_, features_, model_, &data_->scaler);
  EXPECT_FALSE(block_none.Handle(replay_->uids.back()).blocked);
}

TEST_F(PredictionServerTest, RepeatRequestsBenefitFromFeatureCache) {
  // Compare the modeled storage cost (SimClock), which is deterministic:
  // feature_ms also contains real wall-clock compute, whose noise dwarfs
  // the cache saving on a warm repeat (and flakes under sanitizers).
  UserId u = replay_->uids.back();
  // A fresh hour bucket forces a stat-feature cache miss on the first
  // read; the repeat must be served from the LRU at in-memory cost.
  const SimTime as_of = bn_->now() + kHour;
  storage::SimClock miss_clock;
  storage::SimClock hit_clock;
  ASSERT_FALSE(features_->GetFeatures(u, as_of, &miss_clock).empty());
  ASSERT_FALSE(features_->GetFeatures(u, as_of, &hit_clock).empty());
  EXPECT_LT(hit_clock.ElapsedMicros(), miss_clock.ElapsedMicros());
}

TEST(PredictionServerDeathTest, QuantizedInferenceIsRejected) {
  BnServerConfig bcfg;
  bcfg.num_users = 4;
  BnServer bn(bcfg);
  features::FeatureStore features(features::FeatureStoreConfig{},
                                  &bn.logs());
  core::Hag model;
  ml::StandardScaler scaler;
  PredictionConfig cfg;
  cfg.quantized_inference = true;
  EXPECT_DEATH(PredictionServer(cfg, &bn, &features, &model, &scaler),
               "int8 serving was removed");
}

}  // namespace
}  // namespace turbo::server
