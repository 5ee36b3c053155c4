// Admission control under load (DESIGN.md "Open-loop load & admission
// control"): the bounded ingest ring in front of BnServer, deadline
// shedding and queue-cap rejection in the prediction batching queue,
// and the open-loop load generator's accounting invariants. The served
// path must be byte-for-byte unaffected by admission control — shedding
// may only remove work, never change it.
#include <chrono>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "core/turbo.h"
#include "server/bn_server.h"
#include "server/load_gen.h"
#include "server/prediction_server.h"

namespace turbo::server {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// BnServer ingest ring: equivalence with direct ingestion, backpressure.

BnServerConfig RingConfig(size_t ring_capacity) {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = 64;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.ingest_queue_capacity = ring_capacity;
  return cfg;
}

BehaviorLogList RingTraffic(int n) {
  BehaviorLogList logs;
  for (int i = 0; i < n; ++i) {
    const SimTime t = (i * 977L * kMinute) % kDay;
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 13 % 64),
                               BehaviorType::kIpv4,
                               static_cast<ValueId>(1 + i % 9), t});
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 7 % 64),
                               BehaviorType::kWifiMac,
                               static_cast<ValueId>(100 + i % 5), t});
  }
  return logs;
}

TEST(IngestRingTest, OfferPlusDrainMatchesDirectIngest) {
  const BehaviorLogList traffic = RingTraffic(300);

  BnServer direct(RingConfig(0));
  direct.IngestBatch(traffic);
  direct.AdvanceTo(2 * kDay);

  BnServer queued(RingConfig(64));
  size_t applied = 0;
  for (const auto& log : traffic) {
    // The ring is smaller than the traffic, so the producer must yield
    // to the writer; a full ring here is backpressure working, not a
    // failure.
    while (!queued.OfferIngest(log)) {
      applied += queued.DrainIngest();
    }
  }
  applied += queued.DrainIngest();
  queued.AdvanceTo(2 * kDay);

  // The drained server is bit-identical to the direct one.
  EXPECT_EQ(applied, traffic.size());
  EXPECT_EQ(queued.ingest_queue_depth(), 0u);
  EXPECT_EQ(queued.FirstDifference(direct), "");
}

TEST(IngestRingTest, FullRingRejectsAndCounts) {
  obs::MetricsRegistry registry;
  BnServerConfig cfg = RingConfig(8);
  cfg.metrics = &registry;
  BnServer server(cfg);

  const BehaviorLog log{3, BehaviorType::kIpv4, 7, kHour};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.OfferIngest(log)) << i;
  }
  EXPECT_FALSE(server.OfferIngest(log));
  EXPECT_FALSE(server.OfferIngest(log));
  EXPECT_EQ(registry.GetCounter("bn_ingest_rejected_total")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("bn_ingest_queued_total")->value(), 8u);
  EXPECT_EQ(server.ingest_queue_depth(), 8u);

  // Rejected logs were dropped, accepted ones apply exactly once.
  EXPECT_EQ(server.DrainIngest(), 8u);
  EXPECT_EQ(server.logs().size(), 8u);
  EXPECT_EQ(server.ingest_queue_depth(), 0u);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("bn_ingest_rejected_total"), std::string::npos);
  EXPECT_NE(text.find("bn_ingest_queue_depth"), std::string::npos);
}

// ---------------------------------------------------------------------
// PredictionServer deadlines + queue cap, over a real serving stack.

class AdmissionControlTest : public ::testing::Test {
 protected:
  static constexpr int kUsers = 400;

  static void SetUpTestSuite() {
    auto ds =
        datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(kUsers));
    core::PipelineConfig pcfg;
    pcfg.bn.windows = {kHour, 6 * kHour, kDay};
    data_ = core::PrepareData(std::move(ds), pcfg).release();
    core::HagConfig hcfg;
    hcfg.hidden = {8, 4};
    hcfg.attention_dim = 4;
    hcfg.mlp_hidden = 4;
    model_ = new core::Hag(hcfg);
    gnn::TrainConfig tcfg;
    tcfg.epochs = 5;
    core::TrainAndScoreGnn(model_, *data_, bn::SamplerConfig{}, tcfg);

    BnServerConfig bcfg;
    bcfg.bn = pcfg.bn;
    bcfg.num_users = kUsers;
    bcfg.snapshot_refresh = kHour;
    bcfg.ingest_queue_capacity = 1024;  // for the load-generator test
    bn_ = new BnServer(bcfg);
    bn_->IngestBatch(data_->dataset.logs);
    bn_->AdvanceTo(7 * kDay);

    features::FeatureStoreConfig fcfg;
    features_ = new features::FeatureStore(fcfg, &bn_->logs());
    for (UserId u = 0; u < kUsers; ++u) {
      const float* row = data_->dataset.profile_features.row(u);
      features_->PutProfile(
          u, std::vector<float>(
                 row, row + data_->dataset.profile_features.cols()));
    }
  }
  static void TearDownTestSuite() {
    delete features_;
    delete bn_;
    delete model_;
    delete data_;
    features_ = nullptr;
  }

  /// Deterministic serving path: no cache (every request computes), like
  /// the open-loop bench.
  static PredictionConfig ServingConfig(obs::MetricsRegistry* registry) {
    PredictionConfig cfg;
    cfg.cache_capacity = 0;
    cfg.metrics = registry;
    return cfg;
  }

  static core::PreparedData* data_;
  static core::Hag* model_;
  static BnServer* bn_;
  static features::FeatureStore* features_;
};

core::PreparedData* AdmissionControlTest::data_ = nullptr;
core::Hag* AdmissionControlTest::model_ = nullptr;
BnServer* AdmissionControlTest::bn_ = nullptr;
features::FeatureStore* AdmissionControlTest::features_ = nullptr;

TEST_F(AdmissionControlTest, ExpiredRequestsNeverReachInference) {
  obs::MetricsRegistry registry;
  PredictionServer server(ServingConfig(&registry), bn_, features_,
                          model_, &data_->scaler);
  BatchingConfig bcfg;
  bcfg.max_batch_size = 8;
  bcfg.workers = 1;
  bcfg.max_wait_ms = 1.0;
  server.StartBatching(bcfg);

  const auto expired = Clock::now() - std::chrono::milliseconds(1);
  std::vector<std::future<PredictionResponse>> futures;
  for (UserId u = 0; u < 6; ++u) {
    futures.push_back(server.SubmitWithDeadline(u, expired));
  }
  for (auto& f : futures) {
    const PredictionResponse resp = f.get();
    EXPECT_TRUE(resp.shed);
    // request_id 0 marks "no pipeline work ran" — ids are only handed
    // out by HandleBatch.
    EXPECT_EQ(resp.request_id, 0u);
  }
  server.StopBatching();

  EXPECT_EQ(registry.GetCounter("prediction_deadline_shed_total")->value(),
            6u);
  // The shed requests were dropped before sampling/features/inference:
  // nothing ever entered HandleBatch.
  EXPECT_EQ(registry.GetCounter("predict_requests_total")->value(), 0u);
  EXPECT_EQ(server.total_latency().count(), 0u);

  // The synchronous fallback (queue stopped) honors deadlines too.
  auto resp = server.SubmitWithDeadline(0, expired).get();
  EXPECT_TRUE(resp.shed);
  EXPECT_EQ(registry.GetCounter("prediction_deadline_shed_total")->value(),
            7u);
}

TEST_F(AdmissionControlTest, InDeadlineResponsesAreBitIdenticalToHandle) {
  obs::MetricsRegistry registry;
  PredictionServer server(ServingConfig(&registry), bn_, features_,
                          model_, &data_->scaler);
  const std::vector<UserId> uids = {1, 17, 42, 199, 363};
  std::vector<double> direct;
  for (UserId u : uids) {
    direct.push_back(server.Handle(u).fraud_probability);
  }

  BatchingConfig bcfg;
  bcfg.max_batch_size = 4;
  bcfg.workers = 1;
  bcfg.max_wait_ms = 0.2;
  server.StartBatching(bcfg);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (size_t i = 0; i < uids.size(); ++i) {
    // Awaiting each future keeps the batches deterministic; the point
    // is that a generous deadline changes nothing about the response.
    const PredictionResponse resp =
        server.SubmitWithDeadline(uids[i], deadline).get();
    EXPECT_FALSE(resp.shed);
    EXPECT_GT(resp.request_id, 0u);
    EXPECT_DOUBLE_EQ(resp.fraud_probability, direct[i]) << "uid "
                                                        << uids[i];
  }
  server.StopBatching();
  EXPECT_EQ(registry.GetCounter("prediction_deadline_shed_total")->value(),
            0u);
}

TEST_F(AdmissionControlTest, QueueCapRejectsInsteadOfQueueingUnbounded) {
  obs::MetricsRegistry registry;
  PredictionServer server(ServingConfig(&registry), bn_, features_,
                          model_, &data_->scaler);
  BatchingConfig bcfg;
  bcfg.max_batch_size = 64;  // larger than max_queue, so the worker sits
  bcfg.max_wait_ms = 250.0;  // in its coalescing window while we flood
  bcfg.workers = 1;
  bcfg.max_queue = 4;
  server.StartBatching(bcfg);

  const auto deadline = Clock::now() + std::chrono::seconds(30);
  std::vector<std::future<PredictionResponse>> queued;
  for (UserId u = 0; u < 4; ++u) {
    queued.push_back(server.SubmitWithDeadline(u, deadline));
  }
  // Fifth submission finds the queue at its cap: rejected immediately,
  // callback fired with a shed response, nothing queued.
  PredictionResponse rejected;
  EXPECT_FALSE(server.SubmitCallback(
      99, deadline, [&rejected](const PredictionResponse& r) {
        rejected = r;
      }));
  EXPECT_TRUE(rejected.shed);
  EXPECT_EQ(rejected.request_id, 0u);
  EXPECT_EQ(registry.GetCounter("prediction_queue_rejected_total")->value(),
            1u);

  // The admitted four still get real responses.
  for (auto& f : queued) {
    const PredictionResponse resp = f.get();
    EXPECT_FALSE(resp.shed);
    EXPECT_GT(resp.request_id, 0u);
  }
  server.StopBatching();
  EXPECT_EQ(registry.GetCounter("prediction_deadline_shed_total")->value(),
            0u);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("prediction_queue_rejected_total"),
            std::string::npos);
  EXPECT_NE(text.find("prediction_deadline_shed_total"),
            std::string::npos);
  EXPECT_NE(text.find("prediction_queue_depth"), std::string::npos);
}

TEST_F(AdmissionControlTest, OpenLoopLoadGenAccountsForEveryArrival) {
  obs::MetricsRegistry registry;
  PredictionServer server(ServingConfig(&registry), bn_, features_,
                          model_, &data_->scaler);

  LoadGenConfig lcfg;
  lcfg.prediction_rate = 120.0;
  lcfg.ingest_rate = 240.0;
  lcfg.duration_s = 0.4;
  lcfg.slo_ms = 200.0;
  lcfg.seed = 42;
  lcfg.batching.max_batch_size = 4;
  lcfg.batching.workers = 1;
  lcfg.batching.max_wait_ms = 0.5;
  lcfg.batching.max_queue = 256;

  std::vector<UserId> targets;
  for (UserId u = 0; u < 32; ++u) targets.push_back(u);

  OpenLoopLoadGen gen(lcfg, &server, bn_, &registry);
  const LoadGenResult r = gen.Run(targets, data_->dataset.logs);

  // Conservation: every scheduled arrival is served, shed, or rejected.
  EXPECT_GT(r.offered, 0u);
  EXPECT_EQ(r.offered, r.served + r.shed + r.rejected);
  EXPECT_LE(r.in_deadline, r.served);
  EXPECT_GE(r.goodput_frac, 0.0);
  EXPECT_LE(r.goodput_frac, 1.0);
  EXPECT_GT(r.served, 0u);
  EXPECT_LE(r.p50_ms, r.p99_ms);
  EXPECT_LE(r.p99_ms, r.p999_ms);
  EXPECT_LE(r.p999_ms, r.max_ms);
  // Ingest plane: the drain thread applied everything the ring
  // admitted.
  EXPECT_GT(r.ingest_offered, 0u);
  EXPECT_EQ(r.ingest_offered, r.ingest_accepted + r.ingest_rejected);
  EXPECT_EQ(r.ingest_applied, r.ingest_accepted);
  EXPECT_EQ(bn_->ingest_queue_depth(), 0u);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("load_e2e_latency_ms"), std::string::npos);
  EXPECT_NE(text.find("load_ingest_apply_ms"), std::string::npos);
}

}  // namespace
}  // namespace turbo::server
