// A bad request must fail alone, not abort the shard: ShardService checks
// every argument BnServer would CHECK before it reaches the shard, and
// answers InvalidArgument or FailedPrecondition instead. Each test sends
// one bad request over loopback, asserts the error, and then shows that
// the same shard still ingests, advances and serves.
#include "net/shard_service.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hag.h"
#include "features/feature_store.h"
#include "ml/scaler.h"
#include "net/remote_shard.h"
#include "net/wire.h"

namespace turbo::net {
namespace {

constexpr int kUsers = 16;

/// One shard (BnServer + PredictionServer over an untrained HAG) behind
/// a ShardService on an ephemeral loopback port, plus a client.
struct Rig {
  std::unique_ptr<server::BnServer> bn;
  std::unique_ptr<features::FeatureStore> features;
  ml::StandardScaler scaler;
  core::Hag model;
  std::unique_ptr<server::PredictionServer> prediction;
  std::unique_ptr<ShardService> service;
  std::unique_ptr<RemoteShardClient> client;

  explicit Rig(size_t ingest_queue_capacity = 0, bool advance = true)
      : model(SmallHag()) {
    server::BnServerConfig cfg;
    cfg.bn.windows = {kHour, kDay};
    cfg.num_users = kUsers;
    cfg.snapshot_refresh = kHour;
    cfg.window_job_threads = 1;
    cfg.snapshot_build_threads = 1;
    cfg.ingest_queue_capacity = ingest_queue_capacity;
    bn = std::make_unique<server::BnServer>(cfg);
    features = std::make_unique<features::FeatureStore>(
        features::FeatureStoreConfig{}, &bn->logs());
    for (UserId u = 0; u < kUsers; ++u) {
      features->PutProfile(u, {1.0f, static_cast<float>(u)});
    }
    la::Matrix sample(4, features->dim());
    for (size_t i = 0; i < sample.size(); ++i) {
      sample.data()[i] = static_cast<float>(i % 7);
    }
    scaler.Fit(sample);
    model.Init(static_cast<int>(features->dim()));
    prediction = std::make_unique<server::PredictionServer>(
        server::PredictionConfig{}, bn.get(), features.get(), &model,
        &scaler);
    if (advance) {
      bn->IngestBatch({Log(1, 42, 10 * kMinute), Log(2, 42, 20 * kMinute)});
      bn->AdvanceTo(kHour);
    }

    ShardServiceConfig scfg;
    scfg.endpoint.port = 0;
    auto service_or = ShardService::Start(scfg, bn.get(), prediction.get());
    TURBO_CHECK_MSG(service_or.ok(), service_or.status().ToString());
    service = service_or.take();
    RemoteShardConfig rcfg;
    rcfg.endpoint = service->endpoint();
    client = std::make_unique<RemoteShardClient>(rcfg);
  }

  static core::HagConfig SmallHag() {
    core::HagConfig h;
    h.hidden = {8, 4};
    h.attention_dim = 4;
    h.mlp_hidden = 4;
    return h;
  }

  static BehaviorLog Log(UserId uid, ValueId ip, SimTime t) {
    return BehaviorLog{uid, BehaviorType::kIpv4, ip, t};
  }

  Result<std::string> Call(ShardMethod method, const std::string& body) {
    return client->client().Call(static_cast<uint8_t>(method), body);
  }

  Status IngestOne(const BehaviorLog& log) {
    storage::BinaryWriter w;
    storage::EncodeBehaviorLog(log, &w);
    return Call(ShardMethod::kIngest, w.data()).status();
  }

  /// After the bad request: the shard still ingests, advances, samples
  /// and predicts, and its clock moved.
  void ExpectStillServes() {
    const SimTime now = client->now();
    client->Ingest(Log(3, 43, now + kMinute));
    client->Ingest(Log(4, 43, now + 2 * kMinute));
    client->AdvanceTo(now + kHour);
    EXPECT_EQ(client->now(), now + kHour);
    EXPECT_EQ(client->SampleSubgraph(3).nodes.front(), 3u);
    auto predicted = client->Predict(3);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    EXPECT_GE(predicted.value().fraud_probability, 0.0);
  }
};

void ExpectCode(const Status& s, StatusCode code) {
  EXPECT_EQ(s.code(), code) << s.ToString();
}

TEST(ShardServiceTest, IngestRejectsUidOutOfRange) {
  Rig rig;
  const size_t logs = rig.bn->logs().size();
  ExpectCode(rig.IngestOne(Rig::Log(kUsers, 42, 30 * kMinute)),
             StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.bn->logs().size(), logs);
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, IngestRejectsNegativeTime) {
  Rig rig;
  ExpectCode(rig.IngestOne(Rig::Log(1, 42, -5)),
             StatusCode::kInvalidArgument);
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, IngestBatchWithOneBadLogAppliesNone) {
  Rig rig;
  const size_t logs = rig.bn->logs().size();
  storage::BinaryWriter w;
  storage::EncodeLogBatch(
      {Rig::Log(3, 42, 70 * kMinute), Rig::Log(kUsers + 5, 42, 71 * kMinute)},
      &w);
  ExpectCode(rig.Call(ShardMethod::kIngestBatch, w.data()).status(),
             StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.bn->logs().size(), logs);
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, OfferIngestRejectsBadLogBeforeItIsQueued) {
  Rig rig(/*ingest_queue_capacity=*/8);
  for (const BehaviorLog& bad :
       {Rig::Log(kUsers, 42, 70 * kMinute), Rig::Log(1, 42, -1)}) {
    storage::BinaryWriter w;
    storage::EncodeBehaviorLog(bad, &w);
    ExpectCode(rig.Call(ShardMethod::kOfferIngest, w.data()).status(),
               StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(rig.client->ingest_queue_depth(), 0u);
  // A good log still queues and drains through the same shard.
  ASSERT_TRUE(rig.client->OfferIngest(Rig::Log(5, 44, 70 * kMinute)));
  EXPECT_EQ(rig.client->DrainIngest(8), 1u);
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, AdvanceBehindTheClockIsRejected) {
  Rig rig;
  storage::BinaryWriter w;
  w.I64(kHour - 1);
  ExpectCode(rig.Call(ShardMethod::kAdvanceTo, w.data()).status(),
             StatusCode::kInvalidArgument);
  EXPECT_EQ(rig.client->now(), kHour);
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, SampleAndPredictRejectUidOutOfRange) {
  Rig rig;
  for (ShardMethod method :
       {ShardMethod::kSampleSubgraph, ShardMethod::kPredict}) {
    storage::BinaryWriter w;
    w.U32(kUsers);
    ExpectCode(rig.Call(method, w.data()).status(),
               StatusCode::kInvalidArgument);
  }
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, QueueMethodsNeedAnIngestQueue) {
  Rig rig(/*ingest_queue_capacity=*/0);
  storage::BinaryWriter offer;
  storage::EncodeBehaviorLog(Rig::Log(1, 42, 70 * kMinute), &offer);
  ExpectCode(rig.Call(ShardMethod::kOfferIngest, offer.data()).status(),
             StatusCode::kFailedPrecondition);
  storage::BinaryWriter drain;
  drain.U64(8);
  ExpectCode(rig.Call(ShardMethod::kDrainIngest, drain.data()).status(),
             StatusCode::kFailedPrecondition);
  rig.ExpectStillServes();
}

TEST(ShardServiceTest, SampleAndPredictBeforeTheFirstSnapshotFail) {
  Rig rig(/*ingest_queue_capacity=*/0, /*advance=*/false);
  for (ShardMethod method :
       {ShardMethod::kSampleSubgraph, ShardMethod::kPredict}) {
    storage::BinaryWriter w;
    w.U32(1);
    ExpectCode(rig.Call(method, w.data()).status(),
               StatusCode::kFailedPrecondition);
  }
  rig.ExpectStillServes();
}

}  // namespace
}  // namespace turbo::net
