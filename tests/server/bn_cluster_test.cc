// BnCluster correctness anchors (DESIGN.md §14): a 1-shard cluster is
// bit-identical to a bare BnServer (edges, weights, snapshot CSR,
// prediction outputs), and an N-shard cluster's edge multiset — every
// cross-shard edge built exactly once, weights summed across shards —
// equals the single-shard graph bit for bit. Plus the cluster-lifted
// ingest/advance/checkpoint surface and the serving-side router.
#include "server/bn_cluster.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/turbo.h"
#include "storage/wal.h"

namespace turbo::server {
namespace {

constexpr int kUsers = 64;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

BnServerConfig SmallConfig() {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = kUsers;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  return cfg;
}

/// Deterministic mixed-type traffic in [t0, t1): enough value sharing
/// that many co-occurrence edges form, across two edge types.
BehaviorLogList Traffic(SimTime t0, SimTime t1, int n) {
  BehaviorLogList logs;
  for (int i = 0; i < n; ++i) {
    const SimTime t = t0 + (i * 977 * kMinute) % (t1 - t0);
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 13 % kUsers),
                               BehaviorType::kIpv4,
                               static_cast<ValueId>(1 + i % 9), t});
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 7 % kUsers),
                               BehaviorType::kWifiMac,
                               static_cast<ValueId>(100 + i % 5), t});
  }
  return logs;
}

TEST(BnClusterTest, OneShardClusterIsBitIdenticalToBareServer) {
  BnServer bare(SmallConfig());
  BnClusterConfig ccfg;
  ccfg.shard = SmallConfig();
  ccfg.num_shards = 1;
  BnCluster cluster(ccfg);

  const BehaviorLogList logs = Traffic(0, 2 * kDay, 200);
  bare.IngestBatch(logs);
  cluster.IngestBatch(logs);
  bare.AdvanceTo(2 * kDay);
  cluster.AdvanceTo(2 * kDay);

  EXPECT_EQ(bare.FirstDifference(cluster.shard(0)), "");
  EXPECT_EQ(cluster.now(), bare.now());
  EXPECT_EQ(cluster.epoch(), 1u);

  // The sampling surface routes through the only shard.
  for (UserId u = 0; u < kUsers; u += 7) {
    const bn::Subgraph a = bare.SampleSubgraph(u);
    const bn::Subgraph b = cluster.SampleSubgraph(u);
    EXPECT_EQ(a.nodes, b.nodes) << "uid " << u;
    EXPECT_EQ(a.NumEdges(), b.NumEdges()) << "uid " << u;
    EXPECT_EQ(b.snapshot_version, cluster.snapshot_version_for(u));
  }
}

TEST(BnClusterTest, ShardedEdgeMultisetEqualsSingleShard) {
  const BehaviorLogList logs = Traffic(0, 3 * kDay, 300);
  BnClusterConfig base;
  base.shard = SmallConfig();
  base.num_shards = 1;
  BnCluster single(base);
  single.IngestBatch(logs);
  single.AdvanceTo(3 * kDay);

  for (int n : {2, 4}) {
    BnClusterConfig ccfg;
    ccfg.shard = SmallConfig();
    ccfg.num_shards = n;
    ccfg.advance_threads = n;  // exercise the parallel barrier too
    BnCluster cluster(ccfg);
    cluster.IngestBatch(logs);
    cluster.AdvanceTo(3 * kDay);
    EXPECT_EQ(cluster.now(), 3 * kDay);
    std::vector<const storage::EdgeStore*> parts;
    for (int s = 0; s < n; ++s) parts.push_back(&cluster.shard(s).edges());
    EXPECT_EQ(single.shard(0).edges().FirstDifferenceFromSum(parts), "");
  }
}

TEST(BnClusterTest, DualDeliveryKeepsHomeShardLogHistoryComplete) {
  obs::MetricsRegistry registry;
  BnClusterConfig ccfg;
  ccfg.shard = SmallConfig();
  ccfg.num_shards = 4;
  ccfg.metrics = &registry;
  BnCluster cluster(ccfg);
  const BehaviorLogList logs = Traffic(0, kDay, 150);
  cluster.IngestBatch(logs);

  // Feature reads depend on the home shard holding every log of its
  // users, whatever shard the value routed edge building to.
  std::vector<size_t> expected(4, 0);
  for (const BehaviorLog& log : logs) {
    ++expected[cluster.router().OwnerOfUser(log.uid)];
  }
  for (int s = 0; s < 4; ++s) {
    size_t of_owned_users = 0;
    for (UserId u = 0; u < kUsers; ++u) {
      if (cluster.router().OwnerOfUser(u) != s) continue;
      of_owned_users +=
          cluster.shard(s).logs().QueryUser(u, 0, kDay).size();
    }
    EXPECT_EQ(of_owned_users, expected[s]) << "shard " << s;
  }
  // Forwarding happened (the partition is non-trivial for this traffic).
  EXPECT_GT(registry.GetCounter("bn_cluster_forwarded_total")->value(), 0u);
}

TEST(BnClusterTest, OfferDrainMatchesDirectIngest) {
  BnClusterConfig direct_cfg;
  direct_cfg.shard = SmallConfig();
  direct_cfg.num_shards = 2;
  BnCluster direct(direct_cfg);

  BnClusterConfig queued_cfg = direct_cfg;
  queued_cfg.shard.ingest_queue_capacity = 4096;
  BnCluster queued(queued_cfg);

  const BehaviorLogList logs = Traffic(0, kDay, 100);
  direct.IngestBatch(logs);
  for (const BehaviorLog& log : logs) {
    ASSERT_TRUE(queued.OfferIngest(log));
  }
  EXPECT_GT(queued.ingest_queue_depth(), 0u);
  queued.DrainIngest();
  EXPECT_EQ(queued.ingest_queue_depth(), 0u);
  direct.AdvanceTo(kDay);
  queued.AdvanceTo(kDay);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(direct.shard(s).FirstDifference(queued.shard(s)), "");
  }
}

TEST(BnClusterTest, ClusterCheckpointRecoverRoundTrip) {
  const std::string root = FreshDir("cluster_ckpt");
  BnClusterConfig ccfg;
  ccfg.shard = SmallConfig();
  ccfg.num_shards = 2;
  ccfg.wal_root = root;
  BnCluster writer(ccfg);
  writer.IngestBatch(Traffic(0, kDay, 120));
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint().ok());
  // WAL tail past the checkpoint.
  writer.IngestBatch(Traffic(kDay, kDay + 5 * kHour, 60));
  writer.AdvanceTo(kDay + 5 * kHour);

  BnCluster recovered(ccfg);
  ASSERT_TRUE(recovered.Recover().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(writer.shard(s).FirstDifference(recovered.shard(s)), "");
  }

  // A cluster with a different layout must refuse this state: the shard
  // topology is part of each shard's checkpoint fingerprint.
  BnClusterConfig wrong = ccfg;
  wrong.num_shards = 4;
  BnCluster mismatched(wrong);
  const Status s = mismatched.Recover();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(BnClusterTest, MetricsExposeRoutingAndPerShardLag) {
  BnClusterConfig ccfg;
  ccfg.shard = SmallConfig();
  ccfg.num_shards = 2;
  BnCluster cluster(ccfg);
  cluster.IngestBatch(Traffic(0, kDay, 80));
  cluster.AdvanceTo(kDay);

  const std::string text = cluster.metrics().RenderText();
  for (const char* name :
       {"bn_cluster_ingest_events_total", "bn_cluster_forwarded_total",
        "bn_cluster_epoch", "bn_cluster_shard0_snapshot_version",
        "bn_cluster_shard1_snapshot_version", "bn_cluster_shard0_edges",
        "bn_cluster_shard1_edges"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(ClusterPredictionTest, CacheKeySeparatesShardsAndKeepsLegacyForm) {
  const UserId uid = 42;
  const uint64_t version = 7;
  // Tag 0 is the pre-cluster key, byte for byte.
  EXPECT_EQ(PredictionServer::CacheKey(0, uid, version),
            (version << 32) | uid);
  // Distinct shard tags give the same (uid, version) distinct keys.
  std::set<uint64_t> keys;
  for (uint32_t tag = 0; tag < 8; ++tag) {
    keys.insert(PredictionServer::CacheKey(tag, uid, version));
  }
  EXPECT_EQ(keys.size(), 8u);
}

// End-to-end prediction bit-identity: the same trained model served
// over a bare BnServer and over a 1-shard cluster must return the same
// probability bits. (For N > 1 the serving graph is partitioned by
// design, so only the 1-shard case is a bit-identity anchor.)
TEST(ClusterPredictionTest, OneShardClusterServingIsBitIdentical) {
  auto ds = datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(300));
  core::PipelineConfig pcfg;
  pcfg.bn.windows = {kHour, kDay};
  auto data = core::PrepareData(std::move(ds), pcfg);
  core::HagConfig hcfg;
  hcfg.hidden = {16, 8};
  hcfg.attention_dim = 8;
  hcfg.mlp_hidden = 8;
  // Deterministic seeded init, no training: bit-identity only needs the
  // same weights on both sides.
  core::Hag model(hcfg);
  model.Init(static_cast<int>(data->features.cols()));

  BnServerConfig bcfg;
  bcfg.bn = pcfg.bn;
  bcfg.num_users = 300;
  BnServer bare(bcfg);
  BnClusterConfig ccfg;
  ccfg.shard = bcfg;
  ccfg.num_shards = 1;
  BnCluster cluster(ccfg);
  bare.IngestBatch(data->dataset.logs);
  cluster.IngestBatch(data->dataset.logs);
  const SimTime horizon = data->dataset.logs.back().time + kDay;
  bare.AdvanceTo(horizon);
  cluster.AdvanceTo(horizon);

  features::FeatureStoreConfig fcfg;
  features::FeatureStore bare_features(fcfg, &bare.logs());
  features::FeatureStore shard_features(fcfg, &cluster.shard(0).logs());
  for (UserId u = 0; u < 300; ++u) {
    const float* row = data->dataset.profile_features.row(u);
    std::vector<float> profile(
        row, row + data->dataset.profile_features.cols());
    bare_features.PutProfile(u, profile);
    shard_features.PutProfile(u, profile);
  }

  PredictionServer bare_server(PredictionConfig{}, &bare, &bare_features,
                               &model, &data->scaler);
  PredictionConfig shard_cfg;
  shard_cfg.shard_tag = 1;  // cluster serving tags its cache keys
  PredictionServer shard_server(shard_cfg, &cluster.shard(0),
                                &shard_features, &model, &data->scaler);
  ClusterPredictionRouter router(&cluster.router(), {&shard_server});

  std::vector<UserId> uids(data->test_uids.begin(),
                           data->test_uids.begin() +
                               std::min<size_t>(24, data->test_uids.size()));
  const std::vector<PredictionResponse> via_cluster =
      router.HandleBatch(uids);
  const std::vector<PredictionResponse> via_bare =
      bare_server.HandleBatch(uids);
  ASSERT_EQ(via_cluster.size(), via_bare.size());
  for (size_t i = 0; i < uids.size(); ++i) {
    EXPECT_EQ(via_cluster[i].fraud_probability,
              via_bare[i].fraud_probability)
        << "uid " << uids[i];
    EXPECT_EQ(via_cluster[i].blocked, via_bare[i].blocked);
    EXPECT_EQ(via_cluster[i].subgraph_nodes, via_bare[i].subgraph_nodes);
  }
  // Single requests route to the same shard server and reuse its cache.
  const PredictionResponse single = router.Handle(uids.front());
  EXPECT_EQ(single.fraud_probability,
            via_cluster.front().fraud_probability);
}

TEST(ClusterPredictionTest, RouterScattersBatchAcrossOwners) {
  auto ds = datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(300));
  core::PipelineConfig pcfg;
  pcfg.bn.windows = {kHour, kDay};
  auto data = core::PrepareData(std::move(ds), pcfg);
  core::HagConfig hcfg;
  hcfg.hidden = {16, 8};
  hcfg.attention_dim = 8;
  hcfg.mlp_hidden = 8;
  core::Hag model(hcfg);
  model.Init(static_cast<int>(data->features.cols()));

  BnServerConfig bcfg;
  bcfg.bn = pcfg.bn;
  bcfg.num_users = 300;
  BnClusterConfig ccfg;
  ccfg.shard = bcfg;
  ccfg.num_shards = 2;
  BnCluster cluster(ccfg);
  cluster.IngestBatch(data->dataset.logs);
  cluster.AdvanceTo(data->dataset.logs.back().time + kDay);

  features::FeatureStoreConfig fcfg;
  std::vector<std::unique_ptr<features::FeatureStore>> stores;
  std::vector<std::unique_ptr<PredictionServer>> servers;
  std::vector<PredictionServer*> raw;
  for (int s = 0; s < 2; ++s) {
    stores.push_back(std::make_unique<features::FeatureStore>(
        fcfg, &cluster.shard(s).logs()));
    for (UserId u = 0; u < 300; ++u) {
      const float* row = data->dataset.profile_features.row(u);
      stores.back()->PutProfile(
          u, std::vector<float>(
                 row, row + data->dataset.profile_features.cols()));
    }
    PredictionConfig scfg;
    scfg.shard_tag = static_cast<uint32_t>(s + 1);
    servers.push_back(std::make_unique<PredictionServer>(
        scfg, &cluster.shard(s), stores.back().get(), &model,
        &data->scaler));
    raw.push_back(servers.back().get());
  }
  ClusterPredictionRouter router(&cluster.router(), raw);

  std::vector<UserId> uids(data->test_uids.begin(),
                           data->test_uids.begin() +
                               std::min<size_t>(16, data->test_uids.size()));
  const auto batch = router.HandleBatch(uids);
  ASSERT_EQ(batch.size(), uids.size());
  bool used[2] = {false, false};
  for (size_t i = 0; i < uids.size(); ++i) {
    const int owner = cluster.router().OwnerOfUser(uids[i]);
    used[owner] = true;
    // Each slot's answer equals the owner shard's own answer (cache hit
    // on the second call — same pinned snapshot, same key space).
    const PredictionResponse direct = raw[owner]->Handle(uids[i]);
    EXPECT_EQ(batch[i].fraud_probability, direct.fraud_probability)
        << "uid " << uids[i];
  }
  EXPECT_TRUE(used[0] && used[1]) << "test traffic never crossed shards";
}

}  // namespace
}  // namespace turbo::server
