// Socket-cluster conformance (DESIGN.md §15): a BnCluster routing to
// shards over real loopback sockets (ShardService + RemoteShardClient)
// must be bit-identical to the in-process cluster — per-shard edge
// state, snapshot CSR bytes, sampling, offer/drain admission,
// checkpoint/recover, and HAG prediction outputs — and must stay
// bit-identical under connection kills injected mid-run.
#include "net/remote_shard.h"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/turbo.h"
#include "net/shard_service.h"
#include "server/bn_cluster.h"

namespace turbo::net {
namespace {

constexpr int kUsers = 64;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

server::BnServerConfig SmallConfig() {
  server::BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = kUsers;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  return cfg;
}

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

/// An N-shard cluster whose shards live behind real loopback sockets:
/// per-shard BnServers (the "remote" processes), a ShardService each,
/// and a handle-mode BnCluster over RemoteShardClients.
struct SocketRig {
  server::BnServerConfig tmpl;
  std::vector<std::unique_ptr<server::BnServer>> backing;
  std::vector<std::unique_ptr<ShardService>> services;
  std::vector<RemoteShardClient*> clients;  // owned by `cluster`
  std::unique_ptr<server::BnCluster> cluster;
  obs::MetricsRegistry client_metrics;

  SocketRig(server::BnServerConfig config, int n,
            std::vector<std::string> dirs = {})
      : tmpl(std::move(config)) {
    bn::ShardTopology t = tmpl.bn.topology;
    t.shard_count = n;
    const server::ShardRouter router(t);
    for (int i = 0; i < n; ++i) {
      server::BnServerConfig shard = tmpl;
      shard.bn.topology = router.TopologyForShard(i);
      shard.metrics = nullptr;
      shard.wal_dir = dirs.empty() ? std::string() : dirs[i];
      backing.push_back(std::make_unique<server::BnServer>(std::move(shard)));
    }
  }

  /// `predictions[i]` (optional) is hosted by shard i's service.
  void StartServices(
      std::vector<std::string> dirs = {},
      std::vector<server::PredictionServer*> predictions = {}) {
    std::vector<std::unique_ptr<server::ShardHandle>> handles;
    for (size_t i = 0; i < backing.size(); ++i) {
      ShardServiceConfig scfg;
      scfg.endpoint.port = 0;
      scfg.shard_dir = dirs.empty() ? std::string() : dirs[i];
      auto service_or = ShardService::Start(
          scfg, backing[i].get(),
          predictions.empty() ? nullptr : predictions[i]);
      ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
      services.push_back(service_or.take());

      RemoteShardConfig rcfg;
      rcfg.endpoint = services.back()->endpoint();
      rcfg.rpc.metrics = &client_metrics;
      rcfg.rpc.backoff_initial_ms = 1;
      rcfg.rpc.backoff_max_ms = 10;
      auto client = std::make_unique<RemoteShardClient>(rcfg);
      clients.push_back(client.get());
      handles.push_back(std::move(client));
    }
    server::BnClusterConfig ccfg;
    ccfg.shard = tmpl;
    cluster = std::make_unique<server::BnCluster>(ccfg, std::move(handles));
  }
};

TEST(NetClusterTest, TwoShardSocketClusterIsBitIdenticalToInProcess) {
  server::BnClusterConfig ccfg;
  ccfg.shard = SmallConfig();
  ccfg.num_shards = 2;
  server::BnCluster inproc(ccfg);
  SocketRig rig(SmallConfig(), 2);
  rig.StartServices();
  ASSERT_EQ(rig.cluster->num_shards(), 2);
  EXPECT_FALSE(rig.cluster->local());

  const BehaviorLogList logs = Traffic(0, 3 * kDay, 300);
  inproc.IngestBatch(logs);
  rig.cluster->IngestBatch(logs);
  inproc.AdvanceTo(3 * kDay);
  rig.cluster->AdvanceTo(3 * kDay);

  EXPECT_EQ(rig.cluster->now(), inproc.now());
  EXPECT_EQ(rig.cluster->epoch(), inproc.epoch());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(inproc.shard(s).FirstDifference(*rig.backing[s]), "");
  }
  // The serving surface routes identically: same subgraphs sampled from
  // the same pinned snapshot versions, shipped over the wire bit-exact.
  for (UserId u = 0; u < kUsers; u += 5) {
    const bn::Subgraph a = inproc.SampleSubgraph(u);
    const bn::Subgraph b = rig.cluster->SampleSubgraph(u);
    EXPECT_EQ(a.nodes, b.nodes) << "uid " << u;
    EXPECT_EQ(a.num_targets, b.num_targets);
    for (int t = 0; t < kNumEdgeTypes; ++t) {
      ASSERT_EQ(a.edges[t].size(), b.edges[t].size()) << "uid " << u;
      for (size_t i = 0; i < a.edges[t].size(); ++i) {
        EXPECT_EQ(a.edges[t][i].row, b.edges[t][i].row);
        EXPECT_EQ(a.edges[t][i].col, b.edges[t][i].col);
        EXPECT_EQ(a.edges[t][i].value, b.edges[t][i].value);
      }
    }
    EXPECT_EQ(a.snapshot_version, b.snapshot_version);
    EXPECT_EQ(rig.cluster->snapshot_version_for(u),
              inproc.snapshot_version_for(u));
  }
  // A shard service hosting no PredictionServer refuses Predict.
  auto miss = rig.clients[0]->Predict(0);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NetClusterTest, ConnectionKillsMidRunStayBitIdentical) {
  server::BnClusterConfig ccfg;
  ccfg.shard = SmallConfig();
  ccfg.num_shards = 2;
  server::BnCluster inproc(ccfg);
  SocketRig rig(SmallConfig(), 2);
  rig.StartServices();

  for (int round = 0; round < 4; ++round) {
    // Chaos between rounds: client-side drops are transparent to any
    // call (the request provably never went out); server-side kills are
    // absorbed by the next idempotent read's reconnect loop.
    if (round == 1 || round == 3) {
      rig.clients[0]->client().DebugDropConnection();
    }
    if (round >= 2) {
      rig.services[1]->CloseConnections();
      EXPECT_EQ(rig.clients[1]->snapshot_version(),
                inproc.shard(1).snapshot_version());
    }
    const SimTime t0 = round * kDay;
    const BehaviorLogList logs = Traffic(t0, t0 + kDay, 60);
    inproc.IngestBatch(logs);
    rig.cluster->IngestBatch(logs);
    inproc.AdvanceTo(t0 + kDay);
    rig.cluster->AdvanceTo(t0 + kDay);
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(inproc.shard(s).FirstDifference(*rig.backing[s]), "");
  }
  EXPECT_GE(
      rig.client_metrics.GetCounter("net_reconnects_total")->value(), 1u);
}

TEST(NetClusterTest, OfferDrainOverSocketsMatchesDirectIngest) {
  server::BnClusterConfig direct_cfg;
  direct_cfg.shard = SmallConfig();
  direct_cfg.num_shards = 2;
  server::BnCluster direct(direct_cfg);

  server::BnServerConfig queued = SmallConfig();
  queued.ingest_queue_capacity = 4096;
  SocketRig rig(queued, 2);
  rig.StartServices();

  const BehaviorLogList logs = Traffic(0, kDay, 100);
  direct.IngestBatch(logs);
  for (const BehaviorLog& log : logs) {
    ASSERT_TRUE(rig.cluster->OfferIngest(log));
  }
  EXPECT_GT(rig.cluster->ingest_queue_depth(), 0u);
  rig.cluster->DrainIngest();
  EXPECT_EQ(rig.cluster->ingest_queue_depth(), 0u);
  direct.AdvanceTo(kDay);
  rig.cluster->AdvanceTo(kDay);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(direct.shard(s).FirstDifference(*rig.backing[s]), "");
  }
}

TEST(NetClusterTest, CheckpointAndRecoverOverSockets) {
  const std::vector<std::string> dirs = {FreshDir("netc_ckpt_s0"),
                                         FreshDir("netc_ckpt_s1")};
  SocketRig writer(SmallConfig(), 2, dirs);
  writer.StartServices(dirs);
  writer.cluster->IngestBatch(Traffic(0, kDay, 120));
  writer.cluster->AdvanceTo(kDay);
  ASSERT_TRUE(writer.cluster->Checkpoint().ok());
  // WAL tail past the checkpoint.
  writer.cluster->IngestBatch(Traffic(kDay, kDay + 5 * kHour, 60));
  writer.cluster->AdvanceTo(kDay + 5 * kHour);

  SocketRig recovered(SmallConfig(), 2, dirs);
  recovered.StartServices(dirs);
  ASSERT_TRUE(recovered.cluster->Recover().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(writer.backing[s]->FirstDifference(*recovered.backing[s]), "");
  }

  // A shard served without a durability dir refuses both operations.
  SocketRig bare(SmallConfig(), 1);
  bare.StartServices();
  const Status no_ckpt = bare.cluster->Checkpoint();
  ASSERT_FALSE(no_ckpt.ok());
  EXPECT_EQ(no_ckpt.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(bare.cluster->Recover().ok());
}

TEST(NetClusterTest, RemotePredictionsAreBitIdenticalToInProcess) {
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

  server::BnServerConfig bcfg;
  bcfg.bn = pcfg.bn;
  bcfg.num_users = 300;

  // In-process reference stack.
  server::BnClusterConfig ccfg;
  ccfg.shard = bcfg;
  ccfg.num_shards = 2;
  server::BnCluster inproc(ccfg);
  inproc.IngestBatch(data->dataset.logs);
  const SimTime horizon = data->dataset.logs.back().time + kDay;
  inproc.AdvanceTo(horizon);

  features::FeatureStoreConfig fcfg;
  auto put_profiles = [&](features::FeatureStore* store) {
    for (UserId u = 0; u < 300; ++u) {
      const float* row = data->dataset.profile_features.row(u);
      store->PutProfile(
          u, std::vector<float>(
                 row, row + data->dataset.profile_features.cols()));
    }
  };
  std::vector<std::unique_ptr<features::FeatureStore>> local_stores;
  std::vector<std::unique_ptr<server::PredictionServer>> local_servers;
  std::vector<server::PredictionServer*> local_raw;
  for (int s = 0; s < 2; ++s) {
    local_stores.push_back(std::make_unique<features::FeatureStore>(
        fcfg, &inproc.shard(s).logs()));
    put_profiles(local_stores.back().get());
    server::PredictionConfig scfg;
    scfg.shard_tag = static_cast<uint32_t>(s + 1);
    local_servers.push_back(std::make_unique<server::PredictionServer>(
        scfg, &inproc.shard(s), local_stores.back().get(), &model,
        &data->scaler));
    local_raw.push_back(local_servers.back().get());
  }
  server::ClusterPredictionRouter router(&inproc.router(), local_raw);

  // Socket stack: the same model served behind ShardServices.
  SocketRig rig(bcfg, 2);
  std::vector<std::unique_ptr<features::FeatureStore>> remote_stores;
  std::vector<std::unique_ptr<server::PredictionServer>> remote_servers;
  std::vector<server::PredictionServer*> remote_raw;
  for (int s = 0; s < 2; ++s) {
    remote_stores.push_back(std::make_unique<features::FeatureStore>(
        fcfg, &rig.backing[s]->logs()));
    put_profiles(remote_stores.back().get());
    server::PredictionConfig scfg;
    scfg.shard_tag = static_cast<uint32_t>(s + 1);
    remote_servers.push_back(std::make_unique<server::PredictionServer>(
        scfg, rig.backing[s].get(), remote_stores.back().get(), &model,
        &data->scaler));
    remote_raw.push_back(remote_servers.back().get());
  }
  rig.StartServices({}, remote_raw);
  rig.cluster->IngestBatch(data->dataset.logs);
  rig.cluster->AdvanceTo(horizon);

  std::vector<UserId> uids(data->test_uids.begin(),
                           data->test_uids.begin() +
                               std::min<size_t>(16, data->test_uids.size()));
  bool used[2] = {false, false};
  for (const UserId uid : uids) {
    const int owner = rig.cluster->router().OwnerOfUser(uid);
    used[owner] = true;
    const server::PredictionResponse local = router.Handle(uid);
    auto remote_or = rig.clients[owner]->Predict(uid);
    ASSERT_TRUE(remote_or.ok()) << remote_or.status().ToString();
    const server::PredictionResponse& remote = remote_or.value();
    EXPECT_EQ(remote.fraud_probability, local.fraud_probability)
        << "uid " << uid;
    EXPECT_EQ(remote.blocked, local.blocked) << "uid " << uid;
    EXPECT_EQ(remote.subgraph_nodes, local.subgraph_nodes) << "uid " << uid;
    EXPECT_EQ(remote.snapshot_version, local.snapshot_version);
  }
  EXPECT_TRUE(used[0] && used[1]) << "test traffic never crossed shards";
}

}  // namespace
}  // namespace turbo::net
