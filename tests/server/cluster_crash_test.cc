// Kill-a-shard chaos drill (runs in the CI `build-test` job): a child
// drives a 2-shard BnCluster under open-loop load — admission-
// controlled OfferIngest, periodic drains and epoch barriers, WAL with
// per-append fsync — while the parent continuously ships each shard's
// durability directory to a warm-standby replica, racing the writer on
// purpose (torn tails in flight are part of the contract). The parent
// then SIGKILLs the cluster mid-stream, promotes both standbys, and
// bit-compares every promoted shard against a ground-truth replay of
// that shard's independently decoded durable WAL prefix.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "server/bn_cluster.h"
#include "server/warm_standby.h"
#include "storage/wal.h"
#include "storage/wal_ship.h"

namespace turbo::server {
namespace {

constexpr int kShards = 2;

BnServerConfig CrashShardConfig() {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = 64;
  cfg.snapshot_refresh = kHour;
  // Serial engine: the forked child must not depend on threads that
  // fork() does not carry over, and determinism holds at any count.
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.ingest_queue_capacity = 256;
  // Every append is durable before the in-memory apply, so whatever the
  // child managed to do is exactly what each shard's WAL holds.
  cfg.wal.fsync = storage::WalOptions::Fsync::kEveryAppend;
  return cfg;
}

/// Endless deterministic open-loop stream through the admission-
/// controlled front door. Never returns; dies by SIGKILL.
[[noreturn]] void RunDoomedCluster(const std::string& wal_root) {
  BnClusterConfig ccfg;
  ccfg.shard = CrashShardConfig();
  ccfg.num_shards = kShards;
  ccfg.wal_root = wal_root;
  BnCluster cluster(ccfg);
  uint64_t i = 0;
  for (SimTime t = 0;; t += 5 * kMinute, ++i) {
    const BehaviorLog a{static_cast<UserId>(i * 13 % 64), BehaviorType::kIpv4,
                        static_cast<ValueId>(1 + i % 9), t};
    const BehaviorLog b{static_cast<UserId>(i * 7 % 64), BehaviorType::kWifiMac,
                        static_cast<ValueId>(100 + i % 5), t};
    // Open loop: offer, drain when the rings fill, never block.
    if (!cluster.OfferIngest(a)) cluster.DrainIngest();
    if (!cluster.OfferIngest(b)) cluster.DrainIngest();
    if (i % 32 == 0) cluster.DrainIngest();
    if (t % kHour == 0) {
      cluster.DrainIngest();
      cluster.AdvanceTo(t);
    }
  }
}

size_t DurableWalBytes(const std::string& dir) {
  size_t total = 0;
  for (uint64_t seq : storage::ListWalSegments(dir)) {
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(storage::WalSegmentPath(dir, seq), ec);
    if (!ec) total += size;
  }
  return total;
}

TEST(ClusterCrashTest, SigkillUnderLoadPromotesBitIdenticalStandbys) {
  const std::string root = testing::TempDir() + "/cluster_crash";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  std::string shard_dirs[kShards];
  std::string replica_dirs[kShards];
  for (int s = 0; s < kShards; ++s) {
    shard_dirs[s] = BnCluster::ShardDir(root, s);
    replica_dirs[s] = root + "/replica-" + std::to_string(s);
    std::filesystem::create_directories(replica_dirs[s]);
  }

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    RunDoomedCluster(root);  // never returns
  }

  // Ship continuously while the child writes — the racing copies are
  // exactly the mid-append torn tails the standby protocol must absorb
  // — until every shard has durably logged a meaningful stream.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  auto all_past = [&](size_t bytes) {
    for (int s = 0; s < kShards; ++s) {
      if (DurableWalBytes(shard_dirs[s]) < bytes) return false;
    }
    return true;
  };
  while (!all_past(16 * 1024) &&
         std::chrono::steady_clock::now() < deadline) {
    for (int s = 0; s < kShards; ++s) {
      if (std::filesystem::exists(shard_dirs[s])) {
        ASSERT_TRUE(
            storage::ShipWalDir(shard_dirs[s], replica_dirs[s]).ok());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(all_past(16 * 1024)) << "child made no progress";
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Final ship: the primaries are dead, these bytes are the last word.
  for (int s = 0; s < kShards; ++s) {
    ASSERT_TRUE(storage::ShipWalDir(shard_dirs[s], replica_dirs[s]).ok());
  }

  // Shard layout identical to the doomed cluster's, for both the
  // standbys (checkpoint fingerprints) and the ground-truth replays
  // (the per-shard window-job key filter).
  BnClusterConfig layout;
  layout.shard = CrashShardConfig();
  layout.num_shards = kShards;
  ShardRouter router(
      [&] {
        bn::ShardTopology t = layout.shard.bn.topology;
        t.shard_count = kShards;
        return t;
      }());

  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    // Promote the warm standby over the shipped replica.
    WarmStandbyConfig scfg;
    scfg.server = CrashShardConfig();
    scfg.server.bn.topology = router.TopologyForShard(s);
    scfg.shard_index = s;
    scfg.replica_dir = replica_dirs[s];
    WarmStandby standby(scfg);
    ASSERT_TRUE(standby.CatchUp().ok());
    ASSERT_TRUE(standby.bootstrapped()) << "nothing was shipped";
    auto promoted_or = standby.Promote();
    ASSERT_TRUE(promoted_or.ok()) << promoted_or.status().message();
    BnServer* promoted = promoted_or.value();

    // Ground truth: independently decode this shard's durable WAL
    // prefix (last record may be torn away) into a clean WAL-less
    // server with the same shard topology.
    BnServerConfig ref_cfg = CrashShardConfig();
    ref_cfg.bn.topology = router.TopologyForShard(s);
    ref_cfg.ingest_queue_capacity = 0;
    BnServer reference(ref_cfg);
    size_t durable_records = 0;
    const auto seqs = storage::ListWalSegments(shard_dirs[s]);
    ASSERT_FALSE(seqs.empty());
    for (uint64_t seq : seqs) {
      auto segment_or = storage::ReadWalSegment(
          storage::WalSegmentPath(shard_dirs[s], seq));
      ASSERT_TRUE(segment_or.ok()) << segment_or.status().ToString();
      for (const auto& record : segment_or.value().records) {
        if (record.kind == storage::WalRecord::Kind::kIngest) {
          reference.Ingest(record.log);
        } else {
          reference.AdvanceTo(record.advance_to);
        }
        ++durable_records;
      }
    }
    ASSERT_GT(durable_records, 100u);
    EXPECT_EQ(reference.FirstDifference(*promoted), "");

    // The promoted shard is a live, durable primary.
    const SimTime next_hour = ((promoted->now() / kHour) + 1) * kHour;
    promoted->Ingest(
        BehaviorLog{1, BehaviorType::kIpv4, 4242, promoted->now()});
    promoted->AdvanceTo(next_hour);
    EXPECT_GT(promoted->jobs_run(), reference.jobs_run());
    EXPECT_GT(DurableWalBytes(replica_dirs[s]), 0u);
  }
}

}  // namespace
}  // namespace turbo::server
