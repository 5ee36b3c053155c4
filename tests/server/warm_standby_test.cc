// WarmStandby replay protocol (DESIGN.md §14): a standby continuously
// replaying shipped WAL is bit-identical to its primary at every
// caught-up point, waits (never truncates) on a torn tail that is still
// being shipped, never reapplies a re-shipped duplicate, fails loudly
// on a sequence gap, and promotes into a durable primary.
#include "server/warm_standby.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/wal.h"
#include "storage/wal_ship.h"

namespace turbo::server {
namespace {

namespace fs = std::filesystem;

constexpr int kUsers = 64;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

BnServerConfig SmallConfig(const std::string& wal_dir = "") {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = kUsers;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.wal_dir = wal_dir;
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

struct Rig {
  std::string primary_dir;
  std::string replica_dir;
  std::unique_ptr<BnServer> primary;
  std::unique_ptr<WarmStandby> standby;

  explicit Rig(const std::string& name) {
    primary_dir = FreshDir(name + "_primary");
    replica_dir = FreshDir(name + "_replica");
    primary = std::make_unique<BnServer>(SmallConfig(primary_dir));
    WarmStandbyConfig scfg;
    scfg.server = SmallConfig();
    scfg.replica_dir = replica_dir;
    standby = std::make_unique<WarmStandby>(scfg);
  }

  void Ship() {
    auto stats_or = storage::ShipWalDir(primary_dir, replica_dir);
    ASSERT_TRUE(stats_or.ok()) << stats_or.status().message();
  }
};

TEST(WarmStandbyTest, WaitsWhileNothingIsShipped) {
  Rig rig("standby_wait");
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  EXPECT_FALSE(rig.standby->bootstrapped());
  EXPECT_EQ(rig.standby->server(), nullptr);
}

TEST(WarmStandbyTest, ContinuousCatchUpTracksThePrimaryBitForBit) {
  Rig rig("standby_track");
  // Round 1: WAL-only bootstrap.
  rig.primary->IngestBatch(Traffic(0, kDay, 120));
  rig.primary->AdvanceTo(kDay);
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  ASSERT_TRUE(rig.standby->bootstrapped());
  EXPECT_EQ(rig.primary->FirstDifference(*rig.standby->server()), "");

  // Round 2+: incremental records onto the same segment chain.
  for (int round = 1; round <= 3; ++round) {
    const SimTime t0 = kDay + (round - 1) * 5 * kHour;
    rig.primary->IngestBatch(Traffic(t0, t0 + 5 * kHour, 40));
    rig.primary->AdvanceTo(t0 + 5 * kHour);
    rig.Ship();
    ASSERT_TRUE(rig.standby->CatchUp().ok()) << "round " << round;
    EXPECT_EQ(rig.primary->FirstDifference(*rig.standby->server()), "");
  }
  // The standby serves lock-free reads the whole time.
  EXPECT_GT(rig.standby->server()->snapshot_version(), 0u);
  EXPECT_GT(rig.standby->records_applied_total(), 0u);
}

TEST(WarmStandbyTest, DuplicateReshipAppliesNothing) {
  Rig rig("standby_dup");
  rig.primary->IngestBatch(Traffic(0, kDay, 80));
  rig.primary->AdvanceTo(kDay);
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  const uint64_t applied = rig.standby->records_applied_total();
  const size_t logs = rig.standby->server()->logs().size();

  // Ship again (no-op) and catch up again: same files, zero new work.
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  EXPECT_EQ(rig.standby->records_applied_total(), applied);
  EXPECT_EQ(rig.standby->server()->logs().size(), logs);
  EXPECT_EQ(rig.primary->FirstDifference(*rig.standby->server()), "");
}

TEST(WarmStandbyTest, TornFinalSegmentWaitsThenResumes) {
  Rig rig("standby_torn");
  rig.primary->IngestBatch(Traffic(0, kDay, 60));
  rig.primary->AdvanceTo(kDay);
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());

  // The primary appends more records; the ship races it and copies a
  // torn tail. Simulate by shipping, then cutting the replica's final
  // segment mid-record (the bytes the racing ship did not see yet).
  rig.primary->IngestBatch(Traffic(kDay, kDay + 2 * kHour, 30));
  rig.primary->AdvanceTo(kDay + 2 * kHour);
  rig.Ship();
  const std::vector<uint64_t> seqs = storage::ListWalSegments(rig.replica_dir);
  ASSERT_FALSE(seqs.empty());
  const std::string last =
      storage::WalSegmentPath(rig.replica_dir, seqs.back());
  const size_t full_size = static_cast<size_t>(fs::file_size(last));
  fs::resize_file(last, full_size - 3);
  auto torn_or = storage::ReadWalSegment(last);
  ASSERT_TRUE(torn_or.ok());
  ASSERT_TRUE(torn_or.value().torn);
  const size_t prefix_records = torn_or.value().records.size();

  // CatchUp applies the valid prefix, then WAITS: OK status, no
  // truncation of the replica file.
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  EXPECT_EQ(rig.standby->applied_seq(), seqs.back());
  EXPECT_EQ(rig.standby->applied_records(), prefix_records);
  EXPECT_EQ(static_cast<size_t>(fs::file_size(last)), full_size - 3);

  // The next ship completes the record; replay resumes past the former
  // tear and lands bit-identical — nothing was reapplied or lost.
  rig.Ship();
  ASSERT_EQ(static_cast<size_t>(fs::file_size(last)), full_size);
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  EXPECT_EQ(rig.primary->FirstDifference(*rig.standby->server()), "");
}

TEST(WarmStandbyTest, SequenceGapFailsLoudlyAndRebootstrapRecovers) {
  Rig rig("standby_gap");
  rig.primary->IngestBatch(Traffic(0, kDay, 80));
  rig.primary->AdvanceTo(kDay);
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());

  // Checkpoint rotation on the primary deletes the segments this
  // standby was consuming; the mirror-delete ship propagates that.
  rig.primary->IngestBatch(Traffic(kDay, kDay + 3 * kHour, 40));
  rig.primary->AdvanceTo(kDay + 3 * kHour);
  ASSERT_TRUE(rig.primary->Checkpoint(rig.primary_dir).ok());
  rig.primary->IngestBatch(Traffic(kDay + 3 * kHour, kDay + 6 * kHour, 40));
  rig.primary->AdvanceTo(kDay + 6 * kHour);
  rig.Ship();

  const Status gap = rig.standby->CatchUp();
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kInternal);
  EXPECT_NE(gap.message().find("replication gap"), std::string::npos)
      << gap.message();

  // The documented way back: rebuild from the shipped checkpoint.
  ASSERT_TRUE(rig.standby->Rebootstrap().ok());
  EXPECT_EQ(rig.primary->FirstDifference(*rig.standby->server()), "");
}

TEST(WarmStandbyTest, PromoteSealsTornTailAndBecomesDurablePrimary) {
  Rig rig("standby_promote");
  rig.primary->IngestBatch(Traffic(0, kDay, 100));
  rig.primary->AdvanceTo(kDay);
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());

  // The primary dies mid-append: the last shipped segment ends torn.
  const std::vector<uint64_t> seqs = storage::ListWalSegments(rig.replica_dir);
  ASSERT_FALSE(seqs.empty());
  const std::string last =
      storage::WalSegmentPath(rig.replica_dir, seqs.back());
  auto before_or = storage::ReadWalSegment(last);
  ASSERT_TRUE(before_or.ok());
  const size_t clean_records = before_or.value().records.size();
  {
    // Append garbage: the start of a record the primary never finished.
    std::ofstream out(last, std::ios::binary | std::ios::app);
    out.write("\x01\xff\xff", 3);
  }
  rig.primary.reset();  // declared dead

  auto promoted_or = rig.standby->Promote();
  ASSERT_TRUE(promoted_or.ok()) << promoted_or.status().message();
  BnServer* promoted = promoted_or.value();
  EXPECT_TRUE(rig.standby->promoted());
  // The tear was sealed: the replica segment reads clean again with
  // exactly the records that were durable.
  auto after_or = storage::ReadWalSegment(last);
  ASSERT_TRUE(after_or.ok());
  EXPECT_FALSE(after_or.value().torn);
  EXPECT_EQ(after_or.value().records.size(), clean_records);

  // The promoted server is a real primary: new writes are durable in
  // the adopted directory and a cold Recover reproduces them.
  promoted->IngestBatch(Traffic(kDay, kDay + 4 * kHour, 50));
  promoted->AdvanceTo(kDay + 4 * kHour);
  BnServer recovered(SmallConfig(rig.replica_dir));
  ASSERT_TRUE(recovered.Recover(rig.replica_dir).ok());
  EXPECT_EQ(promoted->FirstDifference(recovered), "");
}

TEST(WarmStandbyTest, PromoteWithoutShippedStateIsRefused) {
  Rig rig("standby_empty_promote");
  auto promoted_or = rig.standby->Promote();
  ASSERT_FALSE(promoted_or.ok());
  EXPECT_EQ(promoted_or.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WarmStandbyTest, BootstrapFromShippedCheckpointPlusWalTail) {
  // A standby that attaches late — after the primary already
  // checkpointed — bootstraps from checkpoint + WAL tail, not just WAL.
  Rig rig("standby_late");
  rig.primary->IngestBatch(Traffic(0, kDay, 100));
  rig.primary->AdvanceTo(kDay);
  ASSERT_TRUE(rig.primary->Checkpoint(rig.primary_dir).ok());
  rig.primary->IngestBatch(Traffic(kDay, kDay + 5 * kHour, 50));
  rig.primary->AdvanceTo(kDay + 5 * kHour);
  rig.Ship();
  ASSERT_TRUE(rig.standby->CatchUp().ok());
  ASSERT_TRUE(rig.standby->bootstrapped());
  EXPECT_EQ(rig.primary->FirstDifference(*rig.standby->server()), "");
  // Replication metrics track the replay cursor.
  const std::string text = rig.standby->metrics().RenderText();
  EXPECT_NE(text.find("bn_replica_shard0_applied_seq"), std::string::npos);
  EXPECT_NE(text.find("bn_replica_shard0_records_applied_total"),
            std::string::npos);
}

TEST(WarmStandbyTest, ConfigMismatchIsRejectedBeforeAnyCheckpoint) {
  // With nothing checkpointed yet, the shipped WAL segment headers carry
  // the primary's config fingerprint; a standby configured differently
  // (engine schedule or shard topology) refuses to bootstrap.
  const std::string primary_dir = FreshDir("standby_cfg_primary");
  const std::string replica_dir = FreshDir("standby_cfg_replica");
  BnServerConfig primary_cfg = SmallConfig(primary_dir);
  primary_cfg.bn.topology.shard_count = 2;
  primary_cfg.bn.topology.shard_index = 1;
  BnServer primary(primary_cfg);
  primary.IngestBatch(Traffic(0, kHour, 20));
  primary.AdvanceTo(kHour);
  ASSERT_TRUE(storage::ShipWalDir(primary_dir, replica_dir).ok());
  ASSERT_FALSE(fs::exists(replica_dir + "/checkpoint.bin"));

  BnServerConfig standby_cfg = primary_cfg;
  standby_cfg.wal_dir.clear();
  const auto catch_up = [&](const BnServerConfig& server) {
    WarmStandbyConfig scfg;
    scfg.server = server;
    scfg.replica_dir = replica_dir;
    auto standby = std::make_unique<WarmStandby>(scfg);
    const Status s = standby->CatchUp();
    return std::make_pair(s, std::move(standby));
  };
  BnServerConfig wrong_windows = standby_cfg;
  wrong_windows.bn.windows = {kHour, 2 * kDay};
  BnServerConfig wrong_count = standby_cfg;
  wrong_count.bn.topology.shard_count = 4;
  BnServerConfig wrong_index = standby_cfg;
  wrong_index.bn.topology.shard_index = 0;
  BnServerConfig wrong_user_seed = standby_cfg;
  wrong_user_seed.bn.topology.user_seed ^= 1;
  BnServerConfig wrong_value_seed = standby_cfg;
  wrong_value_seed.bn.topology.value_seed ^= 1;
  for (const BnServerConfig& wrong :
       {wrong_windows, wrong_count, wrong_index, wrong_user_seed,
        wrong_value_seed}) {
    auto [s, standby] = catch_up(wrong);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
    EXPECT_FALSE(standby->bootstrapped());
  }
  auto [s, standby] = catch_up(standby_cfg);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(primary.FirstDifference(*standby->server()), "");
}

}  // namespace
}  // namespace turbo::server
