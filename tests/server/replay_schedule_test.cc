// Seeded schedules over the one WAL replay loop (BnServer::ReplayWal),
// which Recover, WarmStandby::CatchUp and Promote all run. Each seed
// sets up a primary with a WAL and a WarmStandby over a ShipWalDir
// replica shipped in random chunk sizes, then drives a random mix of
// IngestBatch, AdvanceTo, Checkpoint and ships, with light and heavy
// churn so that both full and delta checkpoint links occur. After every
// flush point (AdvanceTo, Checkpoint) it ships, catches the standby up,
// and requires three servers to hold the primary's state: the standby,
// a WAL-less Recover of the replica, and a WAL-less Recover of the
// primary's directory. Each seed ends with Promote and a WAL-less
// Recover of the promoted directory. Failures name the seed.
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "server/warm_standby.h"
#include "storage/wal.h"
#include "storage/wal_ship.h"
#include "util/rng.h"

namespace turbo::server {
namespace {

constexpr int kSeeds = 40;
constexpr int kUsers = 64;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
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

/// `n` logs in [t0, t0 + span) over a few values per type, so users
/// co-occur and the window jobs build edges.
BehaviorLogList RandomLogs(Rng* rng, SimTime t0, SimTime span, int n) {
  constexpr BehaviorType kTypes[] = {BehaviorType::kIpv4,
                                     BehaviorType::kWifiMac,
                                     BehaviorType::kDeviceId};
  BehaviorLogList logs;
  for (int i = 0; i < n; ++i) {
    logs.push_back(BehaviorLog{
        static_cast<UserId>(rng->NextUint(kUsers)), kTypes[rng->NextUint(3)],
        static_cast<ValueId>(1 + rng->NextUint(12)),
        t0 + static_cast<SimTime>(rng->NextUint(span))});
  }
  return logs;
}

/// FirstDifference of a WAL-less Recover of `dir` against `primary`.
std::string RecoveredDifference(const BnServer& primary,
                                const std::string& dir) {
  BnServer recovered(SmallConfig());
  const Status s = recovered.Recover(dir);
  if (!s.ok()) return "Recover(" + dir + "): " + s.ToString();
  return primary.FirstDifference(recovered);
}

struct Counts {
  int full = 0;
  int delta = 0;
};

void RunSchedule(uint64_t seed, Counts* counts) {
  Rng rng(seed);
  const std::string name = "replay_schedule_" + std::to_string(seed);
  const std::string primary_dir = FreshDir(name + "_primary");
  const std::string replica_dir = FreshDir(name + "_replica");
  BnServerConfig cfg = SmallConfig(primary_dir);
  cfg.max_delta_chain = 1 + static_cast<int>(rng.NextUint(3));
  cfg.wal.fsync = storage::WalOptions::Fsync::kNever;
  // Small group commits flush mid-batch, so ships land mid-segment.
  cfg.wal.group_commit_records = 1 + rng.NextUint(48);
  BnServer primary(cfg);
  WarmStandbyConfig scfg;
  scfg.server = SmallConfig();
  scfg.replica_dir = replica_dir;
  WarmStandby standby(scfg);
  storage::WalShipOptions ship_options;
  ship_options.append_chunk_bytes = 1 + rng.NextUint(4096);

  const auto ship_and_catch_up = [&] {
    auto shipped = storage::ShipWalDir(primary_dir, replica_dir, ship_options);
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    const Status s = standby.CatchUp();
    if (s.ok()) return;
    // A checkpoint rotation deletes the segment under the standby's
    // cursor; the documented way back is the shipped checkpoint.
    ASSERT_NE(s.message().find("replication gap"), std::string::npos)
        << s.ToString();
    const Status again = standby.Rebootstrap();
    ASSERT_TRUE(again.ok()) << again.ToString();
  };
  const auto check_flush_point = [&](const std::string& where) {
    ship_and_catch_up();
    if (testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(standby.bootstrapped()) << where;
    EXPECT_EQ(primary.FirstDifference(*standby.server()), "")
        << where << ": standby";
    EXPECT_EQ(RecoveredDifference(primary, replica_dir), "")
        << where << ": replica recovery";
    EXPECT_EQ(RecoveredDifference(primary, primary_dir), "")
        << where << ": primary recovery";
  };

  SimTime now = 0;
  const int steps = 10 + static_cast<int>(rng.NextUint(8));
  for (int step = 0; step < steps; ++step) {
    const std::string where = "step " + std::to_string(step);
    switch (rng.NextUint(5)) {
      case 0:
      case 1: {
        // Light churn keeps a checkpoint a delta; heavy churn makes the
        // delta outgrow half the base, which writes a full one.
        const int n = rng.NextUint(2) == 0
                          ? 1 + static_cast<int>(rng.NextUint(6))
                          : 60 + static_cast<int>(rng.NextUint(120));
        primary.IngestBatch(RandomLogs(&rng, now, 3 * kHour, n));
        break;
      }
      case 2:
        now += static_cast<SimTime>(1 + rng.NextUint(6)) * kHour;
        primary.AdvanceTo(now);
        check_flush_point(where + " AdvanceTo");
        break;
      case 3: {
        const size_t deltas = storage::ListCheckpointDeltas(primary_dir).size();
        ASSERT_TRUE(primary.Checkpoint(primary_dir).ok()) << where;
        if (storage::ListCheckpointDeltas(primary_dir).size() > deltas) {
          ++counts->delta;
        } else {
          ++counts->full;
        }
        check_flush_point(where + " Checkpoint");
        break;
      }
      default:
        // A ship between flush points: the standby applies the prefix
        // the group commits have written and resumes from it later.
        ship_and_catch_up();
        break;
    }
    if (testing::Test::HasFailure()) return;
  }

  now += kHour;
  primary.AdvanceTo(now);
  check_flush_point("final AdvanceTo");
  if (testing::Test::HasFailure()) return;
  auto promoted_or = standby.Promote();
  ASSERT_TRUE(promoted_or.ok()) << promoted_or.status().ToString();
  BnServer* promoted = promoted_or.value();
  EXPECT_EQ(primary.FirstDifference(*promoted), "") << "promoted";
  // The promoted server logs to the replica directory from here on.
  const BehaviorLogList tail = RandomLogs(&rng, now, kHour, 20);
  primary.IngestBatch(tail);
  promoted->IngestBatch(tail);
  primary.AdvanceTo(now + kHour);
  promoted->AdvanceTo(now + kHour);
  EXPECT_EQ(primary.FirstDifference(*promoted), "") << "promoted, after tail";
  EXPECT_EQ(RecoveredDifference(primary, replica_dir), "")
      << "promoted directory recovery";
}

TEST(ReplayScheduleTest, StandbyAndRecoveriesTrackThePrimary) {
  Counts counts;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunSchedule(seed, &counts);
    if (HasFailure()) return;
  }
  // The schedules must have exercised both kinds of checkpoint link.
  EXPECT_GT(counts.full, 0);
  EXPECT_GT(counts.delta, 0);
}

}  // namespace
}  // namespace turbo::server
