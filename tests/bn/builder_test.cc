#include "bn/builder.h"

#include <gtest/gtest.h>

namespace turbo::bn {
namespace {

using storage::EdgeStore;
using storage::LogStore;

constexpr BehaviorType kIp = BehaviorType::kIpv4;
const int kIpIdx = EdgeTypeIndex(kIp);

BehaviorLog L(UserId u, ValueId v, SimTime t, BehaviorType type = kIp) {
  return BehaviorLog{u, type, v, t};
}

// Reproduces the Figure 3 toy example: four users co-occur inside one
// 1-hour epoch (weight 1/4 each pair), a fifth joins within the 2-hour
// epoch (weight 1/5 to everyone), so inner edges get 1/4 + 1/5 and edges
// to the fifth user get only 1/5.
TEST(BnBuilderTest, Figure3ToyExample) {
  BnConfig cfg;
  cfg.windows = {kHour, 2 * kHour};
  EdgeStore edges;
  BnBuilder builder(cfg, &edges);
  BehaviorLogList logs = {
      L(0, 42, 1800), L(1, 42, 1900), L(2, 42, 2000), L(3, 42, 2100),
      L(4, 42, 5000),  // second 1-hour epoch, same 2-hour epoch
  };
  builder.BuildFromLogs(logs);
  EXPECT_NEAR(edges.Weight(kIpIdx, 0, 1), 0.25f + 0.2f, 1e-6f);
  EXPECT_NEAR(edges.Weight(kIpIdx, 2, 3), 0.25f + 0.2f, 1e-6f);
  EXPECT_NEAR(edges.Weight(kIpIdx, 0, 4), 0.2f, 1e-6f);
  EXPECT_NEAR(edges.Weight(kIpIdx, 3, 4), 0.2f, 1e-6f);
  // Clique: all 10 pairs exist.
  EXPECT_EQ(edges.NumEdges(kIpIdx), 10u);
}

TEST(BnBuilderTest, InverseWeightScalesWithUsers) {
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore e2, e10;
  {
    BnBuilder b(cfg, &e2);
    b.BuildFromLogs({L(0, 1, 100), L(1, 1, 200)});
  }
  {
    BnBuilder b(cfg, &e10);
    BehaviorLogList logs;
    for (UserId u = 0; u < 10; ++u) logs.push_back(L(u, 1, 100 + u));
    b.BuildFromLogs(logs);
  }
  EXPECT_NEAR(e2.Weight(kIpIdx, 0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(e10.Weight(kIpIdx, 0, 1), 0.1f, 1e-6f);
}

TEST(BnBuilderTest, InverseWeightingCanBeDisabled) {
  BnConfig cfg;
  cfg.windows = {kHour};
  cfg.inverse_weighting = false;
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  BehaviorLogList logs;
  for (UserId u = 0; u < 5; ++u) logs.push_back(L(u, 1, 100 + u));
  b.BuildFromLogs(logs);
  EXPECT_NEAR(edges.Weight(kIpIdx, 0, 1), 1.0f, 1e-6f);
}

TEST(BnBuilderTest, DuplicateLogsCountUsersOnce) {
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  // User 0 logs the same value three times: N is still 2.
  b.BuildFromLogs({L(0, 1, 100), L(0, 1, 200), L(0, 1, 300), L(1, 1, 400)});
  EXPECT_NEAR(edges.Weight(kIpIdx, 0, 1), 0.5f, 1e-6f);
}

TEST(BnBuilderTest, HierarchicalWindowsRewardShortIntervals) {
  // Close pair: 10 minutes apart; far pair: 20 hours apart. With the
  // default 13-window hierarchy the close pair accumulates weight in
  // every window, the far pair only in the 1-day window.
  BnConfig cfg;  // default windows [1h..12h, 1d]
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  b.BuildFromLogs({
      L(0, 7, 100), L(1, 7, 700),                 // close pair, value 7
      L(2, 8, 1000), L(3, 8, 1000 + 20 * kHour),  // far pair, value 8
  });
  const float close_w = edges.Weight(kIpIdx, 0, 1);
  const float far_w = edges.Weight(kIpIdx, 2, 3);
  EXPECT_NEAR(close_w, 13 * 0.5f, 1e-5f);
  EXPECT_NEAR(far_w, 0.5f, 1e-5f);
  EXPECT_GT(close_w, 10 * far_w);
}

TEST(BnBuilderTest, SingleUserValueMakesNoEdges) {
  EdgeStore edges;
  BnBuilder b(BnConfig{}, &edges);
  b.BuildFromLogs({L(0, 1, 100), L(0, 1, 50000), L(0, 2, 100)});
  EXPECT_EQ(edges.TotalEdges(), 0u);
}

TEST(BnBuilderTest, UsersInDifferentEpochsNotConnected) {
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  b.BuildFromLogs({L(0, 1, 100), L(1, 1, 2 * kHour + 100)});
  EXPECT_EQ(edges.TotalEdges(), 0u);
}

TEST(BnBuilderTest, NonEdgeTypesAreIgnored) {
  EdgeStore edges;
  BnBuilder b(BnConfig{}, &edges);
  b.BuildFromLogs({L(0, 1, 100, BehaviorType::kGps),
                   L(1, 1, 200, BehaviorType::kGps)});
  EXPECT_EQ(edges.TotalEdges(), 0u);
}

TEST(BnBuilderTest, DifferentTypesBuildSeparateEdges) {
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  b.BuildFromLogs({L(0, 1, 100, BehaviorType::kImei),
                   L(1, 1, 200, BehaviorType::kImei),
                   L(0, 1, 100, BehaviorType::kWifiMac),
                   L(1, 1, 200, BehaviorType::kWifiMac)});
  EXPECT_NEAR(edges.Weight(EdgeTypeIndex(BehaviorType::kImei), 0, 1), 0.5f,
              1e-6f);
  EXPECT_NEAR(edges.Weight(EdgeTypeIndex(BehaviorType::kWifiMac), 0, 1),
              0.5f, 1e-6f);
}

TEST(BnBuilderTest, IncrementalWindowJobMatchesBatch) {
  BnConfig cfg;
  cfg.windows = {kHour};
  BehaviorLogList logs = {L(0, 1, 600), L(1, 1, 1200), L(2, 1, 3000),
                          L(0, 1, 4000), L(3, 1, 5000)};
  // Batch.
  EdgeStore batch;
  BnBuilder(cfg, &batch).BuildFromLogs(logs);
  // Incremental: run the hourly job at each epoch boundary.
  LogStore store;
  store.AppendBatch(logs);
  EdgeStore inc;
  BnBuilder builder(cfg, &inc);
  for (SimTime end = kHour; end <= 2 * kHour; end += kHour) {
    builder.RunWindowJob(store, kHour, end);
  }
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = u + 1; v < 4; ++v) {
      EXPECT_FLOAT_EQ(batch.Weight(kIpIdx, u, v), inc.Weight(kIpIdx, u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST(BnBuilderTest, ExpireOldUsesConfiguredTtl) {
  BnConfig cfg;
  cfg.windows = {kHour};
  cfg.edge_ttl = 10 * kDay;
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  b.BuildFromLogs({L(0, 1, 100), L(1, 1, 200),
                   L(2, 2, 20 * kDay + 10), L(3, 2, 20 * kDay + 60)});
  EXPECT_EQ(edges.TotalEdges(), 2u);
  // At day 25, the edge stamped near t=0 is past the 10-day TTL.
  EXPECT_EQ(b.ExpireOld(25 * kDay), 1u);
  EXPECT_EQ(edges.TotalEdges(), 1u);
  EXPECT_GT(edges.Weight(kIpIdx, 2, 3), 0.0f);
}

TEST(BnBuilderTest, PathologicalBucketIsCappedButWeightFaithful) {
  BnConfig cfg;
  cfg.windows = {kHour};
  cfg.max_bucket_users = 10;
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  BehaviorLogList logs;
  for (UserId u = 0; u < 50; ++u) logs.push_back(L(u, 1, 100 + u));
  b.BuildFromLogs(logs);
  // 10 sampled users -> 45 edges, each with the true 1/50 weight.
  EXPECT_EQ(edges.NumEdges(kIpIdx), 45u);
  auto users = edges.ConnectedUsers();
  ASSERT_FALSE(users.empty());
  auto& nbrs = edges.Neighbors(kIpIdx, users[0]);
  ASSERT_FALSE(nbrs.empty());
  EXPECT_NEAR(nbrs.begin()->second.weight, 1.0f / 50.0f, 1e-6f);
}

TEST(BnBuilderTest, EpochIndexBoundaries) {
  // Epoch 1 covers [0, W] (origin included); epoch j > 1 covers
  // ((j-1)W, jW].
  EXPECT_EQ(BnBuilder::EpochIndex(0, kHour), 1);
  EXPECT_EQ(BnBuilder::EpochIndex(1, kHour), 1);
  EXPECT_EQ(BnBuilder::EpochIndex(kHour, kHour), 1);
  EXPECT_EQ(BnBuilder::EpochIndex(kHour + 1, kHour), 2);
  EXPECT_EQ(BnBuilder::EpochIndex(2 * kHour, kHour), 2);
  EXPECT_EQ(BnBuilder::EpochIndex(2 * kHour + 1, kHour), 3);
}

TEST(BnBuilderTest, TimeZeroBelongsToFirstEpoch) {
  // A log at the origin is real data, not a sentinel: it co-occurs with
  // anything else in epoch 1.
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  b.BuildFromLogs({L(0, 1, 0), L(1, 1, kHour)});
  EXPECT_NEAR(edges.Weight(kIpIdx, 0, 1), 0.5f, 1e-6f);
}

TEST(BnBuilderTest, EpochBoundaryTimesSplitCorrectly) {
  // t = W is the last instant of epoch 1; t = W + 1 opens epoch 2.
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  b.BuildFromLogs({L(0, 1, kHour), L(1, 1, kHour + 1), L(2, 1, 2 * kHour)});
  EXPECT_FLOAT_EQ(edges.Weight(kIpIdx, 0, 1), 0.0f);  // epochs 1 vs 2
  EXPECT_NEAR(edges.Weight(kIpIdx, 1, 2), 0.5f, 1e-6f);  // both epoch 2
}

TEST(BnBuilderDeathTest, RejectsNegativeTimestamps) {
  // A negative time would silently fold into the first epoch under the
  // old floor arithmetic; it is a data bug and must fail loudly.
  BnConfig cfg;
  cfg.windows = {kHour};
  EdgeStore edges;
  BnBuilder b(cfg, &edges);
  EXPECT_DEATH(b.BuildFromLogs({L(0, 1, -1), L(1, 1, 100)}),
               "negative timestamp");
}

TEST(BnBuilderDeathTest, RejectsUnsortedWindows) {
  BnConfig cfg;
  cfg.windows = {2 * kHour, kHour};
  EdgeStore edges;
  EXPECT_DEATH(BnBuilder(cfg, &edges), "CHECK failed");
}

// The bucket-cache section refuses a key whose type byte names no
// BehaviorType, and leaves the cache empty.
TEST(BnBuilderTest, DeserializeCacheDeltaRejectsOutOfRangeType) {
  // One epoch ending at 1h, one key with users {1, 2}.
  const auto section = [](uint8_t type) {
    storage::BinaryWriter w;
    w.U64(1);
    w.I64(kHour);
    w.U64(1);
    w.U8(type);
    w.U64(42);
    w.U64(2);
    w.U32(1);
    w.U32(2);
    return w.data();
  };
  BnConfig cfg;
  cfg.windows = {kHour, kDay};
  EdgeStore edges;
  {
    BnBuilder builder(cfg, &edges);
    const std::string bytes = section(static_cast<uint8_t>(kIp));
    storage::BinaryReader r(bytes);
    ASSERT_TRUE(builder.DeserializeCacheDelta(&r, /*num_users=*/8).ok());
    EXPECT_EQ(builder.CachedBucketEpochs(), 1u);
  }
  for (const uint8_t type : {uint8_t{10}, uint8_t{255}}) {
    BnBuilder builder(cfg, &edges);
    const std::string bytes = section(type);
    storage::BinaryReader r(bytes);
    EXPECT_EQ(builder.DeserializeCacheDelta(&r, /*num_users=*/8).code(),
              StatusCode::kInvalidArgument)
        << "type " << int{type};
    EXPECT_EQ(builder.CachedBucketEpochs(), 0u);
  }
}

// The section also refuses a bucket user id at or past num_users and a
// negative epoch end, the checks a WAL record gets.
TEST(BnBuilderTest, DeserializeCacheDeltaRejectsOutOfRangeUserAndTime) {
  // One epoch, one key with users {1, user}.
  const auto section = [](SimTime epoch_end, UserId user) {
    storage::BinaryWriter w;
    w.U64(1);
    w.I64(epoch_end);
    w.U64(1);
    w.U8(static_cast<uint8_t>(kIp));
    w.U64(42);
    w.U64(2);
    w.U32(1);
    w.U32(user);
    return w.data();
  };
  BnConfig cfg;
  cfg.windows = {kHour, kDay};
  EdgeStore edges;
  {
    BnBuilder builder(cfg, &edges);
    const std::string bytes = section(kHour, 7);
    storage::BinaryReader r(bytes);
    ASSERT_TRUE(builder.DeserializeCacheDelta(&r, /*num_users=*/8).ok());
  }
  const std::pair<std::string, const char*> cases[] = {
      {section(kHour, 8), "user id 8 of 8"},
      {section(-kHour, 7), "epoch end -1h"},
  };
  for (const auto& [bytes, what] : cases) {
    BnBuilder builder(cfg, &edges);
    storage::BinaryReader r(bytes);
    EXPECT_EQ(builder.DeserializeCacheDelta(&r, /*num_users=*/8).code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(builder.CachedBucketEpochs(), 0u) << what;
  }
}

}  // namespace
}  // namespace turbo::bn
