#include "storage/edge_store.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace turbo::storage {
namespace {

TEST(EdgeStoreTest, AddWeightCreatesSymmetricEdge) {
  EdgeStore store;
  store.AddWeight(0, 1, 2, 0.25f, 100);
  EXPECT_FLOAT_EQ(store.Weight(0, 1, 2), 0.25f);
  EXPECT_FLOAT_EQ(store.Weight(0, 2, 1), 0.25f);
  EXPECT_EQ(store.NumEdges(0), 1u);
}

TEST(EdgeStoreTest, WeightsAccumulate) {
  EdgeStore store;
  store.AddWeight(3, 1, 2, 0.25f, 100);
  store.AddWeight(3, 2, 1, 0.20f, 200);
  EXPECT_FLOAT_EQ(store.Weight(3, 1, 2), 0.45f);
  EXPECT_EQ(store.NumEdges(3), 1u);  // still one undirected edge
}

TEST(EdgeStoreTest, TypesAreIndependent) {
  EdgeStore store;
  store.AddWeight(0, 1, 2, 1.0f, 0);
  store.AddWeight(1, 1, 2, 2.0f, 0);
  EXPECT_FLOAT_EQ(store.Weight(0, 1, 2), 1.0f);
  EXPECT_FLOAT_EQ(store.Weight(1, 1, 2), 2.0f);
  EXPECT_FLOAT_EQ(store.Weight(2, 1, 2), 0.0f);
  EXPECT_EQ(store.TotalEdges(), 2u);
}

TEST(EdgeStoreTest, NeighborsAndDegrees) {
  EdgeStore store;
  store.AddWeight(0, 5, 6, 0.5f, 0);
  store.AddWeight(0, 5, 7, 1.5f, 0);
  EXPECT_EQ(store.Neighbors(0, 5).size(), 2u);
  EXPECT_DOUBLE_EQ(store.WeightedDegree(0, 5), 2.0);
  EXPECT_DOUBLE_EQ(store.WeightedDegree(0, 6), 0.5);
  EXPECT_TRUE(store.Neighbors(0, 99).empty());
}

TEST(EdgeStoreTest, TtlExpiryRemovesStaleEdges) {
  EdgeStore store;
  store.AddWeight(0, 1, 2, 1.0f, /*now=*/100);
  store.AddWeight(0, 3, 4, 1.0f, /*now=*/500);
  size_t removed = store.ExpireBefore(/*cutoff=*/300);
  EXPECT_EQ(removed, 1u);
  EXPECT_FLOAT_EQ(store.Weight(0, 1, 2), 0.0f);
  EXPECT_FLOAT_EQ(store.Weight(0, 3, 4), 1.0f);
  EXPECT_EQ(store.NumEdges(0), 1u);
}

TEST(EdgeStoreTest, RefreshedEdgeSurvivesExpiry) {
  EdgeStore store;
  store.AddWeight(0, 1, 2, 1.0f, 100);
  store.AddWeight(0, 1, 2, 1.0f, 400);  // refresh
  EXPECT_EQ(store.ExpireBefore(300), 0u);
  EXPECT_FLOAT_EQ(store.Weight(0, 1, 2), 2.0f);
}

TEST(EdgeStoreTest, ConnectedUsers) {
  EdgeStore store;
  store.AddWeight(0, 1, 5, 1.0f, 0);
  store.AddWeight(2, 3, 5, 1.0f, 0);
  auto users = store.ConnectedUsers();
  EXPECT_EQ(users, (std::vector<UserId>{1, 3, 5}));
}

TEST(EdgeStoreDeathTest, RejectsSelfLoopAndBadType) {
  EdgeStore store;
  EXPECT_DEATH(store.AddWeight(0, 1, 1, 1.0f, 0), "CHECK failed");
  EXPECT_DEATH(store.AddWeight(-1, 1, 2, 1.0f, 0), "CHECK failed");
  EXPECT_DEATH(store.AddWeight(kNumEdgeTypes, 1, 2, 1.0f, 0),
               "CHECK failed");
  EXPECT_DEATH(store.AddWeight(0, 1, 2, 0.0f, 0), "CHECK failed");
}

TEST(EdgeStoreDeathTest, RejectsWrappedNegativeIds) {
  // Regression: a negative int cast to UserId wraps past 2^31; before the
  // AddWeight guard this drove EnsureSize into a multi-gigabyte resize
  // instead of an abort.
  EdgeStore store;
  EXPECT_DEATH(store.AddWeight(0, static_cast<UserId>(-1), 1, 1.0f, 0),
               "CHECK failed");
  EXPECT_DEATH(store.AddWeight(0, 1, static_cast<UserId>(-7), 1.0f, 0),
               "CHECK failed");
}

TEST(EdgeStoreTest, SerializeRoundTripsExactly) {
  EdgeStore store;
  store.AddWeight(0, 1, 2, 0.25f, 100);
  store.AddWeight(0, 1, 2, 1.0f / 3.0f, 200);
  store.AddWeight(2, 5, 7, 0.125f, 300);
  BinaryWriter w;
  store.Serialize(&w);
  BinaryReader r(w.data());
  EdgeStore restored;
  ASSERT_TRUE(restored.Deserialize(&r, /*num_users=*/8).ok());
  EXPECT_EQ(restored.TotalEdges(), 2u);
  // Exact double bits, not re-accumulated floats.
  EXPECT_EQ(restored.Neighbors(0, 1).at(2).weight,
            store.Neighbors(0, 1).at(2).weight);
  EXPECT_EQ(restored.Neighbors(0, 1).at(2).last_update, 200);
  EXPECT_EQ(restored.Neighbors(2, 5).at(7).weight,
            store.Neighbors(2, 5).at(7).weight);
}

TEST(EdgeStoreTest, DeserializeRejectsEndpointBeyondBound) {
  // Regression: a CRC-valid but corrupt record with a uid near 2^32 must
  // return InvalidArgument, not drive EnsureSize into a multi-billion-row
  // adjacency resize.
  BinaryWriter w;
  w.U64(1);  // type 0: one edge
  w.U32(3000000000u);
  w.U32(1);
  w.F64(1.0);
  w.I64(0);
  for (int t = 1; t < kNumEdgeTypes; ++t) w.U64(0);
  BinaryReader r(w.data());
  EdgeStore store;
  const Status s = store.Deserialize(&r, /*num_users=*/64);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EdgeStoreTest, DeserializeRejectsEndpointJustPastBound) {
  BinaryWriter w;
  w.U64(1);
  w.U32(1);
  w.U32(64);  // == num_users, first out-of-range id
  w.F64(1.0);
  w.I64(0);
  for (int t = 1; t < kNumEdgeTypes; ++t) w.U64(0);
  BinaryReader r(w.data());
  EdgeStore store;
  EXPECT_FALSE(store.Deserialize(&r, /*num_users=*/64).ok());
}

TEST(EdgeStoreTest, ExpiryCountsEachUndirectedEdgeOnce) {
  EdgeStore store;
  for (UserId u = 0; u < 4; ++u) {
    for (UserId v = u + 1; v < 4; ++v) {
      store.AddWeight(0, u, v, 1.0f, 10);
    }
  }
  EXPECT_EQ(store.NumEdges(0), 6u);
  EXPECT_EQ(store.ExpireBefore(100), 6u);
  EXPECT_EQ(store.NumEdges(0), 0u);
}

struct Add {
  int type;
  UserId u, v;
  float w;
  SimTime t;
};

EdgeStore Build(const std::vector<Add>& adds) {
  EdgeStore store;
  for (const Add& a : adds) store.AddWeight(a.type, a.u, a.v, a.w, a.t);
  return store;
}

// Three edges over two types; edge 1-2 accumulates two terms.
const std::vector<Add> kAdds = {{0, 1, 2, 0.25f, 100},
                                {0, 1, 2, 1.0f / 3.0f, 200},
                                {0, 2, 3, 0.5f, 150},
                                {2, 5, 7, 0.125f, 300}};

TEST(EdgeStoreOracleTest, IdenticalStoresHaveNoDifference) {
  const EdgeStore store = Build(kAdds);
  EXPECT_EQ(store.FirstDifference(Build(kAdds)), "");
  BinaryWriter w;
  store.Serialize(&w);
  BinaryReader r(w.data());
  EdgeStore restored;
  ASSERT_TRUE(restored.Deserialize(&r, /*num_users=*/8).ok());
  EXPECT_EQ(store.FirstDifference(restored), "");
  EXPECT_EQ(restored.FirstDifference(store), "");
}

TEST(EdgeStoreOracleTest, EverySingleChangeIsNamed) {
  std::vector<Add> last_bit = kAdds, restamped = kAdds, extra = kAdds,
                   moved = kAdds;
  // 0.25 + 1/3 lies in [0.5, 1), where a double's last bit is 2^-53.
  last_bit.push_back({0, 1, 2, std::ldexp(1.0f, -53), 200});
  restamped.back().t = 301;
  extra.push_back({2, 4, 6, 1.0f, 300});
  moved.back().v = 6;  // same edge counts, other endpoint
  const std::pair<std::vector<Add>, const char*> cases[] = {
      {last_bit, "type 0 edge 1-2: weight"},
      {restamped, "type 2 edge 5-7: last_update 300 vs 301"},
      {{kAdds.begin(), kAdds.end() - 1}, "type 2: 1 vs 0 edges"},
      {extra, "type 2: 1 vs 2 edges"},
      {moved, "type 2 edge 5-7: weight 0.125 vs 0"},
  };
  for (const auto& [adds, named] : cases) {
    const std::string diff = Build(kAdds).FirstDifference(Build(adds));
    EXPECT_NE(diff.find(named), std::string::npos) << diff;
  }
}

TEST(EdgeStoreOracleTest, SumOfPartsNamesEveryViolation) {
  // Edge 1-2's two terms land in different parts.
  const std::vector<Add> part0 = {kAdds[0], kAdds[2]};
  const std::vector<Add> part1 = {kAdds[1], kAdds[3]};
  const auto diff = [](const std::vector<Add>& a, const std::vector<Add>& b) {
    const EdgeStore p0 = Build(a), p1 = Build(b);
    return Build(kAdds).FirstDifferenceFromSum({&p0, &p1});
  };
  EXPECT_EQ(diff(part0, part1), "");
  std::vector<Add> off = part1, newer = part0, phantom = part0;
  off[0].w = 0.3f;
  newer[0].t = 250;  // the sum carries the parts' latest stamp
  phantom.push_back({1, 3, 4, 1.0f, 100});
  const struct {
    std::vector<Add> part0, part1;
    const char* named;
  } cases[] = {
      {part0, off, "type 0 edge 1-2: weight"},
      {newer, part1, "type 0 edge 1-2: last_update 200 vs 250"},
      {phantom, part1, "type 1 edge 3-4: only in part 0"},
      {part0, {kAdds[1]}, "type 2 edge 5-7: weight 0.125 vs 0"},  // unheld
  };
  for (const auto& c : cases) {
    const std::string d = diff(c.part0, c.part1);
    EXPECT_NE(d.find(c.named), std::string::npos) << d;
  }
}

}  // namespace
}  // namespace turbo::storage
