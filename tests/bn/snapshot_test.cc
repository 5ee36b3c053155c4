#include "bn/snapshot.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "storage/checkpoint_io.h"

namespace turbo::bn {
namespace {

using storage::EdgeStore;

// Two-type example:
//   type 0: 0-1 (w 2), 1-2 (w 2)
//   type 1: 0-1 (w 1), 0-2 (w 3)
EdgeStore MakeStore() {
  EdgeStore s;
  s.AddWeight(0, 0, 1, 2.0f, 0);
  s.AddWeight(0, 1, 2, 2.0f, 0);
  s.AddWeight(1, 0, 1, 1.0f, 0);
  s.AddWeight(1, 0, 2, 3.0f, 0);
  return s;
}

SnapshotOptions Raw() {
  SnapshotOptions o;
  o.normalize = false;
  return o;
}

TEST(SnapshotTest, SnapshotPreservesEdges) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
  EXPECT_EQ(snap->num_nodes(), 3);
  EXPECT_EQ(snap->NumEdges(0), 2u);
  EXPECT_EQ(snap->NumEdges(1), 2u);
  EXPECT_EQ(snap->TotalEdges(), 4u);
  ASSERT_EQ(snap->Neighbors(0, 1).size(), 2u);
  EXPECT_DOUBLE_EQ(snap->WeightedDegree(0, 1), 4.0);
}

TEST(SnapshotTest, NeighborsSortedById) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
  const auto nbrs = snap->Neighbors(0, 1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_LT(nbrs.id(0), nbrs.id(1));
}

TEST(SnapshotTest, SymmetricNormalizationFusedIntoBuild) {
  auto snap = BnSnapshot::Build(MakeStore(), 3);
  EXPECT_TRUE(snap->normalized());
  // Type 0: deg(0)=2, deg(1)=4, deg(2)=2.
  // w'(0,1) = 2 / sqrt(2*4)
  const auto nbrs = snap->Neighbors(0, 0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_NEAR(nbrs.weight(0), 2.0f / std::sqrt(8.0f), 1e-6f);
  // Symmetric: same value seen from node 1.
  for (const auto& e : snap->Neighbors(0, 1)) {
    if (e.id == 0) {
      EXPECT_NEAR(e.weight, 2.0f / std::sqrt(8.0f), 1e-6f);
    }
  }
}

TEST(SnapshotTest, NormalizationIsPerType) {
  auto snap = BnSnapshot::Build(MakeStore(), 3);
  // Type 1: deg(0)=4, deg(1)=1, deg(2)=3. w'(0,1) = 1/sqrt(4).
  for (const auto& e : snap->Neighbors(1, 0)) {
    if (e.id == 1) {
      EXPECT_NEAR(e.weight, 0.5f, 1e-6f);
    }
    if (e.id == 2) {
      EXPECT_NEAR(e.weight, 3.0f / std::sqrt(12.0f), 1e-6f);
    }
  }
}

TEST(SnapshotTest, ParallelBuildMatchesSerialBuild) {
  SnapshotOptions serial;
  serial.num_threads = 1;
  SnapshotOptions parallel;
  parallel.num_threads = 4;
  auto a = BnSnapshot::Build(MakeStore(), 3, serial);
  auto b = BnSnapshot::Build(MakeStore(), 3, parallel);
  EXPECT_EQ(a->FirstDifference(*b), "");
}

TEST(SnapshotTest, VersionIsCarried) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw(), /*version=*/42);
  EXPECT_EQ(snap->version(), 42u);
  GraphView view(snap);
  EXPECT_EQ(view.version(), 42u);
}

TEST(GraphViewTest, UnionNeighborsMergeAcrossTypes) {
  GraphView net(BnSnapshot::Build(MakeStore(), 3, Raw()));
  auto u0 = net.UnionNeighbors(0);
  ASSERT_EQ(u0.size(), 2u);  // {1, 2}
  EXPECT_EQ(u0[0].id, 1u);
  EXPECT_FLOAT_EQ(u0[0].weight, 3.0f);  // 2 (type 0) + 1 (type 1)
  EXPECT_EQ(u0[1].id, 2u);
  EXPECT_FLOAT_EQ(u0[1].weight, 3.0f);
  EXPECT_EQ(net.UnionDegree(0), 2u);
  EXPECT_DOUBLE_EQ(net.UnionWeightedDegree(0), 6.0);
}

TEST(GraphViewTest, MaskingIsZeroCopyOverSharedSnapshot) {
  GraphView net(BnSnapshot::Build(MakeStore(), 3, Raw()));
  GraphView masked = net.WithTypeMasked(0);
  EXPECT_EQ(masked.NumEdges(0), 0u);
  EXPECT_EQ(masked.NumEdges(1), 2u);
  EXPECT_TRUE(masked.Neighbors(0, 1).empty());
  EXPECT_FALSE(masked.type_enabled(0));
  EXPECT_TRUE(masked.type_enabled(1));
  // Union view respects the mask.
  auto u0 = masked.UnionNeighbors(0);
  ASSERT_EQ(u0.size(), 2u);
  EXPECT_FLOAT_EQ(u0[0].weight, 1.0f);  // only type 1 remains
  // Original untouched and both views share one snapshot (no copy).
  EXPECT_EQ(net.NumEdges(0), 2u);
  EXPECT_EQ(masked.snapshot().get(), net.snapshot().get());
}

TEST(GraphViewTest, ViewKeepsSnapshotAlive) {
  GraphView view;
  {
    auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
    view = GraphView(snap);
  }
  // The temporary shared_ptr is gone; the view still serves reads.
  EXPECT_EQ(view.TotalEdges(), 4u);
  ASSERT_EQ(view.Neighbors(0, 1).size(), 2u);
}

TEST(SnapshotTest, IsolatedNodesHaveNoNeighbors) {
  GraphView net(BnSnapshot::Build(MakeStore(), 5, Raw()));
  EXPECT_TRUE(net.Neighbors(0, 4).empty());
  EXPECT_EQ(net.UnionDegree(4), 0u);
  // Normalization must not divide by zero on isolated nodes.
  GraphView norm(BnSnapshot::Build(MakeStore(), 5));
  EXPECT_TRUE(norm.Neighbors(0, 4).empty());
}

TEST(SnapshotOracleTest, IdenticalSnapshotsHaveNoDifference) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, {}, /*version=*/1);
  // The version is the caller's to compare.
  EXPECT_EQ(snap->FirstDifference(*BnSnapshot::Build(MakeStore(), 3, {}, 2)),
            "");
  storage::BinaryWriter w;
  snap->Serialize(&w);
  storage::BinaryReader r(w.data());
  auto restored_or = BnSnapshot::Deserialize(&r);
  ASSERT_TRUE(restored_or.ok());
  EXPECT_EQ(snap->FirstDifference(*restored_or.value()), "");
}

TEST(SnapshotOracleTest, EverySingleChangeIsNamed) {
  // Same edge counts and row sizes, but type 0's row 0 points at 2.
  EdgeStore other_id;
  other_id.AddWeight(0, 0, 2, 2.0f, 0);
  other_id.AddWeight(0, 1, 2, 2.0f, 0);
  other_id.AddWeight(1, 0, 1, 1.0f, 0);
  other_id.AddWeight(1, 0, 2, 3.0f, 0);
  EdgeStore last_bit = MakeStore();
  last_bit.AddWeight(1, 0, 2, std::ldexp(1.0f, -22), 0);  // next float
  const std::pair<std::shared_ptr<const BnSnapshot>, const char*> cases[] = {
      {BnSnapshot::Build(other_id, 3, Raw()), "type 0 row 0 slot 0: id 1 vs 2"},
      {BnSnapshot::Build(last_bit, 3, Raw()), "type 1 row 0 slot 1: weight"},
      {BnSnapshot::Build(MakeStore(), 4, Raw()), "3 vs 4 nodes"},
      {BnSnapshot::Build(MakeStore(), 3), "normalized 0 vs 1"},
  };
  for (const auto& [other, named] : cases) {
    const std::string diff =
        BnSnapshot::Build(MakeStore(), 3, Raw())->FirstDifference(*other);
    EXPECT_NE(diff.find(named), std::string::npos) << diff;
  }
}

TEST(SnapshotDeathTest, BoundsChecked) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
  GraphView net(snap);
  EXPECT_DEATH(net.Neighbors(0, 3), "CHECK failed");
  EXPECT_DEATH(net.Neighbors(-1, 0), "CHECK failed");
  EXPECT_DEATH(net.WithTypeMasked(99), "CHECK failed");
  EXPECT_DEATH(GraphView().Neighbors(0, 0), "CHECK failed");
}

}  // namespace
}  // namespace turbo::bn
