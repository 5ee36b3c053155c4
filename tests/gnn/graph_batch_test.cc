#include "gnn/graph_batch.h"

#include <gtest/gtest.h>

namespace turbo::gnn {
namespace {

// Hand-built subgraph: 3 nodes; type 0 edge (0,1) w=2; type 1 edge (1,2)
// w=4. Global ids 10, 11, 12.
bn::Subgraph MakeSubgraph() {
  bn::Subgraph sg;
  sg.nodes = {10, 11, 12};
  sg.num_targets = 2;
  sg.local = {{10, 0}, {11, 1}, {12, 2}};
  sg.edges[0] = {{0, 1, 2.0f}, {1, 0, 2.0f}};
  sg.edges[1] = {{1, 2, 4.0f}, {2, 1, 4.0f}};
  return sg;
}

la::Matrix MakeFeatures() {
  la::Matrix f(20, 2);
  for (size_t r = 0; r < 20; ++r) {
    f(r, 0) = static_cast<float>(r);
    f(r, 1) = static_cast<float>(r) * 10;
  }
  return f;
}

TEST(GraphBatchTest, GathersFeaturesByGlobalId) {
  auto batch = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  EXPECT_EQ(batch.num_nodes(), 3u);
  EXPECT_EQ(batch.num_targets, 2u);
  EXPECT_FLOAT_EQ(batch.features(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(batch.features(2, 1), 120.0f);
}

TEST(GraphBatchTest, TypeAdjacenciesSeparate) {
  auto batch = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  EXPECT_EQ(batch.type_mean[0].nnz(), 2u);
  EXPECT_EQ(batch.type_mean[1].nnz(), 2u);
  EXPECT_EQ(batch.type_mean[2].nnz(), 0u);
  la::Matrix d0 = batch.type_mean[0].ToDense();
  EXPECT_FLOAT_EQ(d0(0, 1), 1.0f);  // node 0's only type-0 neighbor
  EXPECT_FLOAT_EQ(d0(1, 2), 0.0f);  // (1,2) is a type-1 edge
}

TEST(GraphBatchTest, TypeMeanRowsNormalized) {
  auto batch = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  la::Matrix rs = batch.type_mean[0].RowSums();
  EXPECT_NEAR(rs(0, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(rs(1, 0), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(rs(2, 0), 0.0f);  // no type-0 edges at node 2
}

TEST(GraphBatchTest, UnionMergesTypes) {
  auto batch = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  la::Matrix u = batch.union_mean.ToDense();
  // Node 1 has a type-0 edge to node 0 (w=2) and a type-1 edge to node 2
  // (w=4): the union row weighs both.
  EXPECT_FLOAT_EQ(u(1, 0), 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(u(1, 2), 2.0f / 3.0f);
  EXPECT_FLOAT_EQ(u(1, 1), 0.0f);
  EXPECT_FLOAT_EQ(u(0, 1), 1.0f);
}

TEST(GraphBatchTest, RwSelfIncludesSelfLoopAndNormalizes) {
  auto batch = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  la::Matrix a = batch.union_rw_self.ToDense();
  // Node 0: neighbors {1 (2.0), self (1.0)} -> row sums to 1.
  EXPECT_NEAR(a(0, 0) + a(0, 1) + a(0, 2), 1.0f, 1e-6f);
  EXPECT_GT(a(0, 0), 0.0f);
  // Isolated-from-union? none here, but every row must sum to 1.
  la::Matrix rs = batch.union_rw_self.RowSums();
  for (size_t r = 0; r < 3; ++r) EXPECT_NEAR(rs(r, 0), 1.0f, 1e-6f);
}

TEST(GraphBatchTest, SelfStructureHasUnitValues) {
  auto batch = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  for (float v : batch.union_self_structure.values()) {
    EXPECT_FLOAT_EQ(v, 1.0f);
  }
  // 4 directed union edges + 3 self loops.
  EXPECT_EQ(batch.union_self_structure.nnz(), 7u);
}

TEST(GraphBatchTest, SingletonSubgraph) {
  bn::Subgraph sg;
  sg.nodes = {5};
  sg.num_targets = 1;
  sg.local = {{5, 0}};
  auto batch = MakeGraphBatch(sg, MakeFeatures());
  EXPECT_EQ(batch.num_nodes(), 1u);
  EXPECT_EQ(batch.union_mean.nnz(), 0u);
  // Self-loop keeps GCN aggregation well-defined.
  EXPECT_EQ(batch.union_rw_self.nnz(), 1u);
  EXPECT_FLOAT_EQ(batch.union_rw_self.ToDense()(0, 0), 1.0f);
}

TEST(GraphBatchTest, LeanBatchBuildsOnlyTheRequestedView) {
  const auto full = MakeGraphBatch(MakeSubgraph(), MakeFeatures());
  const auto typed = MakeGraphBatch(MakeSubgraph(), full.features,
                                    BatchAdjacency::kTypeMean);
  const auto merged = MakeGraphBatch(MakeSubgraph(), full.features,
                                     BatchAdjacency::kUnionMean);
  for (const GraphBatch* b : {&typed, &merged}) {
    EXPECT_EQ(b->global_ids, full.global_ids);
    EXPECT_EQ(b->num_targets, full.num_targets);
    EXPECT_TRUE(la::AllClose(b->features, full.features, 0.0f, 0.0f));
    EXPECT_EQ(b->union_rw_self.nnz(), 0u);
    EXPECT_EQ(b->union_self_structure.nnz(), 0u);
  }
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    EXPECT_EQ(typed.type_mean[t].values(), full.type_mean[t].values());
    EXPECT_EQ(typed.type_mean[t].col_idx(), full.type_mean[t].col_idx());
    EXPECT_EQ(merged.type_mean[t].rows(), 0u);
  }
  EXPECT_EQ(typed.union_mean.rows(), 0u);
  EXPECT_EQ(merged.union_mean.values(), full.union_mean.values());
  EXPECT_EQ(merged.union_mean.col_idx(), full.union_mean.col_idx());
}

TEST(GraphBatchDeathTest, GlobalIdOutOfFeatureRangeAborts) {
  bn::Subgraph sg;
  sg.nodes = {99};
  sg.num_targets = 1;
  sg.local = {{99, 0}};
  EXPECT_DEATH(MakeGraphBatch(sg, la::Matrix(20, 2)), "CHECK failed");
}

}  // namespace
}  // namespace turbo::gnn
