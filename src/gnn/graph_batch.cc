#include "gnn/graph_batch.h"

#include <unordered_map>

namespace turbo::gnn {

GraphBatch MakeGraphBatch(const bn::Subgraph& sg,
                          const la::Matrix& all_features) {
  TURBO_CHECK(!sg.nodes.empty());
  const size_t n = sg.nodes.size();
  la::Matrix features(n, all_features.cols());
  for (size_t i = 0; i < n; ++i) {
    TURBO_CHECK_LT(sg.nodes[i], all_features.rows());
    const float* src = all_features.row(sg.nodes[i]);
    std::copy(src, src + all_features.cols(), features.row(i));
  }
  return MakeGraphBatch(sg, std::move(features), BatchAdjacency::kAll);
}

GraphBatch MakeGraphBatch(const bn::Subgraph& sg, la::Matrix features,
                          BatchAdjacency adjacency) {
  TURBO_CHECK(!sg.nodes.empty());
  const size_t n = sg.nodes.size();
  TURBO_CHECK_EQ(features.rows(), n);
  GraphBatch batch;
  batch.global_ids = sg.nodes;
  batch.num_targets = sg.num_targets;
  batch.features = std::move(features);

  // Per-type adjacency.
  if (adjacency != BatchAdjacency::kUnionMean) {
    for (int t = 0; t < kNumEdgeTypes; ++t) {
      batch.type_mean[t] =
          la::SparseMatrix::FromTriplets(n, n, sg.edges[t]).RowNormalized();
    }
    if (adjacency == BatchAdjacency::kTypeMean) return batch;
  }

  // Union graph: merge triplets across types.
  std::vector<la::Triplet> all_edges;
  size_t total = 0;
  for (const auto& e : sg.edges) total += e.size();
  all_edges.reserve(total);
  for (const auto& e : sg.edges) {
    all_edges.insert(all_edges.end(), e.begin(), e.end());
  }
  batch.union_mean =
      la::SparseMatrix::FromTriplets(n, n, all_edges).RowNormalized();
  if (adjacency == BatchAdjacency::kUnionMean) return batch;

  // Self-loop variants.
  std::vector<la::Triplet> with_self = all_edges;
  std::vector<la::Triplet> self_structure;
  self_structure.reserve(total + n);
  for (const auto& e : all_edges) {
    self_structure.push_back({e.row, e.col, 1.0f});
  }
  for (uint32_t i = 0; i < n; ++i) {
    with_self.push_back({i, i, 1.0f});
    self_structure.push_back({i, i, 1.0f});
  }
  batch.union_rw_self =
      la::SparseMatrix::FromTriplets(n, n, with_self).RowNormalized();
  // Duplicate (i,j) structure entries collapse via summation; clamp back
  // to unit so GAT sees pure structure.
  auto structure = la::SparseMatrix::FromTriplets(n, n, self_structure);
  std::vector<la::Triplet> unit;
  unit.reserve(structure.nnz());
  for (size_t r = 0; r < structure.rows(); ++r) {
    for (uint32_t k = structure.row_ptr()[r]; k < structure.row_ptr()[r + 1];
         ++k) {
      unit.push_back({static_cast<uint32_t>(r), structure.col_idx()[k],
                      1.0f});
    }
  }
  batch.union_self_structure = la::SparseMatrix::FromTriplets(n, n, unit);
  return batch;
}

}  // namespace turbo::gnn
