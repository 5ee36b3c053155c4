// GraphBatch: the tensor-side representation of a sampled computation
// subgraph, shared by every GNN in the library (baselines and HAG).
//
// A batch carries the node feature matrix plus the adjacency views each
// model family needs:
//  * per-type weighted mean adjacency (HAG / SAO, Eq. 6),
//  * the homogeneous union graph in three normalizations: random-walk with
//    self-loops (GCN, as the paper re-implements it inductively),
//    row-normalized mean without self (GraphSAGE, Eq. 2/4), and the raw
//    structure with self-loops (GAT edge softmax).
//
// Rows 0..num_targets-1 are the prediction targets.
#pragma once

#include <array>
#include <vector>

#include "bn/sampler.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace turbo::gnn {

struct GraphBatch {
  la::Matrix features;                 // [n, d]
  std::vector<UserId> global_ids;      // size n
  size_t num_targets = 0;

  /// Per-edge-type weighted adjacency, row-normalized to a weighted mean.
  std::array<la::SparseMatrix, kNumEdgeTypes> type_mean;

  /// Random-walk normalized union with self-loops: D^-1 (A + I).
  la::SparseMatrix union_rw_self;
  /// Union across types (weights summed), row-normalized, without
  /// self-loops (mean aggregator).
  la::SparseMatrix union_mean;
  /// Union structure including self-loops, unit values (GAT attention).
  la::SparseMatrix union_self_structure;

  size_t num_nodes() const { return features.rows(); }
};

/// The adjacency views a batch carries.
enum class BatchAdjacency {
  kAll,        // every view
  kTypeMean,   // type_mean only: all that HAG reads with CFO
  kUnionMean,  // union_mean only: all that HAG's CFO(-) reads
};

/// Assembles a batch from a sampled subgraph; `all_features` is indexed by
/// global user id (rows). Subgraph edge weights are used as-is — pass a
/// subgraph sampled from a degree-normalized BnSnapshot (the default
/// Build() option) to match the paper's pipeline. Builds every view.
GraphBatch MakeGraphBatch(const bn::Subgraph& sg,
                          const la::Matrix& all_features);

/// Assembles a batch with only the `adjacency` views. `features` is
/// already aligned with the subgraph's local rows: [sg.nodes.size(), d].
GraphBatch MakeGraphBatch(const bn::Subgraph& sg, la::Matrix features,
                          BatchAdjacency adjacency);

}  // namespace turbo::gnn
