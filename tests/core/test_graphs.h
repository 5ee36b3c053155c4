// Shared graph fixtures for the core tests.
#pragma once

#include "gnn/graph_batch.h"
#include "util/rng.h"

namespace turbo::core::testing {

/// Homogeneous m-clique (all edges on type 0, unit weight) with distinct
/// Gaussian node features — the Theorem 1 setting.
inline gnn::GraphBatch MakeClique(int m, uint64_t seed) {
  Rng rng(seed);
  bn::Subgraph sg;
  sg.num_targets = m;
  for (int i = 0; i < m; ++i) {
    sg.nodes.push_back(static_cast<UserId>(i));
    sg.local[static_cast<UserId>(i)] = i;
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i != j) {
        sg.edges[0].push_back({static_cast<uint32_t>(i),
                               static_cast<uint32_t>(j), 1.0f});
      }
    }
  }
  la::Matrix features = la::Matrix::Randn(m, 6, &rng);
  return gnn::MakeGraphBatch(sg, features);
}

/// Path graph 0-1-2-...-(m-1), edges alternating between types 0 and 1;
/// nodes [0, num_targets) are the targets (all nodes when negative). The
/// features depend on `m` and `seed` only.
inline gnn::GraphBatch MakePath(int m, uint64_t seed, int num_targets = -1) {
  Rng rng(seed);
  bn::Subgraph sg;
  sg.num_targets = num_targets < 0 ? m : num_targets;
  for (int i = 0; i < m; ++i) {
    sg.nodes.push_back(static_cast<UserId>(i));
    sg.local[static_cast<UserId>(i)] = i;
  }
  for (int i = 0; i + 1 < m; ++i) {
    const int type = i % 2;
    sg.edges[type].push_back({static_cast<uint32_t>(i),
                              static_cast<uint32_t>(i + 1), 1.0f});
    sg.edges[type].push_back({static_cast<uint32_t>(i + 1),
                              static_cast<uint32_t>(i), 1.0f});
  }
  la::Matrix features = la::Matrix::Randn(m, 6, &rng);
  return gnn::MakeGraphBatch(sg, features);
}

}  // namespace turbo::core::testing
