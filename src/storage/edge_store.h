// Global typed, weighted, undirected edge list of the Behavior Network,
// with incremental weight accumulation and TTL-based expiry (Section V:
// "a max TTL is set to 60 days for each edge").
//
// The store is keyed by (edge type, endpoint): adjacency is materialized
// in both directions so neighbor queries are O(deg).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/behavior_log.h"
#include "storage/checkpoint_io.h"
#include "util/check.h"
#include "util/status.h"

namespace turbo::storage {

struct EdgeInfo {
  /// Accumulated in double on purpose: every increment is the float 1/N
  /// of a bucket of N users (1 without inverse weighting). A bucket over
  /// BnConfig::max_bucket_users keeps its true 1/N too (the builder
  /// samples its pairs, not its weight), so N is not capped. With N_max
  /// the largest bucket seen, every term is a float >= 2^-c, where
  /// c = ceil(log2 N_max), hence a multiple of 2^-(23+c); every partial
  /// sum below 2^(30-c) (2^21 for N_max <= 512) is then an exact double.
  /// Exact sums are order-independent, which is what lets the sharded
  /// window-job engine merge per-shard deltas in any interleaving — and
  /// the offline builder replay any job order — and still produce
  /// bit-identical weights (see DESIGN.md "Ingestion & window jobs").
  double weight = 0.0;
  SimTime last_update = 0;
};

/// Per-edge-type set of nodes whose adjacency rows changed since some
/// reference point (the last snapshot publish, the last checkpoint).
/// Both endpoints of every added or expired edge are recorded, so a
/// node absent from the set is guaranteed to have a bit-identical row —
/// the contract BnSnapshot::ApplyDeltas and the delta-checkpoint edge
/// sections are built on.
struct EdgeChurn {
  std::array<std::unordered_set<UserId>, kNumEdgeTypes> nodes;

  void Touch(int edge_type, UserId u) { nodes[edge_type].insert(u); }
  bool Empty() const;
  /// Sum of per-type touched-node counts (a node churned on two types
  /// counts twice — it has two rows to recompute).
  size_t TotalTouched() const;
  void Clear();
  void MergeFrom(const EdgeChurn& other);

  /// Per type: u64 count, then the touched ids ascending (u32 each).
  /// Deterministic: equal churn sets produce equal bytes.
  void Serialize(BinaryWriter* w) const;
  /// Restores a Serialize()d churn set, replacing current contents.
  /// Ids at or past `num_users` are rejected as corrupt.
  Status Deserialize(BinaryReader* r, UserId num_users);
};

class EdgeStore {
 public:
  /// Adds `w` to the weight of the undirected edge (u, v) of the given
  /// edge type (index into kEdgeTypes); refreshes its TTL timestamp.
  void AddWeight(int edge_type, UserId u, UserId v, float w, SimTime now);

  /// Removes every edge whose last update is strictly before `cutoff`.
  /// Returns the number of undirected edges removed. When `churn` is
  /// given, both endpoints of every removed edge are recorded in it.
  size_t ExpireBefore(SimTime cutoff, EdgeChurn* churn = nullptr);

  /// Neighbor map of u for one edge type (empty if none).
  const std::unordered_map<UserId, EdgeInfo>& Neighbors(int edge_type,
                                                        UserId u) const;

  /// Sum of edge weights incident to u for one edge type.
  double WeightedDegree(int edge_type, UserId u) const;

  /// Current weight of (u, v) on `edge_type`, or 0 if absent.
  float Weight(int edge_type, UserId u, UserId v) const;

  /// Undirected edge count per type and total.
  size_t NumEdges(int edge_type) const;
  size_t TotalEdges() const;

  /// Users that have at least one edge of any type.
  std::vector<UserId> ConnectedUsers() const;

  /// Every (type, node) that holds a row: SerializeTouched over it
  /// writes the whole store, which is the full checkpoint's edge section
  /// (the delta over an empty store).
  EdgeChurn AllRows() const;

  /// The edge-section codec (checkpoint hook): writes, per type, the
  /// churned node ids (ascending) followed by the *current* state of
  /// every edge with at least one churned endpoint, each emitted exactly
  /// once with exact weight bits. Deterministic for equal (store, churn)
  /// inputs.
  void SerializeTouched(const EdgeChurn& churn, BinaryWriter* w) const;

  /// Applies a SerializeTouched()d section: clears the recorded nodes'
  /// rows (mirrors included), then inserts the emitted edges bit-exactly
  /// (not re-accumulated through float adds). Applying the section
  /// written against this store's own baseline reproduces the writer's
  /// store bit for bit; into an empty store, a section written over
  /// AllRows() restores the whole store. Rejects a duplicate record and
  /// an endpoint >= `num_users`: without the bound a CRC-valid but
  /// hand-crafted id near 2^32 would drive a multi-billion-row adjacency
  /// resize instead of an error.
  Status ApplyDeltaSection(BinaryReader* r, UserId num_users);

  /// Bit-identity oracle (DESIGN.md §10): the first difference from
  /// `other` as text, or "" when the stores are bit-identical. Compares
  /// per-type edge counts, then every edge either store holds: membership,
  /// exact double weight bits, and last_update.
  std::string FirstDifference(const EdgeStore& other) const;

  /// The cluster invariant of DESIGN.md §14, this store being the single
  /// server's and `parts` the shards': every edge weighs exactly its
  /// parts' weights added in part order and carries their latest stamp,
  /// and no part holds an edge this store lacks. Returns the first
  /// violation as text, or "".
  std::string FirstDifferenceFromSum(
      const std::vector<const EdgeStore*>& parts) const;

 private:
  /// Removes every edge incident to u (both directions), keeping the
  /// undirected edge counts consistent.
  void ClearNode(int edge_type, UserId u);
  using Adjacency = std::vector<std::unordered_map<UserId, EdgeInfo>>;

  void EnsureSize(Adjacency* adj, UserId u) {
    // Explicit widening: comparing size() against a narrower id must not
    // rely on implicit conversions (a signed id cast to UserId upstream
    // would wrap to a huge value — AddWeight rejects those).
    if (adj->size() <= static_cast<size_t>(u)) {
      adj->resize(static_cast<size_t>(u) + 1);
    }
  }

  std::array<Adjacency, kNumEdgeTypes> by_type_;
  std::array<size_t, kNumEdgeTypes> edge_count_{};  // undirected, per type
};

}  // namespace turbo::storage
