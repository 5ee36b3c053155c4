// Immutable, versioned CSR snapshot of the Behavior Network — the read
// side of the BN server (Figure 2) and of every offline consumer
// (sampling, analysis, GNN batch construction).
//
// Layout: one CSR block per edge type, segmented into immutable row
// groups of kRowGroupSize consecutive nodes. Each group holds its own
// local offsets array plus parallel neighbor-id and weight arrays
// (neighbors sorted by id within each row), so a row read is one shift,
// one mask, and two contiguous array slices. Groups are held by
// shared_ptr: ApplyDeltas() builds the next snapshot by *sharing* every
// group no touched row falls into and rebuilding only the dirty ones
// (copy-on-write), which makes publish cost proportional to churn
// instead of graph size (DESIGN.md "Incremental snapshots & delta
// checkpoints").
//
// The per-type symmetric degree normalization of Section III-A
//   w'_r(u,v) = w_r(u,v) / sqrt(deg'_r(u) * deg'_r(v))
// is fused into the build (a degree pass followed by a fill pass over the
// live EdgeStore — no intermediate adjacency copy). Build() and
// ApplyDeltas() share that fill: Build() runs it on every row group in
// parallel over (type, group) pairs, ApplyDeltas() on each type's dirty
// groups in parallel over groups.
//
// A BnSnapshot is immutable after Build() and carries a monotonically
// increasing version id assigned by its publisher. Consumers read through
// GraphView, a two-word value type (snapshot pointer + per-type mask)
// whose WithTypeMasked() is a zero-copy mask flip — the Fig. 7 edge-type
// ablation no longer deep-copies the graph.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "storage/behavior_log.h"
#include "storage/checkpoint_io.h"
#include "storage/edge_store.h"
#include "util/status.h"

namespace turbo::bn {

struct NeighborEntry {
  UserId id;
  float weight;
};

/// Non-owning view over one CSR adjacency row: parallel id/weight arrays.
/// Iteration yields NeighborEntry values, so range-for code written
/// against the old adjacency-list API keeps working.
class NeighborSpan {
 public:
  NeighborSpan() = default;
  NeighborSpan(const UserId* ids, const float* weights, size_t size)
      : ids_(ids), weights_(weights), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  UserId id(size_t i) const { return ids_[i]; }
  float weight(size_t i) const { return weights_[i]; }
  const UserId* ids() const { return ids_; }
  const float* weights() const { return weights_; }
  NeighborEntry operator[](size_t i) const { return {ids_[i], weights_[i]}; }

  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = NeighborEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const NeighborEntry*;
    using reference = NeighborEntry;

    Iterator() = default;
    Iterator(const NeighborSpan* span, size_t i) : span_(span), i_(i) {}
    NeighborEntry operator*() const { return (*span_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++i_;
      return tmp;
    }
    Iterator& operator--() {
      --i_;
      return *this;
    }
    Iterator operator--(int) {
      Iterator tmp = *this;
      --i_;
      return tmp;
    }
    Iterator& operator+=(difference_type d) {
      i_ += d;
      return *this;
    }
    Iterator& operator-=(difference_type d) {
      i_ -= d;
      return *this;
    }
    friend Iterator operator+(Iterator it, difference_type d) {
      it += d;
      return it;
    }
    friend Iterator operator+(difference_type d, Iterator it) {
      it += d;
      return it;
    }
    friend Iterator operator-(Iterator it, difference_type d) {
      it -= d;
      return it;
    }
    difference_type operator-(const Iterator& o) const {
      return static_cast<difference_type>(i_) -
             static_cast<difference_type>(o.i_);
    }
    NeighborEntry operator[](difference_type d) const {
      return (*span_)[i_ + d];
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }
    bool operator<(const Iterator& o) const { return i_ < o.i_; }
    bool operator>(const Iterator& o) const { return i_ > o.i_; }
    bool operator<=(const Iterator& o) const { return i_ <= o.i_; }
    bool operator>=(const Iterator& o) const { return i_ >= o.i_; }

   private:
    const NeighborSpan* span_ = nullptr;
    size_t i_ = 0;
  };

  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size_}; }

 private:
  const UserId* ids_ = nullptr;
  const float* weights_ = nullptr;
  size_t size_ = 0;
};

struct SnapshotOptions {
  /// Fuse the per-type symmetric degree normalization into the build.
  bool normalize = true;
  /// Threads for the build passes; 0 = hardware concurrency.
  int num_threads = 0;
};

class BnSnapshot {
 public:
  /// Row-group granularity of the copy-on-write CSR: a group covers 1024
  /// consecutive node ids. Small enough that low-churn epochs rebuild a
  /// small fraction of groups; large enough that the per-group pointer +
  /// header overhead stays negligible.
  static constexpr int kRowGroupShift = 10;
  static constexpr size_t kRowGroupSize = size_t{1} << kRowGroupShift;

  /// What ApplyDeltas actually did (observability / tests).
  struct ApplyStats {
    size_t touched_rows = 0;    // rows recomputed, summed over types
    size_t rebuilt_groups = 0;  // groups rebuilt, summed over types
    size_t shared_groups = 0;   // groups shared with prev, summed
  };

  /// Snapshots the store into per-type CSR arrays. `num_nodes` fixes the
  /// node-id space (uids are dense in the datasets); `version` is the
  /// publisher-assigned snapshot id.
  static std::shared_ptr<const BnSnapshot> Build(
      const storage::EdgeStore& store, int num_nodes,
      const SnapshotOptions& options = {}, uint64_t version = 0);

  /// Incremental publish: produces the snapshot Build(store, ...) would,
  /// bit for bit, by patching `prev` — sharing every row group without a
  /// recomputed row and rebuilding the rest from the store.
  ///
  /// `churn` must cover every node whose store adjacency changed since
  /// `prev` was built (both endpoints of every added/expired edge — the
  /// EdgeChurn contract). For a normalized snapshot the recomputed set
  /// is the churned nodes plus their *current* store neighbors: a
  /// churned node's weighted degree changes, and that degree sits under
  /// the sqrt in every incident row. Exact double accumulation in the
  /// store (see EdgeInfo) is what makes the renormalized floats
  /// bit-identical to a full rebuild.
  ///
  /// `options.normalize` must match prev->normalized(); `num_threads`
  /// parallelizes over each type's dirty groups.
  static std::shared_ptr<const BnSnapshot> ApplyDeltas(
      const std::shared_ptr<const BnSnapshot>& prev,
      const storage::EdgeStore& store, const storage::EdgeChurn& churn,
      const SnapshotOptions& options, uint64_t version,
      ApplyStats* stats = nullptr);

  int num_nodes() const { return num_nodes_; }
  uint64_t version() const { return version_; }
  bool normalized() const { return normalized_; }

  NeighborSpan Neighbors(int edge_type, UserId u) const {
    TURBO_CHECK_GE(edge_type, 0);
    TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
    TURBO_CHECK_LT(u, static_cast<UserId>(num_nodes_));
    const RowGroup& g =
        *csr_[edge_type].groups[static_cast<size_t>(u) >> kRowGroupShift];
    const size_t local = static_cast<size_t>(u) & (kRowGroupSize - 1);
    const size_t begin = g.offsets[local];
    return {g.neighbor.data() + begin, g.weight.data() + begin,
            g.offsets[local + 1] - begin};
  }

  double WeightedDegree(int edge_type, UserId u) const;

  /// Undirected edge count per type and total (each edge stored twice).
  size_t NumEdges(int edge_type) const {
    TURBO_CHECK_GE(edge_type, 0);
    TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
    return csr_[edge_type].entries / 2;
  }
  size_t TotalEdges() const;

  /// Bytes held by the CSR arrays (capacity planning / bench reporting).
  /// Counts every group this snapshot references; groups shared with
  /// other snapshots are counted in each (this is the serving footprint,
  /// not the marginal allocation).
  size_t MemoryBytes() const;

  /// Row groups (summed over types) this snapshot shares, pointer-
  /// identical, with `other` — the structural-sharing observable the
  /// incremental-publish tests assert on.
  size_t SharedGroupsWith(const BnSnapshot& other) const;

  /// Bit-identity oracle (DESIGN.md §10): the first difference from
  /// `other` as text, or "" when both serve the same bits. Compares node
  /// count, the normalization flag, per-type edge counts, every row's ids
  /// and float weight bits, and (normalized) every row's weighted-degree
  /// double bits, which the next ApplyDeltas reads for untouched
  /// endpoints. The version is not compared; a caller that pins it
  /// compares it itself.
  std::string FirstDifference(const BnSnapshot& other) const;

  /// The snapshot codec (checkpoint hook): the header, then per type the
  /// row groups that are NOT pointer-shared with `base`, each with its
  /// offsets, ids, weights and (normalized) exact weighted-degree
  /// doubles. With incremental publishes in between that is O(churn):
  /// the copy-on-write sharing doubles as a free diff. A null `base`
  /// writes every group. A non-null one must have the same num_nodes and
  /// normalization.
  void SerializeDiff(const BnSnapshot* base, storage::BinaryWriter* w) const;

  /// Restores a SerializeDiff()d snapshot over a base with the same
  /// *content* as the writer's base (pointer identity not required:
  /// recovery applies diffs over deserialized bases); untouched groups
  /// are shared with `base`. A null `base` requires every group. Checks
  /// the node count against the payload before allocating, offset
  /// monotonicity, group sizes, neighbor ids and degrees, so a corrupt
  /// payload fails instead of producing spans that read out of bounds.
  /// The result is a bit-identical ApplyDeltas base.
  static Result<std::shared_ptr<const BnSnapshot>> DeserializePatched(
      const std::shared_ptr<const BnSnapshot>& base,
      storage::BinaryReader* r);

 private:
  /// One immutable block of kRowGroupSize consecutive rows (the last
  /// group of a type may be shorter). `offsets` is group-local with
  /// rows + 1 entries; `wdeg` holds the rows' exact weighted-degree
  /// doubles and is only populated for normalized snapshots (ApplyDeltas
  /// reads untouched endpoints' degrees from here).
  struct RowGroup {
    std::vector<size_t> offsets;
    std::vector<UserId> neighbor;
    std::vector<float> weight;
    std::vector<double> wdeg;
  };
  struct TypeCsr {
    std::vector<std::shared_ptr<const RowGroup>> groups;
    size_t entries = 0;  // directed entries summed over groups
  };

  /// One (edge type, row group) unit of work for FillGroups.
  struct GroupJob {
    int type;
    size_t group;
  };

  /// A row FillGroups copies from the previous snapshot's group.
  static constexpr uint32_t kCopyRow = UINT32_MAX;

  /// The one row-group fill behind Build and ApplyDeltas: replaces group
  /// `job.group` of `job.type` for every job, in parallel over jobs, and
  /// moves each type's entry count by what its groups gained.
  /// `counts[type]` is node-indexed: a row marked kCopyRow is copied
  /// from `prev`'s group; any other row holds that many store
  /// neighbours, which are gathered, sorted by id and normalized with
  /// `wdeg[type]`, the node-indexed weighted-degree table (empty for a
  /// raw snapshot).
  void FillGroups(
      const storage::EdgeStore& store, const BnSnapshot* prev,
      const std::array<std::vector<uint32_t>, kNumEdgeTypes>& counts,
      const std::array<std::vector<double>, kNumEdgeTypes>& wdeg,
      const std::vector<GroupJob>& jobs, int num_threads);

  /// Exact weighted degree of row `u` as stored (normalized only).
  double StoredDegree(int edge_type, UserId u) const {
    const RowGroup& g =
        *csr_[edge_type].groups[static_cast<size_t>(u) >> kRowGroupShift];
    return g.wdeg[static_cast<size_t>(u) & (kRowGroupSize - 1)];
  }

  static size_t NumGroups(int num_nodes) {
    return (static_cast<size_t>(num_nodes) + kRowGroupSize - 1) >>
           kRowGroupShift;
  }
  /// Rows covered by group `g` of a `num_nodes`-row CSR.
  static size_t GroupRows(int num_nodes, size_t g) {
    const size_t base = g << kRowGroupShift;
    return std::min(kRowGroupSize, static_cast<size_t>(num_nodes) - base);
  }
  BnSnapshot() = default;

  int num_nodes_ = 0;
  uint64_t version_ = 0;
  bool normalized_ = false;
  std::array<TypeCsr, kNumEdgeTypes> csr_;
};

/// Lightweight read handle: a shared snapshot plus a per-type enable
/// mask. Copying a view is two words plus a refcount bump; the snapshot
/// stays alive as long as any view (or sampler holding one) references
/// it, which is what makes the RCU-style publish in BnServer safe.
class GraphView {
 public:
  GraphView() = default;
  explicit GraphView(std::shared_ptr<const BnSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {
    mask_.fill(true);
  }

  bool valid() const { return snapshot_ != nullptr; }
  const std::shared_ptr<const BnSnapshot>& snapshot() const {
    return snapshot_;
  }

  int num_nodes() const { return snapshot_ ? snapshot_->num_nodes() : 0; }
  uint64_t version() const { return snapshot_ ? snapshot_->version() : 0; }

  /// Zero-copy type ablation (Fig. 7): flips one mask bit.
  GraphView WithTypeMasked(int edge_type) const {
    TURBO_CHECK_GE(edge_type, 0);
    TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
    GraphView out = *this;
    out.mask_[edge_type] = false;
    return out;
  }

  bool type_enabled(int edge_type) const {
    TURBO_CHECK_GE(edge_type, 0);
    TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
    return mask_[edge_type];
  }

  NeighborSpan Neighbors(int edge_type, UserId u) const {
    TURBO_CHECK(valid());
    TURBO_CHECK_GE(edge_type, 0);
    TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
    if (!mask_[edge_type]) return {};
    return snapshot_->Neighbors(edge_type, u);
  }

  double WeightedDegree(int edge_type, UserId u) const;

  /// Union of neighbors across enabled edge types (deduplicated, weights
  /// summed) — the homogeneous view used by homophily analysis and the
  /// single-relation GNN baselines.
  std::vector<NeighborEntry> UnionNeighbors(UserId u) const;
  size_t UnionDegree(UserId u) const { return UnionNeighbors(u).size(); }
  double UnionWeightedDegree(UserId u) const;

  size_t NumEdges(int edge_type) const {
    TURBO_CHECK(valid());
    TURBO_CHECK_GE(edge_type, 0);
    TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
    return mask_[edge_type] ? snapshot_->NumEdges(edge_type) : 0;
  }
  size_t TotalEdges() const;

 private:
  std::shared_ptr<const BnSnapshot> snapshot_;
  std::array<bool, kNumEdgeTypes> mask_{};
};

}  // namespace turbo::bn
