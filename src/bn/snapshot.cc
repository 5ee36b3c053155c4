#include "bn/snapshot.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "util/string_util.h"

namespace turbo::bn {

namespace {

/// Leading byte of the serialized snapshot payload. Version 2 added the
/// row-group layout's weighted-degree doubles; older payloads are
/// rejected (checkpoints are not forward-migrated).
constexpr uint8_t kSnapshotFormat = 2;

/// Runs fn(begin, end) over contiguous chunks of [0, n) on `num_threads`
/// threads (inline when one thread suffices). The build passes below are
/// embarrassingly parallel over nodes: every (type, node) row is written
/// by exactly one chunk and the EdgeStore is only read.
template <typename Fn>
void ParallelOverNodes(int num_threads, int n, const Fn& fn) {
  if (num_threads <= 1 || n < 2 * num_threads) {
    fn(0, n);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  const int chunk = (n + num_threads - 1) / num_threads;
  for (int t = 0; t < num_threads; ++t) {
    const int begin = t * chunk;
    const int end = std::min(n, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& w : workers) w.join();
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

std::shared_ptr<const BnSnapshot> BnSnapshot::Build(
    const storage::EdgeStore& store, int num_nodes,
    const SnapshotOptions& options, uint64_t version) {
  TURBO_CHECK_GT(num_nodes, 0);
  auto snap = std::shared_ptr<BnSnapshot>(new BnSnapshot());
  snap->num_nodes_ = num_nodes;
  snap->version_ = version;
  snap->normalized_ = options.normalize;
  const int threads = ResolveThreads(options.num_threads);
  const size_t num_groups = NumGroups(num_nodes);

  // Per-row counts and weighted degrees (the latter feed the fused
  // normalization and are retained per group for ApplyDeltas).
  std::array<std::vector<size_t>, kNumEdgeTypes> counts;
  std::array<std::vector<double>, kNumEdgeTypes> wdeg;

  // Pass 1 — degrees.
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    counts[t].assign(num_nodes, 0);
    if (options.normalize) wdeg[t].assign(num_nodes, 0.0);
  }
  ParallelOverNodes(threads, num_nodes, [&](int begin, int end) {
    for (int t = 0; t < kNumEdgeTypes; ++t) {
      for (int u = begin; u < end; ++u) {
        const auto& nbrs = store.Neighbors(t, static_cast<UserId>(u));
        counts[t][u] = nbrs.size();
        if (options.normalize) {
          double s = 0.0;
          for (const auto& [v, e] : nbrs) s += e.weight;
          wdeg[t][u] = s;
        }
      }
    }
  });

  // Group scaffolding: local prefix sums, pre-sized arrays, wdeg slices.
  // Kept mutable (raw pointers) until the fill pass is done.
  std::array<std::vector<RowGroup*>, kNumEdgeTypes> mutable_groups;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    TypeCsr& csr = snap->csr_[t];
    csr.groups.resize(num_groups);
    mutable_groups[t].resize(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t base = g << kRowGroupShift;
      const size_t rows = GroupRows(num_nodes, g);
      auto rg = std::make_shared<RowGroup>();
      rg->offsets.resize(rows + 1);
      rg->offsets[0] = 0;
      for (size_t i = 0; i < rows; ++i) {
        rg->offsets[i + 1] = rg->offsets[i] + counts[t][base + i];
      }
      const size_t total = rg->offsets[rows];
      rg->neighbor.resize(total);
      rg->weight.resize(total);
      if (options.normalize) {
        rg->wdeg.assign(wdeg[t].begin() + base, wdeg[t].begin() + base + rows);
      }
      csr.entries += total;
      mutable_groups[t][g] = rg.get();
      csr.groups[g] = std::move(rg);
    }
  }

  // Pass 2 — fill: each row is sorted by neighbor id and written into
  // its pre-sized group slice; normalization is applied in place of a
  // second copy. Rows are disjoint, so chunks may straddle groups.
  ParallelOverNodes(threads, num_nodes, [&](int begin, int end) {
    std::vector<std::pair<UserId, float>> row;
    for (int t = 0; t < kNumEdgeTypes; ++t) {
      for (int u = begin; u < end; ++u) {
        const auto& nbrs = store.Neighbors(t, static_cast<UserId>(u));
        RowGroup& rg =
            *mutable_groups[t][static_cast<size_t>(u) >> kRowGroupShift];
        row.clear();
        row.reserve(nbrs.size());
        for (const auto& [v, e] : nbrs) {
          TURBO_CHECK_LT(v, static_cast<UserId>(num_nodes));
          row.push_back({v, static_cast<float>(e.weight)});
        }
        std::sort(row.begin(), row.end());
        size_t k = rg.offsets[static_cast<size_t>(u) & (kRowGroupSize - 1)];
        for (const auto& [v, w] : row) {
          rg.neighbor[k] = v;
          float out = w;
          if (options.normalize) {
            const double d = wdeg[t][u] * wdeg[t][v];
            out = d > 0.0 ? static_cast<float>(w / std::sqrt(d)) : 0.0f;
          }
          rg.weight[k] = out;
          ++k;
        }
      }
    }
  });
  return snap;
}

std::shared_ptr<const BnSnapshot> BnSnapshot::ApplyDeltas(
    const std::shared_ptr<const BnSnapshot>& prev,
    const storage::EdgeStore& store, const storage::EdgeChurn& churn,
    const SnapshotOptions& options, uint64_t version, ApplyStats* stats) {
  TURBO_CHECK(prev != nullptr);
  TURBO_CHECK_EQ(prev->normalized_, options.normalize);
  const int num_nodes = prev->num_nodes_;
  const int threads = ResolveThreads(options.num_threads);
  const size_t num_groups = NumGroups(num_nodes);
  auto snap = std::shared_ptr<BnSnapshot>(new BnSnapshot());
  snap->num_nodes_ = num_nodes;
  snap->version_ = version;
  snap->normalized_ = prev->normalized_;

  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const TypeCsr& in = prev->csr_[t];
    TypeCsr& out = snap->csr_[t];
    // Start fully shared; dirty groups are replaced below.
    out.groups = in.groups;
    out.entries = in.entries;
    const auto& churned = churn.nodes[t];
    if (churned.empty()) {
      if (stats != nullptr) stats->shared_groups += num_groups;
      continue;
    }

    // Recompute set: the churned rows themselves plus — under
    // normalization — their current neighbors, whose stored floats
    // embed the churned nodes' weighted degrees. (A row outside this
    // set has unchanged raw weights AND unchanged endpoint degrees, so
    // its floats are unchanged; see the expiry argument in DESIGN.md.)
    // Both the set and the degree table are dense arrays, not hash
    // containers: the rebuild loop below probes them once per row and
    // once per edge, so per-probe cost must match Build()'s flat
    // indexing or the patch loses its asymptotic win to constant
    // factors. The O(num_nodes) doubles copy is memcpy-speed and
    // amortizes over every probe.
    std::vector<double> wdeg_all;
    if (options.normalize) {
      wdeg_all.resize(static_cast<size_t>(num_nodes));
      for (size_t g = 0; g < num_groups; ++g) {
        const RowGroup& rg = *in.groups[g];
        std::copy(rg.wdeg.begin(), rg.wdeg.end(),
                  wdeg_all.begin() + (g << kRowGroupShift));
      }
    }
    std::vector<uint8_t> rebuild(static_cast<size_t>(num_nodes), 0);
    size_t touched = 0;
    std::vector<uint32_t> dirty;
    const auto mark = [&](UserId u) {
      TURBO_CHECK_LT(u, static_cast<UserId>(num_nodes));
      if (rebuild[u]) return;
      rebuild[u] = 1;
      ++touched;
      const auto g = static_cast<uint32_t>(u >> kRowGroupShift);
      if (dirty.empty() || dirty.back() != g) dirty.push_back(g);
    };
    for (UserId u : churned) {
      mark(u);
      if (options.normalize) {
        // The churned nodes' new exact degrees overwrite the prev-era
        // table first so row rebuilds can mix new and prev degrees
        // without ordering hazards.
        wdeg_all[u] = store.WeightedDegree(t, u);
        for (const auto& [v, e] : store.Neighbors(t, u)) mark(v);
      }
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    if (stats != nullptr) {
      stats->touched_rows += touched;
      stats->rebuilt_groups += dirty.size();
      stats->shared_groups += num_groups - dirty.size();
    }

    // Rebuild dirty groups in parallel: untouched rows are copied
    // byte-wise from prev, touched rows are rebuilt from the store with
    // the exact same gather/sort/normalize sequence as Build().
    std::vector<int64_t> entry_delta(dirty.size(), 0);
    ParallelOverNodes(threads, static_cast<int>(dirty.size()),
                      [&](int dbegin, int dend) {
      std::vector<std::pair<UserId, float>> row;
      for (int di = dbegin; di < dend; ++di) {
        const size_t g = dirty[di];
        const RowGroup& old = *in.groups[g];
        const size_t base = g << kRowGroupShift;
        const size_t rows = GroupRows(num_nodes, g);
        auto rg = std::make_shared<RowGroup>();
        rg->offsets.resize(rows + 1);
        rg->offsets[0] = 0;
        for (size_t i = 0; i < rows; ++i) {
          const UserId u = static_cast<UserId>(base + i);
          const size_t n = rebuild[u] != 0
                               ? store.Neighbors(t, u).size()
                               : old.offsets[i + 1] - old.offsets[i];
          rg->offsets[i + 1] = rg->offsets[i] + n;
        }
        const size_t total = rg->offsets[rows];
        rg->neighbor.resize(total);
        rg->weight.resize(total);
        if (options.normalize) {
          // wdeg_all already overlays the churned nodes' new degrees on
          // the prev-era table, so the group slice is just a copy.
          rg->wdeg.assign(wdeg_all.begin() + base,
                          wdeg_all.begin() + base + rows);
        }
        for (size_t i = 0; i < rows; ++i) {
          const UserId u = static_cast<UserId>(base + i);
          size_t k = rg->offsets[i];
          if (rebuild[u] == 0) {
            const size_t old_begin = old.offsets[i];
            const size_t n = old.offsets[i + 1] - old_begin;
            std::copy_n(old.neighbor.begin() + old_begin, n,
                        rg->neighbor.begin() + k);
            std::copy_n(old.weight.begin() + old_begin, n,
                        rg->weight.begin() + k);
            continue;
          }
          const auto& nbrs = store.Neighbors(t, u);
          row.clear();
          row.reserve(nbrs.size());
          for (const auto& [v, e] : nbrs) {
            TURBO_CHECK_LT(v, static_cast<UserId>(num_nodes));
            row.push_back({v, static_cast<float>(e.weight)});
          }
          std::sort(row.begin(), row.end());
          for (const auto& [v, w] : row) {
            rg->neighbor[k] = v;
            float out = w;
            if (options.normalize) {
              const double d = wdeg_all[u] * wdeg_all[v];
              out = d > 0.0 ? static_cast<float>(w / std::sqrt(d)) : 0.0f;
            }
            rg->weight[k] = out;
            ++k;
          }
        }
        entry_delta[di] = static_cast<int64_t>(total) -
                          static_cast<int64_t>(old.offsets.back());
        out.groups[g] = std::move(rg);
      }
    });
    int64_t delta = 0;
    for (int64_t d : entry_delta) delta += d;
    out.entries = static_cast<size_t>(static_cast<int64_t>(out.entries) +
                                      delta);
  }
  return snap;
}

void BnSnapshot::Serialize(storage::BinaryWriter* w) const {
  w->U8(kSnapshotFormat);
  w->U64(version_);
  w->I64(num_nodes_);
  w->U8(normalized_ ? 1 : 0);
  const size_t num_groups = NumGroups(num_nodes_);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const TypeCsr& csr = csr_[t];
    w->U64(csr.entries);
    // Flattened global offsets: group-local offsets plus the running base.
    uint64_t base = 0;
    w->U64(0);
    for (size_t g = 0; g < num_groups; ++g) {
      const RowGroup& rg = *csr.groups[g];
      for (size_t i = 1; i < rg.offsets.size(); ++i) {
        w->U64(base + rg.offsets[i]);
      }
      base += rg.offsets.back();
    }
    for (size_t g = 0; g < num_groups; ++g) {
      const RowGroup& rg = *csr.groups[g];
      w->Bytes(rg.neighbor.data(), rg.neighbor.size() * sizeof(UserId));
    }
    for (size_t g = 0; g < num_groups; ++g) {
      const RowGroup& rg = *csr.groups[g];
      w->Bytes(rg.weight.data(), rg.weight.size() * sizeof(float));
    }
    if (normalized_) {
      for (size_t g = 0; g < num_groups; ++g) {
        const RowGroup& rg = *csr.groups[g];
        w->Bytes(rg.wdeg.data(), rg.wdeg.size() * sizeof(double));
      }
    }
  }
}

Result<std::shared_ptr<const BnSnapshot>> BnSnapshot::Deserialize(
    storage::BinaryReader* r) {
  if (r->U8() != kSnapshotFormat) {
    return Status::InvalidArgument("unsupported snapshot format");
  }
  auto snap = std::shared_ptr<BnSnapshot>(new BnSnapshot());
  snap->version_ = r->U64();
  snap->num_nodes_ = static_cast<int>(r->I64());
  snap->normalized_ = r->U8() != 0;
  if (!r->ok() || snap->num_nodes_ <= 0) {
    return Status::InvalidArgument("corrupt snapshot header");
  }
  const size_t rows = static_cast<size_t>(snap->num_nodes_);
  const size_t num_groups = NumGroups(snap->num_nodes_);
  // Size claims must fit the remaining payload before any resize — a
  // corrupt length would otherwise turn into a huge allocation.
  if (rows + 1 > r->remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("corrupt snapshot node count");
  }
  std::vector<uint64_t> offsets(rows + 1);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    TypeCsr& csr = snap->csr_[t];
    const uint64_t entries = r->U64();
    if (entries > r->remaining() / (sizeof(UserId) + sizeof(float))) {
      return Status::InvalidArgument("corrupt snapshot entry count");
    }
    for (size_t i = 0; i <= rows; ++i) offsets[i] = r->U64();
    if (!r->ok() || offsets[0] != 0 || offsets[rows] != entries ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      return Status::InvalidArgument("corrupt snapshot CSR offsets");
    }
    csr.entries = entries;
    // Re-segment into row groups: local offsets, then contiguous array
    // slices carved out of the flattened neighbor / weight / wdeg blocks.
    std::vector<std::shared_ptr<RowGroup>> groups(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t base = g << kRowGroupShift;
      const size_t grows = GroupRows(snap->num_nodes_, g);
      auto rg = std::make_shared<RowGroup>();
      rg->offsets.resize(grows + 1);
      for (size_t i = 0; i <= grows; ++i) {
        rg->offsets[i] = offsets[base + i] - offsets[base];
      }
      groups[g] = std::move(rg);
    }
    for (auto& rg : groups) {
      rg->neighbor.resize(rg->offsets.back());
      r->Bytes(rg->neighbor.data(), rg->neighbor.size() * sizeof(UserId));
    }
    for (auto& rg : groups) {
      rg->weight.resize(rg->offsets.back());
      r->Bytes(rg->weight.data(), rg->weight.size() * sizeof(float));
    }
    if (snap->normalized_) {
      for (auto& rg : groups) {
        rg->wdeg.resize(rg->offsets.size() - 1);
        r->Bytes(rg->wdeg.data(), rg->wdeg.size() * sizeof(double));
      }
    }
    csr.groups.assign(groups.begin(), groups.end());
    if (!r->ok()) {
      return Status::InvalidArgument("truncated snapshot CSR arrays");
    }
    for (const auto& grp : csr.groups) {
      for (UserId v : grp->neighbor) {
        if (v >= static_cast<UserId>(snap->num_nodes_)) {
          return Status::InvalidArgument(
              "snapshot neighbor id out of range");
        }
      }
      for (double d : grp->wdeg) {
        if (!(d >= 0.0)) {
          return Status::InvalidArgument(
              "snapshot weighted degree out of range");
        }
      }
    }
  }
  return std::shared_ptr<const BnSnapshot>(std::move(snap));
}

void BnSnapshot::SerializeDiff(const BnSnapshot& base,
                               storage::BinaryWriter* w) const {
  TURBO_CHECK_EQ(num_nodes_, base.num_nodes_);
  TURBO_CHECK_EQ(normalized_, base.normalized_);
  w->U8(kSnapshotFormat);
  w->U64(version_);
  w->I64(num_nodes_);
  w->U8(normalized_ ? 1 : 0);
  const size_t num_groups = NumGroups(num_nodes_);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const TypeCsr& csr = csr_[t];
    w->U64(csr.entries);
    // A group not pointer-shared with the base is emitted whole; with
    // incremental publishes in between, pointer inequality == "some row
    // in it was rebuilt", so the diff is O(churned groups). (A group
    // rebuilt to identical bytes would be a harmless false positive.)
    uint32_t changed = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      if (csr.groups[g] != base.csr_[t].groups[g]) ++changed;
    }
    w->U32(changed);
    for (size_t g = 0; g < num_groups; ++g) {
      if (csr.groups[g] == base.csr_[t].groups[g]) continue;
      const RowGroup& rg = *csr.groups[g];
      w->U32(static_cast<uint32_t>(g));
      w->U64(rg.offsets.back());
      for (size_t i = 1; i < rg.offsets.size(); ++i) w->U64(rg.offsets[i]);
      w->Bytes(rg.neighbor.data(), rg.neighbor.size() * sizeof(UserId));
      w->Bytes(rg.weight.data(), rg.weight.size() * sizeof(float));
      if (normalized_) {
        w->Bytes(rg.wdeg.data(), rg.wdeg.size() * sizeof(double));
      }
    }
  }
}

Result<std::shared_ptr<const BnSnapshot>> BnSnapshot::DeserializePatched(
    const std::shared_ptr<const BnSnapshot>& base, storage::BinaryReader* r) {
  TURBO_CHECK(base != nullptr);
  if (r->U8() != kSnapshotFormat) {
    return Status::InvalidArgument("unsupported snapshot format");
  }
  auto snap = std::shared_ptr<BnSnapshot>(new BnSnapshot());
  snap->version_ = r->U64();
  snap->num_nodes_ = static_cast<int>(r->I64());
  snap->normalized_ = r->U8() != 0;
  if (!r->ok() || snap->num_nodes_ != base->num_nodes_ ||
      snap->normalized_ != base->normalized_) {
    return Status::InvalidArgument("snapshot diff does not match its base");
  }
  const size_t num_groups = NumGroups(snap->num_nodes_);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    TypeCsr& csr = snap->csr_[t];
    csr.groups = base->csr_[t].groups;
    const uint64_t entries = r->U64();
    const uint32_t changed = r->U32();
    if (!r->ok() || changed > num_groups) {
      return Status::InvalidArgument("corrupt snapshot diff header");
    }
    int64_t prev_g = -1;
    for (uint32_t c = 0; c < changed; ++c) {
      const uint32_t g = r->U32();
      const uint64_t gentries = r->U64();
      if (!r->ok() || g >= num_groups || static_cast<int64_t>(g) <= prev_g) {
        return Status::InvalidArgument("corrupt snapshot diff group index");
      }
      prev_g = g;
      if (gentries > r->remaining() / (sizeof(UserId) + sizeof(float))) {
        return Status::InvalidArgument("corrupt snapshot diff group size");
      }
      const size_t grows = GroupRows(snap->num_nodes_, g);
      auto rg = std::make_shared<RowGroup>();
      rg->offsets.resize(grows + 1);
      rg->offsets[0] = 0;
      for (size_t i = 1; i <= grows; ++i) rg->offsets[i] = r->U64();
      if (!r->ok() || rg->offsets[grows] != gentries ||
          !std::is_sorted(rg->offsets.begin(), rg->offsets.end())) {
        return Status::InvalidArgument("corrupt snapshot diff offsets");
      }
      rg->neighbor.resize(gentries);
      rg->weight.resize(gentries);
      r->Bytes(rg->neighbor.data(), gentries * sizeof(UserId));
      r->Bytes(rg->weight.data(), gentries * sizeof(float));
      if (snap->normalized_) {
        rg->wdeg.resize(grows);
        r->Bytes(rg->wdeg.data(), grows * sizeof(double));
      }
      if (!r->ok()) {
        return Status::InvalidArgument("truncated snapshot diff group");
      }
      for (UserId v : rg->neighbor) {
        if (v >= static_cast<UserId>(snap->num_nodes_)) {
          return Status::InvalidArgument(
              "snapshot diff neighbor id out of range");
        }
      }
      for (double d : rg->wdeg) {
        if (!(d >= 0.0)) {
          return Status::InvalidArgument(
              "snapshot diff weighted degree out of range");
        }
      }
      csr.groups[g] = std::move(rg);
    }
    // The declared entry total must match what the patched groups sum
    // to — a mismatch means the diff was applied over the wrong base.
    size_t sum = 0;
    for (const auto& grp : csr.groups) sum += grp->offsets.back();
    if (sum != entries) {
      return Status::InvalidArgument("snapshot diff entry total mismatch");
    }
    csr.entries = entries;
  }
  return std::shared_ptr<const BnSnapshot>(std::move(snap));
}

double BnSnapshot::WeightedDegree(int edge_type, UserId u) const {
  const NeighborSpan span = Neighbors(edge_type, u);
  double s = 0.0;
  for (size_t i = 0; i < span.size(); ++i) s += span.weight(i);
  return s;
}

size_t BnSnapshot::TotalEdges() const {
  size_t s = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) s += NumEdges(t);
  return s;
}

size_t BnSnapshot::MemoryBytes() const {
  size_t s = 0;
  for (const TypeCsr& csr : csr_) {
    for (const auto& rg : csr.groups) {
      s += rg->offsets.capacity() * sizeof(size_t);
      s += rg->neighbor.capacity() * sizeof(UserId);
      s += rg->weight.capacity() * sizeof(float);
      s += rg->wdeg.capacity() * sizeof(double);
    }
  }
  return s;
}

size_t BnSnapshot::SharedGroupsWith(const BnSnapshot& other) const {
  size_t shared = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const auto& a = csr_[t].groups;
    const auto& b = other.csr_[t].groups;
    const size_t n = std::min(a.size(), b.size());
    for (size_t g = 0; g < n; ++g) {
      if (a[g] == b[g]) ++shared;
    }
  }
  return shared;
}

std::string BnSnapshot::FirstDifference(const BnSnapshot& other) const {
  if (num_nodes_ != other.num_nodes_) {
    return StrFormat("%d vs %d nodes", num_nodes_, other.num_nodes_);
  }
  if (normalized_ != other.normalized_) {
    return StrFormat("normalized %d vs %d", normalized_, other.normalized_);
  }
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    if (NumEdges(t) != other.NumEdges(t)) {
      return StrFormat("type %d: %zu vs %zu edges", t, NumEdges(t),
                       other.NumEdges(t));
    }
  }
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < static_cast<UserId>(num_nodes_); ++u) {
      const NeighborSpan a = Neighbors(t, u);
      const NeighborSpan b = other.Neighbors(t, u);
      if (a.size() != b.size()) {
        return StrFormat("type %d row %u: %zu vs %zu neighbours", t, u,
                         a.size(), b.size());
      }
      for (size_t i = 0; i < a.size(); ++i) {
        if (a.id(i) != b.id(i)) {
          return StrFormat("type %d row %u slot %zu: id %u vs %u", t, u, i,
                           a.id(i), b.id(i));
        }
        if (std::bit_cast<uint32_t>(a.weight(i)) !=
            std::bit_cast<uint32_t>(b.weight(i))) {
          return StrFormat("type %d row %u slot %zu: weight %.9g vs %.9g", t,
                           u, i, a.weight(i), b.weight(i));
        }
      }
    }
  }
  return "";
}

double GraphView::WeightedDegree(int edge_type, UserId u) const {
  const NeighborSpan span = Neighbors(edge_type, u);
  double s = 0.0;
  for (size_t i = 0; i < span.size(); ++i) s += span.weight(i);
  return s;
}

std::vector<NeighborEntry> GraphView::UnionNeighbors(UserId u) const {
  TURBO_CHECK(valid());
  std::unordered_map<UserId, float> merged;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const NeighborSpan span = Neighbors(t, u);
    for (size_t i = 0; i < span.size(); ++i) {
      merged[span.id(i)] += span.weight(i);
    }
  }
  std::vector<NeighborEntry> out;
  out.reserve(merged.size());
  for (const auto& [v, w] : merged) out.push_back({v, w});
  std::sort(out.begin(), out.end(),
            [](const NeighborEntry& a, const NeighborEntry& b) {
              return a.id < b.id;
            });
  return out;
}

double GraphView::UnionWeightedDegree(UserId u) const {
  double s = 0.0;
  for (const auto& e : UnionNeighbors(u)) s += e.weight;
  return s;
}

size_t GraphView::TotalEdges() const {
  size_t s = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) s += NumEdges(t);
  return s;
}

}  // namespace turbo::bn
