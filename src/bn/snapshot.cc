#include "bn/snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>

#include "util/string_util.h"

namespace turbo::bn {

namespace {

/// Leading byte of the serialized snapshot payload. Version 3 made the
/// row-group diff the only form (a null base writes every group); older
/// payloads are rejected (checkpoints are not forward-migrated).
constexpr uint8_t kSnapshotFormat = 3;

/// Runs fn(i) for every i in [0, n) on `num_threads` threads, the caller
/// included; each thread claims the next unclaimed index, so uneven
/// items balance. Inline when there are too few items to share.
template <typename Fn>
void ParallelFor(int num_threads, size_t n, const Fn& fn) {
  if (num_threads <= 1 || n < 2 * static_cast<size_t>(num_threads)) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> workers;
  workers.reserve(num_threads - 1);
  for (int t = 1; t < num_threads; ++t) workers.emplace_back(drain);
  drain();
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
  std::vector<GroupJob> jobs;
  jobs.reserve(num_groups * kNumEdgeTypes);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (size_t g = 0; g < num_groups; ++g) jobs.push_back({t, g});
  }
  for (TypeCsr& csr : snap->csr_) csr.groups.resize(num_groups);

  // Degree pass: every row's size, which lays out its group, and exact
  // weighted degree, which the fill normalizes with and the groups
  // retain for ApplyDeltas.
  std::array<std::vector<uint32_t>, kNumEdgeTypes> counts;
  std::array<std::vector<double>, kNumEdgeTypes> wdeg;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    counts[t].resize(static_cast<size_t>(num_nodes));
    if (options.normalize) wdeg[t].resize(static_cast<size_t>(num_nodes));
  }
  ParallelFor(threads, jobs.size(), [&](size_t j) {
    const auto [t, g] = jobs[j];
    const size_t base = g << kRowGroupShift;
    for (size_t i = 0; i < GroupRows(num_nodes, g); ++i) {
      const auto u = static_cast<UserId>(base + i);
      const auto& nbrs = store.Neighbors(t, u);
      counts[t][u] = static_cast<uint32_t>(nbrs.size());
      if (options.normalize) {
        // EdgeStore::WeightedDegree's sum, over the row already fetched.
        double s = 0.0;
        for (const auto& [v, e] : nbrs) s += e.weight;
        wdeg[t][u] = s;
      }
    }
  });
  snap->FillGroups(store, nullptr, counts, wdeg, jobs, threads);
  return snap;
}

std::shared_ptr<const BnSnapshot> BnSnapshot::ApplyDeltas(
    const std::shared_ptr<const BnSnapshot>& prev,
    const storage::EdgeStore& store, const storage::EdgeChurn& churn,
    const SnapshotOptions& options, uint64_t version, ApplyStats* stats) {
  TURBO_CHECK(prev != nullptr);
  TURBO_CHECK_EQ(prev->normalized_, options.normalize);
  const int num_nodes = prev->num_nodes_;
  const size_t num_groups = NumGroups(num_nodes);
  auto snap = std::shared_ptr<BnSnapshot>(new BnSnapshot());
  snap->num_nodes_ = num_nodes;
  snap->version_ = version;
  snap->normalized_ = prev->normalized_;
  // Start fully shared; the fill replaces the dirty groups.
  snap->csr_ = prev->csr_;

  const int threads = ResolveThreads(options.num_threads);
  std::array<std::vector<uint32_t>, kNumEdgeTypes> counts;
  std::array<std::vector<double>, kNumEdgeTypes> wdeg;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
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
    // The set (the rows whose count is not kCopyRow) and the degree
    // table are dense arrays, not hash containers: the fill probes them
    // once per row and once per edge, so per-probe cost must match
    // Build()'s flat indexing or the patch loses its asymptotic win to
    // constant factors. The O(num_nodes) doubles copy is memcpy-speed
    // and amortizes over every probe.
    if (options.normalize) {
      wdeg[t].resize(static_cast<size_t>(num_nodes));
      for (size_t g = 0; g < num_groups; ++g) {
        const RowGroup& rg = *prev->csr_[t].groups[g];
        std::copy(rg.wdeg.begin(), rg.wdeg.end(),
                  wdeg[t].begin() + (g << kRowGroupShift));
      }
    }
    counts[t].assign(static_cast<size_t>(num_nodes), kCopyRow);
    size_t touched = 0;
    std::vector<size_t> dirty;
    const auto mark = [&](UserId u) {
      TURBO_CHECK_LT(u, static_cast<UserId>(num_nodes));
      if (counts[t][u] != kCopyRow) return;
      counts[t][u] = static_cast<uint32_t>(store.Neighbors(t, u).size());
      ++touched;
      const size_t g = static_cast<size_t>(u) >> kRowGroupShift;
      if (dirty.empty() || dirty.back() != g) dirty.push_back(g);
    };
    for (UserId u : churned) {
      mark(u);
      if (options.normalize) {
        // The churned nodes' new exact degrees overwrite the prev-era
        // table first so row rebuilds can mix new and prev degrees
        // without ordering hazards.
        wdeg[t][u] = store.WeightedDegree(t, u);
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
    // One type at a time, while its tables are hot; freeing them lets
    // the next type's reuse the memory (all types' tables at once read
    // 1.6x slower on one thread at 20k nodes).
    std::vector<GroupJob> jobs;
    for (size_t g : dirty) jobs.push_back({t, g});
    snap->FillGroups(store, prev.get(), counts, wdeg, jobs, threads);
    counts[t] = {};
    wdeg[t] = {};
  }
  return snap;
}

void BnSnapshot::FillGroups(
    const storage::EdgeStore& store, const BnSnapshot* prev,
    const std::array<std::vector<uint32_t>, kNumEdgeTypes>& counts,
    const std::array<std::vector<double>, kNumEdgeTypes>& wdeg,
    const std::vector<GroupJob>& jobs, int num_threads) {
  // Each job writes its own group slot and entry delta, and the store is
  // only read.
  std::vector<size_t> added(jobs.size());
  ParallelFor(num_threads, jobs.size(), [&](size_t j) {
    const auto [t, g] = jobs[j];
    const RowGroup* old =
        prev != nullptr ? prev->csr_[t].groups[g].get() : nullptr;
    const size_t base = g << kRowGroupShift;
    const size_t rows = GroupRows(num_nodes_, g);
    const auto copied = [&](size_t i) {
      return counts[t][base + i] == kCopyRow;
    };
    auto rg = std::make_shared<RowGroup>();
    rg->offsets.resize(rows + 1);
    rg->offsets[0] = 0;
    for (size_t i = 0; i < rows; ++i) {
      const size_t n = copied(i) ? old->offsets[i + 1] - old->offsets[i]
                                 : counts[t][base + i];
      rg->offsets[i + 1] = rg->offsets[i] + n;
    }
    const size_t total = rg->offsets[rows];
    rg->neighbor.resize(total);
    rg->weight.resize(total);
    if (normalized_) {
      rg->wdeg.assign(wdeg[t].begin() + base, wdeg[t].begin() + base + rows);
    }
    std::vector<std::pair<UserId, float>> row;
    for (size_t i = 0; i < rows; ++i) {
      size_t k = rg->offsets[i];
      if (copied(i)) {
        const size_t old_begin = old->offsets[i];
        const size_t n = old->offsets[i + 1] - old_begin;
        std::copy_n(old->neighbor.begin() + old_begin, n,
                    rg->neighbor.begin() + k);
        std::copy_n(old->weight.begin() + old_begin, n,
                    rg->weight.begin() + k);
        continue;
      }
      const auto u = static_cast<UserId>(base + i);
      const auto& nbrs = store.Neighbors(t, u);
      row.clear();
      row.reserve(nbrs.size());
      for (const auto& [v, e] : nbrs) {
        TURBO_CHECK_LT(v, static_cast<UserId>(num_nodes_));
        row.push_back({v, static_cast<float>(e.weight)});
      }
      std::sort(row.begin(), row.end());
      for (const auto& [v, w] : row) {
        rg->neighbor[k] = v;
        float out = w;
        if (normalized_) {
          const double d = wdeg[t][u] * wdeg[t][v];
          out = d > 0.0 ? static_cast<float>(w / std::sqrt(d)) : 0.0f;
        }
        rg->weight[k] = out;
        ++k;
      }
    }
    // Unsigned wrap-around makes a shrinking group a negative delta.
    added[j] = total - (old != nullptr ? old->offsets.back() : 0);
    csr_[t].groups[g] = std::move(rg);
  });
  for (size_t j = 0; j < jobs.size(); ++j) {
    csr_[jobs[j].type].entries += added[j];
  }
}

void BnSnapshot::SerializeDiff(const BnSnapshot* base,
                               storage::BinaryWriter* w) const {
  if (base != nullptr) {
    TURBO_CHECK_EQ(num_nodes_, base->num_nodes_);
    TURBO_CHECK_EQ(normalized_, base->normalized_);
  }
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
    const auto shared = [&](size_t g) {
      return base != nullptr && csr.groups[g] == base->csr_[t].groups[g];
    };
    uint32_t changed = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      if (!shared(g)) ++changed;
    }
    w->U32(changed);
    for (size_t g = 0; g < num_groups; ++g) {
      if (shared(g)) continue;
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
  if (r->U8() != kSnapshotFormat) {
    return Status::InvalidArgument("unsupported snapshot format");
  }
  auto snap = std::shared_ptr<BnSnapshot>(new BnSnapshot());
  snap->version_ = r->U64();
  const int64_t num_nodes = r->I64();
  snap->normalized_ = r->U8() != 0;
  if (!r->ok() || num_nodes <= 0 ||
      num_nodes > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("corrupt snapshot header");
  }
  snap->num_nodes_ = static_cast<int>(num_nodes);
  const size_t num_groups = NumGroups(snap->num_nodes_);
  if (base != nullptr) {
    if (snap->num_nodes_ != base->num_nodes_ ||
        snap->normalized_ != base->normalized_) {
      return Status::InvalidArgument("snapshot diff does not match its base");
    }
  } else if (static_cast<size_t>(num_nodes) >
             r->remaining() / (kNumEdgeTypes * sizeof(uint64_t))) {
    // Without a base every type carries an offset per row. A node count
    // the payload cannot hold is corruption, and must fail before the
    // group tables are sized from it.
    return Status::InvalidArgument("corrupt snapshot node count");
  }
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    TypeCsr& csr = snap->csr_[t];
    if (base != nullptr) {
      csr.groups = base->csr_[t].groups;
    } else {
      csr.groups.resize(num_groups);
    }
    const uint64_t entries = r->U64();
    const uint32_t changed = r->U32();
    if (!r->ok() || changed > num_groups ||
        (base == nullptr && changed != num_groups)) {
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
      if (!normalized_) continue;
      const double da = StoredDegree(t, u);
      const double db = other.StoredDegree(t, u);
      if (std::bit_cast<uint64_t>(da) != std::bit_cast<uint64_t>(db)) {
        return StrFormat("type %d row %u: wdeg %.17g vs %.17g", t, u, da, db);
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
