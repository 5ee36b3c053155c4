#include "storage/edge_store.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/string_util.h"

namespace turbo::storage {

namespace {
const std::unordered_map<UserId, EdgeInfo> kEmptyNeighbors;

std::vector<UserId> SortedIds(const std::unordered_set<UserId>& s) {
  std::vector<UserId> ids(s.begin(), s.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

bool EdgeChurn::Empty() const {
  for (const auto& s : nodes) {
    if (!s.empty()) return false;
  }
  return true;
}

size_t EdgeChurn::TotalTouched() const {
  size_t n = 0;
  for (const auto& s : nodes) n += s.size();
  return n;
}

void EdgeChurn::Clear() {
  for (auto& s : nodes) s.clear();
}

void EdgeChurn::MergeFrom(const EdgeChurn& other) {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    nodes[t].insert(other.nodes[t].begin(), other.nodes[t].end());
  }
}

void EdgeChurn::Serialize(BinaryWriter* w) const {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const std::vector<UserId> ids = SortedIds(nodes[t]);
    w->U64(ids.size());
    w->Bytes(ids.data(), ids.size() * sizeof(UserId));
  }
}

Status EdgeChurn::Deserialize(BinaryReader* r, UserId num_users) {
  Clear();
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const uint64_t n = r->U64();
    if (n > r->remaining() / sizeof(UserId)) {
      Clear();
      return Status::InvalidArgument("truncated churn section");
    }
    for (uint64_t i = 0; i < n; ++i) {
      const UserId u = r->U32();
      if (u >= num_users) {
        Clear();
        return Status::InvalidArgument("churn node id out of range");
      }
      nodes[t].insert(u);
    }
  }
  if (!r->ok()) {
    Clear();
    return Status::InvalidArgument("truncated churn section");
  }
  return Status::OK();
}

void EdgeStore::AddWeight(int edge_type, UserId u, UserId v, float w,
                          SimTime now) {
  TURBO_CHECK_GE(edge_type, 0);
  TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
  // A negative id cast to the unsigned UserId wraps past 2^31; without
  // this guard EnsureSize would try to allocate billions of adjacency
  // rows instead of aborting.
  TURBO_CHECK_GE(static_cast<int32_t>(u), 0);
  TURBO_CHECK_GE(static_cast<int32_t>(v), 0);
  TURBO_CHECK_NE(u, v);
  TURBO_CHECK_GT(w, 0.0f);
  auto& adj = by_type_[edge_type];
  EnsureSize(&adj, std::max(u, v));
  auto& fwd = adj[u][v];
  if (fwd.weight == 0.0) ++edge_count_[edge_type];
  fwd.weight += w;
  fwd.last_update = std::max(fwd.last_update, now);
  auto& bwd = adj[v][u];
  bwd.weight += w;
  bwd.last_update = std::max(bwd.last_update, now);
}

size_t EdgeStore::ExpireBefore(SimTime cutoff, EdgeChurn* churn) {
  size_t removed = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    auto& adj = by_type_[t];
    for (UserId u = 0; u < adj.size(); ++u) {
      for (auto it = adj[u].begin(); it != adj[u].end();) {
        if (it->second.last_update < cutoff) {
          // Count each undirected edge once (from its smaller endpoint).
          if (u < it->first) {
            ++removed;
            --edge_count_[t];
          }
          // The mirrored visit records the other endpoint, so both ends
          // of every expired edge land in the churn set.
          if (churn != nullptr) churn->Touch(t, u);
          it = adj[u].erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  return removed;
}

void EdgeStore::ClearNode(int edge_type, UserId u) {
  auto& adj = by_type_[edge_type];
  if (u >= adj.size()) return;
  for (const auto& [v, e] : adj[u]) {
    adj[v].erase(u);
    --edge_count_[edge_type];
  }
  adj[u].clear();
}

const std::unordered_map<UserId, EdgeInfo>& EdgeStore::Neighbors(
    int edge_type, UserId u) const {
  TURBO_CHECK_GE(edge_type, 0);
  TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
  const auto& adj = by_type_[edge_type];
  if (u >= adj.size()) return kEmptyNeighbors;
  return adj[u];
}

double EdgeStore::WeightedDegree(int edge_type, UserId u) const {
  double s = 0.0;
  for (const auto& [v, e] : Neighbors(edge_type, u)) s += e.weight;
  return s;
}

float EdgeStore::Weight(int edge_type, UserId u, UserId v) const {
  const auto& n = Neighbors(edge_type, u);
  auto it = n.find(v);
  return it == n.end() ? 0.0f : static_cast<float>(it->second.weight);
}

size_t EdgeStore::NumEdges(int edge_type) const {
  TURBO_CHECK_GE(edge_type, 0);
  TURBO_CHECK_LT(edge_type, kNumEdgeTypes);
  return edge_count_[edge_type];
}

size_t EdgeStore::TotalEdges() const {
  size_t s = 0;
  for (size_t c : edge_count_) s += c;
  return s;
}

void EdgeStore::Serialize(BinaryWriter* w) const {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    w->U64(edge_count_[t]);
    const auto& adj = by_type_[t];
    for (UserId u = 0; u < adj.size(); ++u) {
      // Neighbor maps are unordered; emit ascending ids so equal stores
      // serialize to equal bytes.
      std::vector<UserId> nbrs;
      nbrs.reserve(adj[u].size());
      for (const auto& [v, e] : adj[u]) {
        if (u < v) nbrs.push_back(v);
      }
      std::sort(nbrs.begin(), nbrs.end());
      for (UserId v : nbrs) {
        const EdgeInfo& e = adj[u].at(v);
        w->U32(u);
        w->U32(v);
        w->F64(e.weight);
        w->I64(e.last_update);
      }
    }
  }
}

Status EdgeStore::Deserialize(BinaryReader* r, UserId num_users) {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    by_type_[t].clear();
    edge_count_[t] = 0;
  }
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const uint64_t count = r->U64();
    auto& adj = by_type_[t];
    for (uint64_t i = 0; i < count; ++i) {
      const UserId u = r->U32();
      const UserId v = r->U32();
      const double weight = r->F64();
      const SimTime last_update = r->I64();
      if (!r->ok()) {
        return Status::InvalidArgument("truncated edge section");
      }
      if (u == v || weight <= 0.0) {
        return Status::InvalidArgument("corrupt edge record");
      }
      if (u >= num_users || v >= num_users) {
        return Status::InvalidArgument(
            "edge record endpoint out of range");
      }
      EnsureSize(&adj, std::max(u, v));
      adj[u][v] = EdgeInfo{weight, last_update};
      adj[v][u] = EdgeInfo{weight, last_update};
      ++edge_count_[t];
    }
  }
  return Status::OK();
}

void EdgeStore::SerializeTouched(const EdgeChurn& churn,
                                 BinaryWriter* w) const {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const auto& touched = churn.nodes[t];
    const std::vector<UserId> ids = SortedIds(touched);
    w->U64(ids.size());
    w->Bytes(ids.data(), ids.size() * sizeof(UserId));
    // Each edge with >= 1 touched endpoint is emitted exactly once: from
    // its touched endpoint when only one is touched, from the smaller id
    // when both are. Two passes (count, then rows) keep the layout
    // self-describing without buffering the rows.
    const auto emits = [&](UserId u, UserId v) {
      return !touched.contains(v) || v > u;
    };
    uint64_t count = 0;
    for (UserId u : ids) {
      for (const auto& [v, e] : Neighbors(t, u)) {
        if (emits(u, v)) ++count;
      }
    }
    w->U64(count);
    std::vector<UserId> nbrs;
    for (UserId u : ids) {
      const auto& row = Neighbors(t, u);
      nbrs.clear();
      nbrs.reserve(row.size());
      for (const auto& [v, e] : row) {
        if (emits(u, v)) nbrs.push_back(v);
      }
      std::sort(nbrs.begin(), nbrs.end());
      for (UserId v : nbrs) {
        const EdgeInfo& e = row.at(v);
        w->U32(u);
        w->U32(v);
        w->F64(e.weight);
        w->I64(e.last_update);
      }
    }
  }
}

Status EdgeStore::ApplyDeltaSection(BinaryReader* r, UserId num_users) {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    const uint64_t num_touched = r->U64();
    if (num_touched > r->remaining() / sizeof(UserId)) {
      return Status::InvalidArgument("truncated edge-delta section");
    }
    // Clear-then-insert: the emitted rows are the complete current state
    // of every touched node, so dropping the old rows first makes the
    // apply an exact replacement rather than an accumulation.
    for (uint64_t i = 0; i < num_touched; ++i) {
      const UserId u = r->U32();
      if (u >= num_users) {
        return Status::InvalidArgument(
            "edge-delta touched id out of range");
      }
      ClearNode(t, u);
    }
    const uint64_t count = r->U64();
    constexpr size_t kRecordBytes = 2 * sizeof(UserId) + sizeof(double) +
                                    sizeof(SimTime);
    if (count > r->remaining() / kRecordBytes) {
      return Status::InvalidArgument("truncated edge-delta section");
    }
    auto& adj = by_type_[t];
    for (uint64_t i = 0; i < count; ++i) {
      const UserId u = r->U32();
      const UserId v = r->U32();
      const double weight = r->F64();
      const SimTime last_update = r->I64();
      if (u == v || weight <= 0.0) {
        return Status::InvalidArgument("corrupt edge-delta record");
      }
      if (u >= num_users || v >= num_users) {
        return Status::InvalidArgument(
            "edge-delta endpoint out of range");
      }
      EnsureSize(&adj, std::max(u, v));
      if (adj[u].contains(v)) {
        // Each edge is emitted once; a duplicate would double-count.
        return Status::InvalidArgument("duplicate edge-delta record");
      }
      adj[u][v] = EdgeInfo{weight, last_update};
      adj[v][u] = EdgeInfo{weight, last_update};
      ++edge_count_[t];
    }
  }
  if (!r->ok()) {
    return Status::InvalidArgument("truncated edge-delta section");
  }
  return Status::OK();
}

std::vector<UserId> EdgeStore::ConnectedUsers() const {
  size_t max_size = 0;
  for (const auto& adj : by_type_) max_size = std::max(max_size, adj.size());
  std::vector<bool> seen(max_size, false);
  for (const auto& adj : by_type_) {
    for (UserId u = 0; u < adj.size(); ++u) {
      if (!adj[u].empty()) seen[u] = true;
    }
  }
  std::vector<UserId> out;
  for (UserId u = 0; u < seen.size(); ++u) {
    if (seen[u]) out.push_back(u);
  }
  return out;
}

std::string EdgeStore::FirstDifference(const EdgeStore& other) const {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    if (edge_count_[t] != other.edge_count_[t]) {
      return StrFormat("type %d: %zu vs %zu edges", t, edge_count_[t],
                       other.edge_count_[t]);
    }
  }
  // A one-part sum is the part itself, bit for bit.
  return FirstDifferenceFromSum({&other});
}

std::string EdgeStore::FirstDifferenceFromSum(
    const std::vector<const EdgeStore*>& parts) const {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < by_type_[t].size(); ++u) {
      for (const auto& [v, e] : by_type_[t][u]) {
        // Exact double accumulation in part order: each part holds a
        // disjoint subset of the edge's exactly representable terms.
        EdgeInfo sum{0.0, std::numeric_limits<SimTime>::min()};
        for (const EdgeStore* part : parts) {
          const auto& row = part->Neighbors(t, u);
          const auto it = row.find(v);
          if (it == row.end()) continue;
          sum.weight += it->second.weight;
          sum.last_update = std::max(sum.last_update, it->second.last_update);
        }
        if (std::bit_cast<uint64_t>(e.weight) !=
            std::bit_cast<uint64_t>(sum.weight)) {
          return StrFormat("type %d edge %u-%u: weight %.17g vs %.17g", t, u,
                           v, e.weight, sum.weight);
        }
        if (e.last_update != sum.last_update) {
          return StrFormat("type %d edge %u-%u: last_update %lld vs %lld", t,
                           u, v, static_cast<long long>(e.last_update),
                           static_cast<long long>(sum.last_update));
        }
      }
    }
  }
  for (size_t p = 0; p < parts.size(); ++p) {
    for (int t = 0; t < kNumEdgeTypes; ++t) {
      const Adjacency& adj = parts[p]->by_type_[t];
      for (UserId u = 0; u < adj.size(); ++u) {
        for (const auto& [v, e] : adj[u]) {
          if (!Neighbors(t, u).contains(v)) {
            return StrFormat("type %d edge %u-%u: only in part %zu", t, u, v,
                             p);
          }
        }
      }
    }
  }
  return "";
}

}  // namespace turbo::storage
