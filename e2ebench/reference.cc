// References the benchmark checks the program against, computed apart
// from it: Algorithm 1 edge weights straight from the log list, an AUC by
// pair counting, and a bit-level server comparison.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "util/check.h"

namespace e2e {

namespace {

struct Contribution {
  SimTime time;
  float weight;
};

// First day boundary whose TTL sweep drops an edge last refreshed at
// `last`: sweeps at D remove edges with last + ttl < D.
SimTime ExpirySweep(SimTime last, SimTime ttl) {
  return ((last + ttl) / kDay + 1) * kDay;
}

}  // namespace

std::vector<RefEdge> ReferenceEdges(const BehaviorLogList& logs,
                                    const std::vector<SimTime>& windows,
                                    SimTime ttl, int max_bucket_users,
                                    SimTime now,
                                    const std::vector<UserId>& users,
                                    int* max_bucket_seen) {
  using ValueKey = std::pair<int, ValueId>;  // (edge type, value)
  const std::set<UserId> wanted(users.begin(), users.end());
  // Every observation of each edge-building value, and the sampled
  // users' own observations.
  std::map<ValueKey, std::vector<std::pair<SimTime, UserId>>> by_value;
  std::map<UserId, std::vector<std::pair<ValueKey, SimTime>>> own;
  for (const BehaviorLog& log : logs) {
    const int type = EdgeTypeIndex(log.type);
    if (type < 0 || log.time > now) continue;
    by_value[{type, log.value}].emplace_back(log.time, log.uid);
    if (wanted.count(log.uid) != 0) {
      own[log.uid].emplace_back(ValueKey{type, log.value}, log.time);
    }
  }
  for (auto& [key, obs] : by_value) std::sort(obs.begin(), obs.end());

  int max_seen = 0;
  std::vector<RefEdge> out;
  for (UserId u : users) {
    // Buckets u belongs to: (value, window, epoch end).
    std::set<std::tuple<ValueKey, SimTime, SimTime>> buckets;
    for (const auto& [key, t] : own[u]) {
      for (SimTime w : windows) {
        // Epoch 1 is [0, W]; epoch j > 1 is ((j-1)W, jW].
        const SimTime end = t == 0 ? w : ((t + w - 1) / w) * w;
        if (end <= now) buckets.insert({key, w, end});
      }
    }
    std::map<std::pair<int, UserId>, std::vector<Contribution>> contrib;
    for (const auto& [key, w, end] : buckets) {
      const SimTime lo = end - w > 0 ? end - w + 1 : 0;
      const auto& obs = by_value.at(key);
      auto it = std::lower_bound(obs.begin(), obs.end(),
                                 std::make_pair(lo, UserId{0}));
      std::set<UserId> members;
      for (; it != obs.end() && it->first <= end; ++it) {
        members.insert(it->second);
      }
      const int n = static_cast<int>(members.size());
      max_seen = std::max(max_seen, n);
      TURBO_CHECK_MSG(n <= max_bucket_users,
                      "bucket of " << n << " users exceeds the safety "
                      "valve; the program would subsample it");
      if (n < 2) continue;
      const float weight = 1.0f / static_cast<float>(n);
      for (UserId v : members) {
        if (v != u) contrib[{key.first, v}].push_back({end, weight});
      }
    }
    for (auto& [edge, terms] : contrib) {
      std::sort(terms.begin(), terms.end(),
                [](const Contribution& a, const Contribution& b) {
                  return a.time < b.time;
                });
      bool alive = false;
      double weight = 0.0;
      SimTime last = 0;
      for (const Contribution& c : terms) {
        // A sweep strictly before this job drops the edge; a sweep at the
        // same boundary runs after the job and sees it refreshed.
        if (alive && ExpirySweep(last, ttl) < c.time) {
          alive = false;
          weight = 0.0;
        }
        weight += static_cast<double>(c.weight);
        last = c.time;
        alive = true;
      }
      if (alive && ExpirySweep(last, ttl) <= now) alive = false;
      if (alive) out.push_back({edge.first, u, edge.second, weight, last});
    }
  }
  if (max_bucket_seen != nullptr) *max_bucket_seen = max_seen;
  return out;
}

double PairCountAuc(const std::vector<double>& scores,
                    const std::vector<int>& labels) {
  TURBO_CHECK_EQ(scores.size(), labels.size());
  double wins = 0.0;
  uint64_t pairs = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] != 1) continue;
    for (size_t j = 0; j < scores.size(); ++j) {
      if (labels[j] != 0) continue;
      ++pairs;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  return pairs == 0 ? std::nan("") : wins / static_cast<double>(pairs);
}

std::string SelfCheckReferences() {
  std::ostringstream err;
  // Fig. 3: five users share one IP; the inner four co-occur in the
  // first hour (1/4 each pair), all five in the 2-hour epoch (1/5).
  const BehaviorLogList toy = {
      {0, BehaviorType::kIpv4, 42, 30 * kMinute},
      {1, BehaviorType::kIpv4, 42, 32 * kMinute},
      {2, BehaviorType::kIpv4, 42, 40 * kMinute},
      {3, BehaviorType::kIpv4, 42, 55 * kMinute},
      {4, BehaviorType::kIpv4, 42, 85 * kMinute},
  };
  const std::vector<UserId> all = {0, 1, 2, 3, 4};
  const auto edges = ReferenceEdges(toy, {kHour, 2 * kHour}, 60 * kDay,
                                    500, 2 * kHour, all, nullptr);
  const int ip = EdgeTypeIndex(BehaviorType::kIpv4);
  if (edges.size() != 20) err << "fig3: " << edges.size() << " directed edges, want 20; ";
  for (const RefEdge& e : edges) {
    const bool outer = e.u == 4 || e.v == 4;
    const double want = outer ? 0.2 : 0.25 + 0.2;
    if (e.edge_type != ip || std::fabs(e.weight - want) > 1e-7) {
      err << "fig3: u" << e.u << "-u" << e.v << " weight " << e.weight
          << ", want " << want << "; ";
    }
  }
  // AUC by hand: positives {0.9, 0.7} vs negatives {0.8, 0.6, 0.5} win
  // 3 + 2 of 6 pairs; with ties, {0.4, 0.1} vs {0.4, 0.9} score 0.5 of 4.
  const double a1 = PairCountAuc({0.9, 0.8, 0.7, 0.6, 0.5}, {1, 0, 1, 0, 0});
  if (std::fabs(a1 - 5.0 / 6.0) > 1e-12) err << "auc: " << a1 << " != 5/6; ";
  const double a2 = PairCountAuc({0.4, 0.4, 0.9, 0.1}, {1, 0, 0, 1});
  if (std::fabs(a2 - 0.125) > 1e-12) err << "auc: " << a2 << " != 1/8; ";
  return err.str();
}

std::string CompareServers(const server::BnServer& a,
                           const server::BnServer& b, int num_users) {
  std::ostringstream err;
  if (a.now() != b.now()) err << "clock " << a.now() << " vs " << b.now() << "; ";
  if (a.jobs_run() != b.jobs_run()) err << "jobs differ; ";
  if (a.edges_expired() != b.edges_expired()) err << "expiries differ; ";
  if (a.logs().size() != b.logs().size()) err << "log counts differ; ";
  if (a.snapshot_version() != b.snapshot_version()) err << "snapshot versions differ; ";
  if (!err.str().empty()) return err.str();
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    if (a.edges().NumEdges(t) != b.edges().NumEdges(t)) {
      return "edge count differs on type " + std::to_string(t);
    }
    for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
      const auto& na = a.edges().Neighbors(t, u);
      const auto& nb = b.edges().Neighbors(t, u);
      if (na.size() != nb.size()) return "adjacency size differs at " + std::to_string(u);
      for (const auto& [v, e] : na) {
        auto it = nb.find(v);
        if (it == nb.end() || it->second.weight != e.weight ||
            it->second.last_update != e.last_update) {
          return "edge differs at " + std::to_string(u) + "-" + std::to_string(v);
        }
      }
      if (sa == nullptr || sb == nullptr) continue;
      const bn::NeighborSpan ra = sa->Neighbors(t, u);
      const bn::NeighborSpan rb = sb->Neighbors(t, u);
      if (ra.size() != rb.size()) return "snapshot row differs at " + std::to_string(u);
      for (size_t i = 0; i < ra.size(); ++i) {
        if (ra.id(i) != rb.id(i) || ra.weight(i) != rb.weight(i)) {
          return "snapshot entry differs at " + std::to_string(u);
        }
      }
    }
  }
  return "";
}

}  // namespace e2e
