// Multi-shard BN cluster (DESIGN.md §14): N single-writer BnServer
// shards behind a ShardRouter, presenting the same ingest / advance /
// checkpoint / sample surface as one server.
//
// Partitioning (bn/partition.h): users hash to a home shard that holds
// their complete raw-log history and serves their sampling and feature
// reads; behavior *values* hash to an owner shard that is the only
// place the value's co-occurrence bucket becomes edges. A log whose
// value owner differs from its user owner is ingested at both — the
// value owner therefore sees every user sharing the value, and each
// shard's window-job key filter (BnConfig::topology) guarantees every
// cross-shard edge is built exactly once cluster-wide. Per-(type,u,v)
// weights summed across shards equal the single-server weights bit for
// bit (each shard accumulates a disjoint subset of the same exact
// float-term sums; see storage::EdgeInfo).
//
// Epoch barrier: AdvanceTo moves every shard to the same target time —
// optionally in parallel, the shards share no mutable state — and only
// counts the cluster epoch once all shards arrive. Each shard runs its
// due window jobs in the same global epoch order a single server
// would, so the barrier preserves the single-server job schedule
// shard-locally, which is all the bit-identity argument needs.
//
// Durability: with wal_root set, shard i logs to
// `<wal_root>/shard-<i>`; Checkpoint()/Recover() fan out per shard.
// Each shard's checkpoint carries its own topology fingerprint, so
// state from a different layout (count or seeds) is rejected instead
// of silently building a skewed graph. Warm standbys attach per shard
// directory (server::WarmStandby over storage::ShipWalDir).
//
// Concurrency contract: identical to BnServer, lifted to the cluster —
// Ingest/AdvanceTo/Checkpoint/Recover are cluster-writer operations;
// SampleSubgraph and per-shard snapshot reads are lock-free and may
// run from any thread concurrently with the writer. OfferIngest is
// lock-free from any producer thread.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "server/bn_server.h"
#include "server/prediction_server.h"
#include "server/shard_handle.h"
#include "server/shard_router.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace turbo::server {

struct BnClusterConfig {
  /// Per-shard server template. `bn.topology` and `wal_dir` are
  /// overwritten per shard (the topology's seeds are kept); everything
  /// else applies to every shard as-is. The template's `metrics`
  /// pointer is ignored — each shard gets a private registry so
  /// per-shard gauges do not fight over one name.
  BnServerConfig shard;
  int num_shards = 1;
  /// Durability root; empty disables the WAL cluster-wide. Shard i
  /// writes to `<wal_root>/shard-<i>`.
  std::string wal_root;
  /// Threads driving the AdvanceTo barrier; 1 advances the shards
  /// serially on the calling thread. Purely a throughput knob — the
  /// shards are state-disjoint and each is deterministic.
  int advance_threads = 1;
  /// Registry receiving the cluster's bn_cluster_* metrics (routing
  /// counters, epoch, per-shard lag gauges). Not owned; null = private.
  obs::MetricsRegistry* metrics = nullptr;
};

class BnCluster {
 public:
  /// Local mode: constructs `num_shards` in-process BnServers and
  /// routes to them directly.
  explicit BnCluster(BnClusterConfig config);

  /// Handle mode (DESIGN.md §15): routes to caller-provided shard
  /// handles — typically net::RemoteShardClient per endpoint — instead
  /// of in-process servers. `config.shard.bn.topology` still defines the
  /// routing layout and must match what each remote shard was built
  /// with; `config.num_shards`/`wal_root` are ignored (the handle count
  /// is the shard count, durability lives with each shard). The
  /// local-only shard() accessor CHECK-fails in this mode.
  BnCluster(BnClusterConfig config,
            std::vector<std::unique_ptr<ShardHandle>> handles);

  /// Writer-side ingestion: routes to the user-owner shard and, when
  /// the value owner differs, forwards a copy there (both appends go
  /// through the owning shard's WAL when durability is on).
  void Ingest(const BehaviorLog& log);
  void IngestBatch(const BehaviorLogList& logs);

  /// Admission-controlled front door (requires
  /// shard.ingest_queue_capacity > 0). Lock-free, any producer thread.
  /// Returns true only when every routed copy was admitted; under
  /// overload a forwarded copy can be shed independently of the home
  /// copy — the same "drop instead of stall" contract as one server,
  /// applied per shard.
  bool OfferIngest(const BehaviorLog& log);
  /// Writer-side drain of every shard's ring; returns events applied.
  size_t DrainIngest(size_t max_events_per_shard = SIZE_MAX);
  size_t ingest_queue_depth() const;

  /// Cluster epoch barrier: advances every shard to `now`, then counts
  /// the epoch. The cluster clock reads `now` only after all shards
  /// published their state for it.
  void AdvanceTo(SimTime now);

  /// Epochs completed (AdvanceTo calls that moved the clock).
  uint64_t epoch() const { return epoch_; }
  SimTime now() const { return handles_.front()->now(); }

  /// Fan-out checkpoint/recover over `<wal_root>/shard-<i>` (requires
  /// wal_root). Recover must run on a freshly constructed cluster.
  Status Checkpoint();
  Status Recover();

  /// Serving reads, routed to the user-owner shard's pinned snapshot.
  bn::Subgraph SampleSubgraph(UserId uid) const;
  uint64_t snapshot_version_for(UserId uid) const;

  int num_shards() const { return static_cast<int>(handles_.size()); }
  const ShardRouter& router() const { return router_; }
  /// True when the shards are in-process BnServers (local-mode
  /// constructor); shard() requires it.
  bool local() const { return !shards_.empty(); }
  BnServer& shard(int i) { return *CheckLocal()[i]; }
  const BnServer& shard(int i) const { return *CheckLocal()[i]; }
  /// The routed handle for `uid`'s home shard (works in both modes).
  ShardHandle& HandleForUser(UserId uid) const {
    return *handles_[router_.OwnerOfUser(uid)];
  }

  /// Durability directory of shard `i` under `root`.
  static std::string ShardDir(const std::string& root, int i);

  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// Shared tail of both constructors: metric handles, per-shard
  /// gauges, the advance pool.
  void InitCommon();
  const std::vector<std::unique_ptr<BnServer>>& CheckLocal() const {
    TURBO_CHECK_MSG(!shards_.empty(),
                    "local-shard accessor on a handle-mode BnCluster");
    return shards_;
  }

  BnClusterConfig config_;
  ShardRouter router_;
  /// Local mode only; empty in handle mode.
  std::vector<std::unique_ptr<BnServer>> shards_;
  /// Every operation routes through these (LocalShardHandle wrappers in
  /// local mode).
  std::vector<std::unique_ptr<ShardHandle>> handles_;
  std::unique_ptr<util::ThreadPool> advance_pool_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* ingest_events_ = nullptr;
  obs::Counter* forwarded_ = nullptr;
  obs::Counter* offer_rejected_ = nullptr;
  obs::Gauge* epoch_g_ = nullptr;
  /// Per-shard serving gauges, refreshed at each barrier
  /// (obs::ShardMetricName).
  std::vector<obs::Gauge*> shard_version_g_;
  std::vector<obs::Gauge*> shard_edges_g_;
  uint64_t epoch_ = 0;
};

/// Serving-side router: hands each audit request to the PredictionServer
/// of the uid's owner shard, whose LRU is keyed by (shard, snapshot
/// version, uid) — PredictionConfig::shard_tag keeps keys from
/// different shards disjoint even though every shard numbers its
/// snapshot versions independently.
class ClusterPredictionRouter {
 public:
  /// `shards[i]` must serve BnCluster shard i (same order); borrowed,
  /// not owned.
  ClusterPredictionRouter(const ShardRouter* router,
                          std::vector<PredictionServer*> shards);

  PredictionResponse Handle(UserId uid);
  /// Batch form: requests group by owner shard, each group runs as one
  /// merged HandleBatch against that shard's pinned snapshot; responses
  /// return in `uids` order.
  std::vector<PredictionResponse> HandleBatch(
      const std::vector<UserId>& uids);

 private:
  const ShardRouter* router_;
  std::vector<PredictionServer*> shards_;
};

}  // namespace turbo::server
