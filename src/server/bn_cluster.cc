#include "server/bn_cluster.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace turbo::server {

// --- LocalShardHandle -------------------------------------------------

void LocalShardHandle::Ingest(const BehaviorLog& log) {
  server_->Ingest(log);
}
bool LocalShardHandle::OfferIngest(const BehaviorLog& log) {
  return server_->OfferIngest(log);
}
size_t LocalShardHandle::DrainIngest(size_t max_events) {
  return server_->DrainIngest(max_events);
}
size_t LocalShardHandle::ingest_queue_depth() {
  return server_->ingest_queue_depth();
}
void LocalShardHandle::AdvanceTo(SimTime now) { server_->AdvanceTo(now); }
Status LocalShardHandle::Checkpoint() {
  TURBO_CHECK_MSG(!dir_.empty(),
                  "LocalShardHandle::Checkpoint requires a shard dir");
  return server_->Checkpoint(dir_);
}
Status LocalShardHandle::Recover() {
  TURBO_CHECK_MSG(!dir_.empty(),
                  "LocalShardHandle::Recover requires a shard dir");
  return server_->Recover(dir_);
}
bn::Subgraph LocalShardHandle::SampleSubgraph(UserId uid) {
  return server_->SampleSubgraph(uid);
}
uint64_t LocalShardHandle::snapshot_version() {
  return server_->snapshot_version();
}
SimTime LocalShardHandle::now() { return server_->now(); }
uint64_t LocalShardHandle::TotalEdges() {
  return server_->edges().TotalEdges();
}

// --- BnCluster --------------------------------------------------------

BnCluster::BnCluster(BnClusterConfig config)
    : config_(std::move(config)),
      router_([&] {
        bn::ShardTopology t = config_.shard.bn.topology;
        t.shard_count = config_.num_shards;
        return ShardRouter(t);
      }()) {
  TURBO_CHECK_GT(config_.num_shards, 0);
  shards_.reserve(config_.num_shards);
  handles_.reserve(config_.num_shards);
  for (int i = 0; i < config_.num_shards; ++i) {
    BnServerConfig shard = config_.shard;
    shard.bn.topology = router_.TopologyForShard(i);
    shard.metrics = nullptr;  // private registry per shard
    shard.wal_dir = config_.wal_root.empty()
                        ? std::string()
                        : ShardDir(config_.wal_root, i);
    const std::string dir = shard.wal_dir;
    shards_.push_back(std::make_unique<BnServer>(std::move(shard)));
    handles_.push_back(
        std::make_unique<LocalShardHandle>(shards_.back().get(), dir));
  }
  InitCommon();
}

BnCluster::BnCluster(BnClusterConfig config,
                     std::vector<std::unique_ptr<ShardHandle>> handles)
    : config_(std::move(config)),
      router_([&] {
        bn::ShardTopology t = config_.shard.bn.topology;
        t.shard_count = static_cast<int>(handles.size());
        return ShardRouter(t);
      }()),
      handles_(std::move(handles)) {
  TURBO_CHECK_MSG(!handles_.empty(),
                  "handle-mode BnCluster needs at least one shard");
  config_.num_shards = static_cast<int>(handles_.size());
  InitCommon();
}

void BnCluster::InitCommon() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  ingest_events_ = metrics_->GetCounter("bn_cluster_ingest_events_total");
  forwarded_ = metrics_->GetCounter("bn_cluster_forwarded_total");
  offer_rejected_ = metrics_->GetCounter("bn_cluster_offer_rejected_total");
  epoch_g_ = metrics_->GetGauge("bn_cluster_epoch");
  const int n = num_shards();
  for (int i = 0; i < n; ++i) {
    shard_version_g_.push_back(metrics_->GetGauge(
        obs::ShardMetricName("bn_cluster", i, "snapshot_version")));
    shard_edges_g_.push_back(metrics_->GetGauge(
        obs::ShardMetricName("bn_cluster", i, "edges")));
  }
  if (config_.advance_threads > 1 && n > 1) {
    advance_pool_ = std::make_unique<util::ThreadPool>(
        std::min(config_.advance_threads, n));
  }
}

std::string BnCluster::ShardDir(const std::string& root, int i) {
  return StrFormat("%s/shard-%04d", root.c_str(), i);
}

void BnCluster::Ingest(const BehaviorLog& log) {
  const ShardRoute route = router_.Route(log);
  handles_[route.user_shard]->Ingest(log);
  ingest_events_->Increment();
  if (route.forwarded()) {
    handles_[route.value_shard]->Ingest(log);
    forwarded_->Increment();
  }
}

void BnCluster::IngestBatch(const BehaviorLogList& logs) {
  for (const BehaviorLog& log : logs) Ingest(log);
}

bool BnCluster::OfferIngest(const BehaviorLog& log) {
  const ShardRoute route = router_.Route(log);
  bool admitted = handles_[route.user_shard]->OfferIngest(log);
  if (route.forwarded()) {
    // Independent admission per shard: a shed forward loses that
    // value's edges for this log (overload semantics), never the home
    // copy's feature history.
    admitted = handles_[route.value_shard]->OfferIngest(log) && admitted;
  }
  if (!admitted) offer_rejected_->Increment();
  return admitted;
}

size_t BnCluster::DrainIngest(size_t max_events_per_shard) {
  size_t applied = 0;
  for (auto& handle : handles_) {
    applied += handle->DrainIngest(max_events_per_shard);
  }
  return applied;
}

size_t BnCluster::ingest_queue_depth() const {
  size_t depth = 0;
  for (const auto& handle : handles_) depth += handle->ingest_queue_depth();
  return depth;
}

void BnCluster::AdvanceTo(SimTime now) {
  if (advance_pool_ != nullptr) {
    advance_pool_->ParallelFor(handles_.size(), 1,
                               [&](size_t begin, size_t end) {
                                 for (size_t i = begin; i < end; ++i) {
                                   handles_[i]->AdvanceTo(now);
                                 }
                               });
  } else {
    for (auto& handle : handles_) handle->AdvanceTo(now);
  }
  // All shards arrived: the epoch is complete and the per-shard gauges
  // describe one consistent cluster time.
  ++epoch_;
  epoch_g_->Set(static_cast<double>(epoch_));
  for (size_t i = 0; i < handles_.size(); ++i) {
    shard_version_g_[i]->Set(
        static_cast<double>(handles_[i]->snapshot_version()));
    shard_edges_g_[i]->Set(
        static_cast<double>(handles_[i]->TotalEdges()));
  }
}

Status BnCluster::Checkpoint() {
  if (local()) {
    TURBO_CHECK_MSG(!config_.wal_root.empty(),
                    "BnCluster::Checkpoint requires wal_root");
  }
  for (auto& handle : handles_) {
    TURBO_RETURN_IF_ERROR(handle->Checkpoint());
  }
  return Status::OK();
}

Status BnCluster::Recover() {
  if (local()) {
    TURBO_CHECK_MSG(!config_.wal_root.empty(),
                    "BnCluster::Recover requires wal_root");
  }
  for (auto& handle : handles_) {
    TURBO_RETURN_IF_ERROR(handle->Recover());
  }
  return Status::OK();
}

bn::Subgraph BnCluster::SampleSubgraph(UserId uid) const {
  return HandleForUser(uid).SampleSubgraph(uid);
}

uint64_t BnCluster::snapshot_version_for(UserId uid) const {
  return HandleForUser(uid).snapshot_version();
}

ClusterPredictionRouter::ClusterPredictionRouter(
    const ShardRouter* router, std::vector<PredictionServer*> shards)
    : router_(router), shards_(std::move(shards)) {
  TURBO_CHECK_EQ(static_cast<int>(shards_.size()),
                 router_->num_shards());
}

PredictionResponse ClusterPredictionRouter::Handle(UserId uid) {
  return shards_[router_->OwnerOfUser(uid)]->Handle(uid);
}

std::vector<PredictionResponse> ClusterPredictionRouter::HandleBatch(
    const std::vector<UserId>& uids) {
  // Group by owner shard, preserving arrival order within a group, then
  // scatter each group's merged-batch responses back to request slots.
  std::vector<std::vector<UserId>> group_uids(shards_.size());
  std::vector<std::vector<size_t>> group_slots(shards_.size());
  for (size_t i = 0; i < uids.size(); ++i) {
    const int owner = router_->OwnerOfUser(uids[i]);
    group_uids[owner].push_back(uids[i]);
    group_slots[owner].push_back(i);
  }
  std::vector<PredictionResponse> responses(uids.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (group_uids[s].empty()) continue;
    std::vector<PredictionResponse> batch =
        shards_[s]->HandleBatch(group_uids[s]);
    for (size_t i = 0; i < batch.size(); ++i) {
      responses[group_slots[s][i]] = std::move(batch[i]);
    }
  }
  return responses;
}

}  // namespace turbo::server
