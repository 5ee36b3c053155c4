#include "server/warm_standby.h"

#include <filesystem>
#include <utility>

#include "storage/wal.h"
#include "util/string_util.h"
#include "util/time_util.h"

namespace turbo::server {

namespace fs = std::filesystem;

WarmStandby::WarmStandby(WarmStandbyConfig config)
    : config_(std::move(config)) {
  TURBO_CHECK_MSG(!config_.replica_dir.empty(),
                  "WarmStandby needs a replica directory");
  config_.server.wal_dir.clear();
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const int shard = config_.shard_index;
  applied_seq_g_ = metrics_->GetGauge(
      obs::ShardMetricName("bn_replica", shard, "applied_seq"));
  applied_records_g_ = metrics_->GetGauge(
      obs::ShardMetricName("bn_replica", shard, "applied_records"));
  records_total_ = metrics_->GetCounter(
      obs::ShardMetricName("bn_replica", shard, "records_applied_total"));
  bootstraps_ = metrics_->GetCounter(
      obs::ShardMetricName("bn_replica", shard, "bootstraps_total"));
  catchup_ms_ = metrics_->GetHistogram(
      obs::ShardMetricName("bn_replica", shard, "catchup_ms"));
}

uint64_t WarmStandby::records_applied_total() const {
  return records_total_->value();
}

Status WarmStandby::CatchUp() {
  TURBO_CHECK_MSG(!promoted_, "CatchUp after Promote");
  Stopwatch sw;
  Status s;
  uint64_t before = 0;
  if (server_ == nullptr) {
    // Bootstrap's Recover replays everything shipped so far.
    TURBO_RETURN_IF_ERROR(Bootstrap());
    if (server_ == nullptr) return Status::OK();  // still waiting
  } else {
    before = server_->records_replayed();
    s = server_->ReplayWal(config_.replica_dir);
  }
  records_total_->Increment(server_->records_replayed() - before);
  applied_seq_g_->Set(static_cast<double>(applied_seq()));
  applied_records_g_->Set(static_cast<double>(applied_records()));
  catchup_ms_->Observe(sw.ElapsedMillis());
  return s;
}

Status WarmStandby::Rebootstrap() {
  TURBO_CHECK_MSG(!promoted_, "Rebootstrap after Promote");
  server_.reset();
  return CatchUp();
}

Status WarmStandby::Bootstrap() {
  const std::string& dir = config_.replica_dir;
  const bool have_ckpt = fs::exists(dir + "/checkpoint.bin");
  const bool have_wal = !storage::ListWalSegments(dir).empty();
  if (!have_ckpt && !have_wal) return Status::OK();  // nothing shipped
  auto server = std::make_unique<BnServer>(config_.server);
  TURBO_RETURN_IF_ERROR(server->Recover(dir));
  // With an empty wal_dir, Recover replayed the shipped history without
  // truncating a torn tail or opening a writer — exactly the standby
  // posture — and left the replay cursor after the last applied record.
  if (server->replay_seq() == 0) {
    return Status::FailedPrecondition(
        "replica checkpoint was written without a WAL — nothing can be "
        "shipped after it");
  }
  server_ = std::move(server);
  bootstraps_->Increment();
  return Status::OK();
}

Result<BnServer*> WarmStandby::Promote() {
  TURBO_CHECK_MSG(!promoted_, "Promote is one-shot");
  if (server_ == nullptr) {
    return Status::FailedPrecondition(
        "nothing was shipped — cannot promote an empty standby");
  }
  // Adopting the replica applies whatever already arrived and seals a
  // torn tail: the primary is declared dead, so its bytes are ours.
  const uint64_t before = server_->records_replayed();
  TURBO_RETURN_IF_ERROR(server_->AdoptWalDir(config_.replica_dir));
  records_total_->Increment(server_->records_replayed() - before);
  promoted_ = true;
  return server_.get();
}

}  // namespace turbo::server
