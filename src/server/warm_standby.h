// Warm standby for one BN shard (DESIGN.md §14 "Replication &
// failover"): continuously replays a shipped copy of the primary's
// durability directory (storage::ShipWalDir) so failover is a promote,
// not a cold rebuild.
//
// State machine:
//   waiting    — the replica directory has no shipped state yet.
//   replaying  — Bootstrap ran Recover() over the shipped checkpoint +
//                delta chain + WAL prefix; each CatchUp() runs the
//                server's own WAL replay loop (BnServer::ReplayWal) over
//                the records shipped since, so the standby is
//                bit-identical to the primary at its applied record
//                count. Lock-free reads (sampling, snapshots) are
//                served the whole time.
//   promoted   — Promote() handed the replica directory to the server
//                (BnServer::AdoptWalDir: the last shipped records are
//                applied, a torn tail left by the dead primary is
//                truncated to its valid prefix, and a fresh segment
//                opens) and handed out the server. New writes are
//                durable; the next Checkpoint() writes a full base.
//
// Replay edge cases (tests/storage/wal_ship_test.cc,
// tests/server/warm_standby_test.cc):
//  * Torn final segment mid-ship: the valid prefix is applied and the
//    standby *waits* — the next ship completes the record. Nothing is
//    truncated while the primary may still be writing.
//  * Re-shipped duplicate segment: the replay cursor's applied-record
//    count makes reapplication a no-op.
//  * Sequence gap: records are lost (or the standby fell behind a
//    checkpoint rotation) — CatchUp fails loudly; Rebootstrap() starts
//    over from the shipped checkpoint.
//
// Threading: CatchUp/Promote/Rebootstrap are one-writer operations and
// must not run concurrently with the shipper writing replica_dir.
// Reads through server() are lock-free as on any BnServer.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "server/bn_server.h"

namespace turbo::server {

struct WarmStandbyConfig {
  /// The primary's config (the checkpoint fingerprint must match).
  /// `wal_dir` is ignored — the standby itself never writes a WAL
  /// until promoted.
  BnServerConfig server;
  /// Directory the shipper mirrors the primary's wal_dir into.
  std::string replica_dir;
  /// Shard index used in this standby's metric names
  /// (bn_replica_shard<i>_*).
  int shard_index = 0;
  /// Registry for replication lag/progress metrics. Not owned; null =
  /// a private registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class WarmStandby {
 public:
  explicit WarmStandby(WarmStandbyConfig config);

  /// Bootstraps from the shipped checkpoint/WAL when state first
  /// appears, then applies every record shipped since the last call.
  /// OK while waiting or when nothing new arrived. Fails on a sequence
  /// gap, a torn non-final segment, or a shrunken segment — after
  /// which Rebootstrap() is the way back.
  Status CatchUp();

  /// Drops all replayed state and bootstraps afresh from the currently
  /// shipped files (the recovery path for a standby that fell behind a
  /// checkpoint rotation).
  Status Rebootstrap();

  /// Adopts replica_dir as the live WAL (applying the last shipped
  /// records and truncating a torn tail left by the dead primary) and
  /// returns the now-primary server. The WarmStandby keeps ownership;
  /// CatchUp and Rebootstrap refuse to run after this.
  Result<BnServer*> Promote();

  bool bootstrapped() const { return server_ != nullptr; }
  bool promoted() const { return promoted_; }
  /// Segment currently being consumed and records applied from it: the
  /// server's replay cursor, (0, 0) while waiting.
  uint64_t applied_seq() const {
    return server_ != nullptr ? server_->replay_seq() : 0;
  }
  size_t applied_records() const {
    return server_ != nullptr ? server_->replay_records() : 0;
  }
  /// Total records applied since construction (bootstrap + catch-up).
  uint64_t records_applied_total() const;

  /// The replaying (or promoted) server; null while waiting. Reads are
  /// lock-free; do not mutate through this before Promote().
  BnServer* server() { return server_.get(); }
  const BnServer* server() const { return server_.get(); }

  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  Status Bootstrap();

  WarmStandbyConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* applied_seq_g_ = nullptr;
  obs::Gauge* applied_records_g_ = nullptr;
  obs::Counter* records_total_ = nullptr;
  obs::Counter* bootstraps_ = nullptr;
  obs::Histogram* catchup_ms_ = nullptr;

  std::unique_ptr<BnServer> server_;
  bool promoted_ = false;
};

}  // namespace turbo::server
