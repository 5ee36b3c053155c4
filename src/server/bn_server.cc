#include "server/bn_server.h"

#include <algorithm>
#include <filesystem>

#include "storage/checkpoint_io.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/time_util.h"

namespace turbo::server {

namespace {

constexpr char kCheckpointFile[] = "checkpoint.bin";
/// Version of the checkpoint *section contents* (the container format
/// has its own version in checkpoint_io). Version 2 added the "churn"
/// section and the row-group snapshot payload; version 3 added the
/// shard topology (count, index, partition seeds) to the meta
/// fingerprint so state taken under one cluster layout cannot be
/// recovered — or standby-replayed — under another; version 4 wrote a
/// full checkpoint's edges and snapshot in their delta form over an
/// empty base.
constexpr uint32_t kStateVersion = 4;

std::string CheckpointPath(const std::string& dir) {
  return dir + "/" + kCheckpointFile;
}

/// The seven sections of a full checkpoint ([0]) and of a delta link
/// ([1]). The writer emits them in any order: the container stores
/// sections sorted by name.
enum Section { kMeta, kServer, kEdges, kLogs, kBuckets, kSnapshot, kChurn };
constexpr const char* kSectionNames[2][7] = {
    {"meta", "server", "edges", "logs", "buckets", "snapshot", "churn"},
    {"meta", "server", "edges_delta", "logs_delta", "buckets_delta",
     "snapshot_delta", "churn"},
};

}  // namespace

BnServer::BnServer(BnServerConfig config)
    : config_(std::move(config)),
      builder_(config_.bn, &edges_),
      last_job_end_(config_.bn.windows.size(), 0) {
  TURBO_CHECK_GT(config_.num_users, 0);
  TURBO_CHECK_GT(config_.snapshot_refresh, 0);
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  ingest_events_ = metrics_->GetCounter("bn_ingest_events_total");
  ttl_expired_edges_ = metrics_->GetCounter("bn_ttl_expired_edges_total");
  snapshot_builds_ = metrics_->GetCounter("bn_snapshot_builds_total");
  samples_ = metrics_->GetCounter("bn_samples_total");
  snapshot_build_ms_ = metrics_->GetHistogram("bn_snapshot_build_ms");
  sample_ms_ = metrics_->GetHistogram("bn_sample_ms");
  sample_nodes_ = metrics_->GetHistogram(
      "bn_sample_subgraph_nodes", obs::Histogram::DefaultSizeBuckets());
  snapshot_version_g_ = metrics_->GetGauge("bn_snapshot_version");
  snapshot_edges_g_ = metrics_->GetGauge("bn_snapshot_edges");
  snapshot_bytes_g_ = metrics_->GetGauge("bn_snapshot_memory_bytes");
  snapshot_lag_s_ = metrics_->GetGauge("bn_snapshot_lag_s");
  ingest_lag_s_ = metrics_->GetGauge("bn_ingest_lag_s");
  sample_pinned_version_ =
      metrics_->GetGauge("bn_sample_pinned_snapshot_version");
  wal_records_ = metrics_->GetCounter("bn_wal_records_total");
  checkpoints_ = metrics_->GetCounter("bn_checkpoints_total");
  wal_replayed_records_ =
      metrics_->GetCounter("bn_wal_replayed_records_total");
  wal_bytes_g_ = metrics_->GetGauge("bn_wal_bytes");
  checkpoint_bytes_g_ = metrics_->GetGauge("bn_checkpoint_bytes");
  recovery_s_ = metrics_->GetGauge("bn_recovery_s");
  checkpoint_ms_ = metrics_->GetHistogram("bn_checkpoint_ms");
  snapshot_incrementals_ =
      metrics_->GetCounter("bn_snapshot_incremental_total");
  snapshot_full_rebuilds_ =
      metrics_->GetCounter("bn_snapshot_full_rebuilds_total");
  snapshot_incremental_ms_ =
      metrics_->GetHistogram("bn_snapshot_incremental_ms");
  snapshot_touched_nodes_g_ = metrics_->GetGauge("bn_snapshot_touched_nodes");
  checkpoints_delta_ = metrics_->GetCounter("bn_checkpoints_delta_total");
  checkpoint_delta_bytes_g_ =
      metrics_->GetGauge("bn_checkpoint_delta_bytes");
  checkpoint_chain_len_g_ = metrics_->GetGauge("bn_checkpoint_chain_len");
  ingest_rejected_ = metrics_->GetCounter("bn_ingest_rejected_total");
  ingest_queued_ = metrics_->GetCounter("bn_ingest_queued_total");
  ingest_queue_depth_g_ = metrics_->GetGauge("bn_ingest_queue_depth");
  if (config_.ingest_queue_capacity > 0) {
    ingest_ring_ = std::make_unique<util::MpscRing<BehaviorLog>>(
        config_.ingest_queue_capacity);
  }
  if (config_.window_job_threads != 1) {
    job_pool_ =
        std::make_unique<util::ThreadPool>(config_.window_job_threads);
  }
  builder_.SetThreadPool(job_pool_.get());
  builder_.SetMetrics(metrics_);
}

void BnServer::EnsureWalOpen() {
  // A failed rotation leaves the writer closed with durable state in the
  // dir; the fresh-start check below would then misreport the cause.
  TURBO_CHECK_MSG(wal_error_.empty(),
                  "WAL is broken after a failed segment rotation ("
                      << wal_error_ << "); restart and Recover()");
  recovered_or_started_ = true;
  if (config_.wal_dir.empty() || wal_replaying_ || wal_writer_.is_open()) {
    return;
  }
  std::filesystem::create_directories(config_.wal_dir);
  // A fresh start must not write next to an earlier incarnation's state:
  // new records interleaved with old segments would be unreplayable.
  TURBO_CHECK_MSG(
      storage::ListWalSegments(config_.wal_dir).empty() &&
          storage::ListCheckpointDeltas(config_.wal_dir).empty() &&
          !std::filesystem::exists(CheckpointPath(config_.wal_dir)),
      "wal_dir '" << config_.wal_dir
                  << "' contains existing WAL/checkpoint state; call "
                     "Recover() before the first Ingest/AdvanceTo");
  const Status s = OpenWalSegment(1);
  TURBO_CHECK_MSG(s.ok(), "cannot open WAL: " << s.ToString());
}

Status BnServer::OpenWalSegment(uint64_t seq) {
  TURBO_CHECK(!config_.wal_dir.empty());
  Status s = wal_writer_.Close();
  if (s.ok()) {
    s = wal_writer_.Open(config_.wal_dir, seq, config_.wal, Fingerprint());
  }
  if (!s.ok()) {
    wal_error_ = s.ToString();
    return s;
  }
  wal_bytes_g_->Set(static_cast<double>(wal_writer_.bytes_written()));
  return Status::OK();
}

void BnServer::WalAppend(const storage::WalRecord& record) {
  if (!wal_writer_.is_open() || wal_replaying_) return;
  const Status s = wal_writer_.Append(record);
  TURBO_CHECK_MSG(s.ok(), "WAL append failed: " << s.ToString());
  wal_records_->Increment();
  wal_bytes_g_->Set(static_cast<double>(wal_writer_.bytes_written()));
}

void BnServer::Ingest(const BehaviorLog& log) {
  TURBO_CHECK_LT(log.uid, static_cast<UserId>(config_.num_users));
  TURBO_CHECK_MSG(log.time >= 0, "negative timestamp "
                                     << log.time << " for uid " << log.uid
                                     << "; logs must use t >= 0");
  EnsureWalOpen();
  // Log-ahead: the record is in the WAL (at least buffered; durable per
  // the fsync policy) before the in-memory apply, so replay can only see
  // a prefix of applied mutations, never a mutation the WAL missed.
  WalAppend(storage::WalRecord::Ingest(log));
  logs_.Append(log);
  // Once a delta-eligible base checkpoint exists, the next delta's
  // logs_delta section is exactly the logs appended since the last
  // checkpoint. WAL replay runs through here too, which is correct:
  // every replayed ingest postdates the recovered checkpoint chain.
  if (have_ckpt_base_) pending_log_tail_.push_back(log);
  ingest_events_->Increment();
}

void BnServer::IngestBatch(const BehaviorLogList& logs) {
  for (const auto& l : logs) Ingest(l);
}

bool BnServer::OfferIngest(const BehaviorLog& log) {
  TURBO_CHECK_MSG(ingest_ring_ != nullptr,
                  "OfferIngest requires ingest_queue_capacity > 0");
  if (!ingest_ring_->TryPush(log)) {
    ingest_rejected_->Increment();
    return false;
  }
  ingest_queued_->Increment();
  ingest_queue_depth_g_->Set(
      static_cast<double>(ingest_ring_->size_approx()));
  return true;
}

size_t BnServer::DrainIngest(size_t max_events) {
  TURBO_CHECK_MSG(ingest_ring_ != nullptr,
                  "DrainIngest requires ingest_queue_capacity > 0");
  size_t applied = 0;
  BehaviorLog log;
  while (applied < max_events && ingest_ring_->TryPop(&log)) {
    Ingest(log);
    ++applied;
  }
  if (applied > 0) {
    ingest_queue_depth_g_->Set(
        static_cast<double>(ingest_ring_->size_approx()));
  }
  return applied;
}

size_t BnServer::ingest_queue_depth() const {
  return ingest_ring_ != nullptr ? ingest_ring_->size_approx() : 0;
}

void BnServer::AdvanceTo(SimTime now) {
  TURBO_CHECK_GE(now, now_.load(std::memory_order_relaxed));
  EnsureWalOpen();
  WalAppend(storage::WalRecord::Advance(now));
  if (wal_writer_.is_open() && !wal_replaying_) {
    // A clock advance is the consistency point replay resumes from, so
    // force the group-commit buffer out (fsync per policy) even when the
    // record thresholds have not tripped yet.
    const Status s = wal_writer_.Flush();
    TURBO_CHECK_MSG(s.ok(), "WAL flush failed: " << s.ToString());
  }
  now_.store(now, std::memory_order_relaxed);
  // Run every completed epoch of every window since its last run; a
  // catch-up after a long gap replays history hour by hour.
  jobs_run_ += builder_.RunDueJobs(logs_, now, &last_job_end_);
  // How far the slowest window's job frontier trails the server clock.
  ingest_lag_s_->Set(static_cast<double>(
      now - *std::min_element(last_job_end_.begin(), last_job_end_.end())));
  // Daily TTL sweep.
  while (last_expiry_ + kDay <= now) {
    last_expiry_ += kDay;
    const size_t expired = builder_.ExpireOld(last_expiry_);
    edges_expired_ += expired;
    ttl_expired_edges_->Increment(expired);
  }
  // Fold the jobs' and sweep's churn into the publish/checkpoint scopes
  // before the refresh below consumes the publish-scoped set.
  AccumulateChurn();
  if (last_snapshot_ < 0 ||
      now - last_snapshot_ >= config_.snapshot_refresh) {
    RefreshSnapshot();
  }
  // Published-version staleness relative to the server clock; the paper's
  // refresh jobs run asynchronously to the request path, so this is how
  // far behind the serving graph can be.
  snapshot_lag_s_->Set(static_cast<double>(now - last_snapshot_));
}

void BnServer::AccumulateChurn() {
  storage::EdgeChurn churn = builder_.TakeChurn();
  if (churn.Empty()) return;
  snapshot_churn_.MergeFrom(churn);
  if (have_ckpt_base_) checkpoint_churn_.MergeFrom(churn);
}

void BnServer::RefreshSnapshot() {
  // Build off to the side, then publish with one atomic pointer swap.
  // Readers that loaded the previous snapshot keep serving from it; its
  // memory is reclaimed when the last of them drops the shared_ptr.
  bn::SnapshotOptions options;
  options.normalize = true;
  options.num_threads = config_.snapshot_build_threads;
  auto prev = snapshot_.load(std::memory_order_acquire);
  // Patch the previous snapshot when the churn is small; both paths
  // produce bit-identical snapshots, so this is purely a latency choice.
  // Past this fraction of all (type, node) rows churned, rebuilding
  // wholesale is cheaper than patching group by group.
  constexpr double kSnapshotFullRebuildFraction = 0.25;
  const size_t total_rows =
      static_cast<size_t>(config_.num_users) * kNumEdgeTypes;
  const bool incremental =
      config_.incremental_snapshots && prev != nullptr &&
      static_cast<double>(snapshot_churn_.TotalTouched()) <=
          kSnapshotFullRebuildFraction *
              static_cast<double>(total_rows);
  Stopwatch build_sw;
  std::shared_ptr<const bn::BnSnapshot> next;
  if (incremental) {
    bn::BnSnapshot::ApplyStats stats;
    next = bn::BnSnapshot::ApplyDeltas(prev, edges_, snapshot_churn_,
                                       options, ++next_version_, &stats);
    snapshot_incremental_ms_->Observe(build_sw.ElapsedMillis());
    snapshot_touched_nodes_g_->Set(
        static_cast<double>(stats.touched_rows));
    snapshot_incrementals_->Increment();
  } else {
    next = bn::BnSnapshot::Build(edges_, config_.num_users, options,
                                 ++next_version_);
    snapshot_build_ms_->Observe(build_sw.ElapsedMillis());
    snapshot_full_rebuilds_->Increment();
  }
  snapshot_builds_->Increment();
  snapshot_churn_.Clear();
  snapshot_version_g_->Set(static_cast<double>(next->version()));
  snapshot_edges_g_->Set(static_cast<double>(next->TotalEdges()));
  snapshot_bytes_g_->Set(static_cast<double>(next->MemoryBytes()));
  snapshot_.store(std::move(next), std::memory_order_release);
  last_snapshot_ = now_.load(std::memory_order_relaxed);
}

std::string BnServer::Fingerprint() const {
  storage::BinaryWriter meta;
  meta.U32(kStateVersion);
  meta.I64(config_.num_users);
  meta.U64(config_.bn.windows.size());
  for (SimTime w : config_.bn.windows) meta.I64(w);
  meta.I64(config_.bn.edge_ttl);
  meta.U8(config_.bn.inverse_weighting ? 1 : 0);
  meta.I64(config_.bn.max_bucket_users);
  meta.U64(config_.bn.bucket_sample_seed);
  meta.I64(config_.snapshot_refresh);
  const bn::ShardTopology& topo = config_.bn.topology;
  meta.U32(static_cast<uint32_t>(topo.shard_count));
  meta.U32(static_cast<uint32_t>(topo.shard_index));
  meta.U64(topo.user_seed);
  meta.U64(topo.value_seed);
  return meta.data();
}

Status BnServer::CheckFingerprint(std::string_view fingerprint) const {
  storage::BinaryReader reader(fingerprint);
  const uint32_t state_version = reader.U32();
  if (state_version != kStateVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported state version %u", state_version));
  }
  // Everything that shapes the deterministic engine's output must
  // match the running config, or "recovered" state would silently
  // diverge from what this server will compute going forward.
  if (fingerprint != Fingerprint()) {
    return Status::FailedPrecondition(
        "state was written under a different BN config "
        "(users/windows/ttl/weighting/seed/refresh and the shard "
        "topology must match)");
  }
  return Status::OK();
}

Status BnServer::CheckLog(const BehaviorLog& log) const {
  if (log.uid >= static_cast<UserId>(config_.num_users)) {
    return Status::InvalidArgument(
        StrFormat("uid %u out of range: the server has %d users",
                  static_cast<unsigned>(log.uid), config_.num_users));
  }
  if (log.time < 0) {
    return Status::InvalidArgument(
        StrFormat("negative timestamp %lld for uid %u",
                  static_cast<long long>(log.time),
                  static_cast<unsigned>(log.uid)));
  }
  return Status::OK();
}

void BnServer::ResetChainTrackers(uint64_t covered_seq) {
  last_ckpt_seq_ = covered_seq;
  last_ckpt_snapshot_ = snapshot_.load(std::memory_order_acquire);
  last_ckpt_cache_max_epoch_ = builder_.MaxCachedEpoch();
  checkpoint_churn_.Clear();
  pending_log_tail_.clear();
}

storage::CheckpointWriter BnServer::BuildCheckpoint(
    storage::CheckpointKind kind, uint64_t covered_seq) const {
  // A full checkpoint is the link whose base is empty: no parent, no
  // edges, no cached epochs, no snapshot. Only the logs section keeps a
  // bulk encoder, because the recovery floor rests on it.
  const bool delta = kind == storage::CheckpointKind::kDelta;
  const auto& names = kSectionNames[delta];
  storage::CheckpointWriter writer;
  writer.SetChain(kind, covered_seq, delta ? last_ckpt_seq_ : 0);
  const std::string fingerprint = Fingerprint();
  storage::BinaryWriter meta;
  meta.Bytes(fingerprint.data(), fingerprint.size());
  writer.AddSection(names[kMeta], meta);

  storage::BinaryWriter server;
  server.I64(now_.load(std::memory_order_relaxed));
  server.U64(covered_seq);
  server.U64(last_job_end_.size());
  for (SimTime t : last_job_end_) server.I64(t);
  server.I64(last_expiry_);
  server.I64(last_snapshot_);
  server.U64(next_version_);
  server.U64(jobs_run_);
  server.U64(edges_expired_);
  writer.AddSection(names[kServer], server);

  storage::BinaryWriter edges;
  storage::BinaryWriter logs;
  if (delta) {
    // Current rows of every node churned since the last checkpoint
    // (apply = clear-then-insert over the parent state), and the raw
    // logs appended since then (appends are order-deterministic).
    edges_.SerializeTouched(checkpoint_churn_, &edges);
    storage::EncodeLogBatch(pending_log_tail_, &logs);
  } else {
    edges_.SerializeTouched(edges_.AllRows(), &edges);
    logs_.Serialize(&logs);
  }
  writer.AddSection(names[kEdges], edges);
  writer.AddSection(names[kLogs], logs);

  // Cache epochs created since the base. Epochs evicted since then need
  // no record: recovery re-evicts with the recovered job frontiers,
  // which derive the same bound the writer used.
  storage::BinaryWriter buckets;
  builder_.SerializeCacheSince(delta ? last_ckpt_cache_max_epoch_ : 0,
                               &buckets);
  writer.AddSection(names[kBuckets], buckets);

  // A presence byte, then the published snapshot's row-group diff over
  // the base's (every group when the base has none). Absent when
  // nothing was published since the base, including "none yet".
  const auto base = delta ? last_ckpt_snapshot_ : nullptr;
  const auto published = snapshot_.load(std::memory_order_acquire);
  storage::BinaryWriter snap;
  snap.U8(published != base ? 1 : 0);
  if (published != base) published->SerializeDiff(base.get(), &snap);
  writer.AddSection(names[kSnapshot], snap);

  storage::BinaryWriter churn;
  snapshot_churn_.Serialize(&churn);
  writer.AddSection(names[kChurn], churn);
  return writer;
}

Status BnServer::Checkpoint(const std::string& dir) {
  const bool wal_on = !config_.wal_dir.empty();
  if (wal_on) {
    TURBO_CHECK_MSG(dir == config_.wal_dir,
                    "checkpoint dir '" << dir << "' must be wal_dir '"
                                       << config_.wal_dir
                                       << "' for WAL rotation");
    EnsureWalOpen();
  } else {
    recovered_or_started_ = true;
    std::filesystem::create_directories(dir);
  }
  Stopwatch sw;
  // The first segment whose records are NOT reflected in this
  // checkpoint; replay resumes here. 0 = checkpoint taken without a WAL.
  // Doubles as the file's covered_seq (rotation makes it strictly
  // increase checkpoint over checkpoint, so delta file names and chain
  // links never collide).
  const uint64_t next_seq = wal_on ? wal_writer_.seq() + 1 : 0;

  // Try a delta first when a base exists and the chain is not exhausted:
  // it is O(churn) to assemble. It is only written while its file stays
  // below this fraction of the last full checkpoint's bytes; otherwise
  // the checkpoint is written full (and the chain resets).
  constexpr double kDeltaCheckpointMaxFraction = 0.5;
  bool wrote_delta = false;
  if (wal_on && config_.delta_checkpoints && have_ckpt_base_ &&
      delta_chain_len_ < config_.max_delta_chain) {
    const storage::CheckpointWriter writer =
        BuildCheckpoint(storage::CheckpointKind::kDelta, next_seq);
    const size_t delta_bytes = writer.TotalBytes();
    if (static_cast<double>(delta_bytes) <=
        kDeltaCheckpointMaxFraction *
            static_cast<double>(last_full_ckpt_bytes_)) {
      TURBO_RETURN_IF_ERROR(
          writer.WriteFile(storage::CheckpointDeltaPath(dir, next_seq)));
      ++delta_chain_len_;
      checkpoints_delta_->Increment();
      checkpoint_delta_bytes_g_->Set(static_cast<double>(delta_bytes));
      checkpoint_bytes_g_->Set(static_cast<double>(delta_bytes));
      wrote_delta = true;
    }
  }

  if (!wrote_delta) {
    const storage::CheckpointWriter writer =
        BuildCheckpoint(storage::CheckpointKind::kFull, next_seq);
    TURBO_RETURN_IF_ERROR(writer.WriteFile(CheckpointPath(dir)));
    // The new base supersedes every delta (including stale ones left by
    // a crash between an earlier full checkpoint and this cleanup).
    for (uint64_t seq : storage::ListCheckpointDeltas(dir)) {
      std::filesystem::remove(storage::CheckpointDeltaPath(dir, seq));
    }
    delta_chain_len_ = 0;
    last_full_ckpt_bytes_ = writer.TotalBytes();
    have_ckpt_base_ = wal_on && config_.delta_checkpoints;
    checkpoint_bytes_g_->Set(static_cast<double>(writer.TotalBytes()));
  }
  ResetChainTrackers(next_seq);
  checkpoint_chain_len_g_->Set(static_cast<double>(delta_chain_len_));

  if (wal_on) {
    // The checkpoint is durable: rotate to a fresh segment and drop the
    // ones it covers.
    TURBO_RETURN_IF_ERROR(OpenWalSegment(next_seq));
    for (uint64_t seq : storage::ListWalSegments(dir)) {
      if (seq < next_seq) {
        std::filesystem::remove(storage::WalSegmentPath(dir, seq));
      }
    }
  }
  checkpoints_->Increment();
  checkpoint_ms_->Observe(sw.ElapsedMillis());
  return Status::OK();
}

Status BnServer::ApplyCheckpoint(const storage::CheckpointReader& reader,
                                 uint64_t* start_seq) {
  const bool delta = reader.kind() == storage::CheckpointKind::kDelta;
  const auto& names = kSectionNames[delta];
  for (const char* name : names) {
    if (!reader.Has(name)) {
      return Status::InvalidArgument(
          StrFormat("checkpoint missing section '%s'", name));
    }
  }
  TURBO_RETURN_IF_ERROR(CheckFingerprint(reader.Find(names[kMeta])));
  // Every section must decode to its last byte.
  const auto decode = [&](Section section, const auto& fn) -> Status {
    storage::BinaryReader r(reader.Find(names[section]));
    TURBO_RETURN_IF_ERROR(fn(&r));
    if (!r.ok() || r.remaining() != 0) {
      return Status::InvalidArgument(StrFormat(
          "corrupt checkpoint section '%s': trailing or missing bytes",
          names[section]));
    }
    return Status::OK();
  };
  TURBO_RETURN_IF_ERROR(decode(kServer, [&](storage::BinaryReader* server) {
    const SimTime saved_now = server->I64();
    *start_seq = server->U64();
    const uint64_t num_frontiers = server->U64();
    if (num_frontiers != last_job_end_.size()) {
      return Status::InvalidArgument("checkpoint frontier count mismatch");
    }
    for (SimTime& t : last_job_end_) t = server->I64();
    last_expiry_ = server->I64();
    last_snapshot_ = server->I64();
    next_version_ = server->U64();
    jobs_run_ = server->U64();
    edges_expired_ = server->U64();
    now_.store(saved_now, std::memory_order_relaxed);
    return Status::OK();
  }));
  const auto num_users = static_cast<UserId>(config_.num_users);
  // A full section is the delta over the fresh server's empty store.
  TURBO_RETURN_IF_ERROR(decode(kEdges, [&](storage::BinaryReader* edges) {
    return edges_.ApplyDeltaSection(edges, num_users);
  }));
  TURBO_RETURN_IF_ERROR(decode(kLogs, [&](storage::BinaryReader* logs) {
    if (!delta) return logs_.Deserialize(logs, num_users);
    // Appended directly, not through Ingest: replayed logs must not
    // hit the WAL or the since-last-checkpoint tail — they are
    // already durable in the chain being applied.
    BehaviorLogList tail;
    TURBO_RETURN_IF_ERROR(storage::DecodeLogBatch(logs, &tail));
    for (const BehaviorLog& log : tail) {
      TURBO_RETURN_IF_ERROR(CheckLog(log));
      logs_.Append(log);
    }
    return Status::OK();
  }));
  TURBO_RETURN_IF_ERROR(decode(kBuckets, [&](storage::BinaryReader* buckets) {
    return builder_.DeserializeCacheDelta(buckets, num_users);
  }));
  // A delta carries only epochs cached since its parent; epochs the
  // writer *evicted* in that span leave no record. Re-evicting with the
  // just-decoded frontiers reproduces the writer's bound exactly (it
  // evicts with min(last_job_end_) after every job too); after a full
  // load it removes nothing.
  if (!last_job_end_.empty()) {
    builder_.EvictCachedBuckets(
        *std::min_element(last_job_end_.begin(), last_job_end_.end()));
  }
  TURBO_RETURN_IF_ERROR(decode(kSnapshot, [&](storage::BinaryReader* snap) {
    // Present: a diff over the current snapshot, which is none while
    // the base is read, so there the diff must hold every group.
    const uint8_t present = snap->U8();
    if (!snap->ok() || present > 1) {
      return Status::InvalidArgument("corrupt checkpoint snapshot section");
    }
    if (present == 0) return Status::OK();
    auto snapshot_or = bn::BnSnapshot::DeserializePatched(
        snapshot_.load(std::memory_order_acquire), snap);
    if (!snapshot_or.ok()) return snapshot_or.status();
    auto restored = snapshot_or.take();
    // The meta section pins num_users, so a mismatched node count in
    // a CRC-valid snapshot can only be corruption.
    if (restored->num_nodes() != config_.num_users) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint snapshot has %d nodes but the server is "
          "configured for %d users",
          restored->num_nodes(), config_.num_users));
    }
    snapshot_version_g_->Set(static_cast<double>(restored->version()));
    snapshot_edges_g_->Set(static_cast<double>(restored->TotalEdges()));
    snapshot_bytes_g_->Set(static_cast<double>(restored->MemoryBytes()));
    snapshot_.store(std::move(restored), std::memory_order_release);
    return Status::OK();
  }));
  // Full replacement, not a merge: the section is the writer's entire
  // since-last-publish set at checkpoint time.
  return decode(kChurn, [&](storage::BinaryReader* churn) {
    return snapshot_churn_.Deserialize(churn, num_users);
  });
}

Status BnServer::Recover(const std::string& dir) {
  TURBO_CHECK_MSG(
      !recovered_or_started_ && logs_.size() == 0 && jobs_run_ == 0 &&
          now_.load(std::memory_order_relaxed) == 0,
      "Recover() must run on a freshly constructed server, before any "
      "Ingest/AdvanceTo");
  TURBO_CHECK_MSG(config_.wal_dir.empty() || config_.wal_dir == dir,
                  "Recover dir must be wal_dir when the WAL is enabled");
  recovered_or_started_ = true;
  Stopwatch sw;
  // The first WAL segment not covered by the checkpoint chain: 1 when
  // starting from WAL only, 0 (no tail) after a checkpoint written
  // with the WAL disabled.
  uint64_t start_seq = 1;
  bool checkpoint_loaded = false;
  uint64_t chain_tail_seq = 0;  // covered_seq of the last applied link
  int chain_links = 0;
  if (std::filesystem::exists(CheckpointPath(dir))) {
    auto reader_or = storage::CheckpointReader::Open(CheckpointPath(dir));
    if (!reader_or.ok()) return reader_or.status();
    const storage::CheckpointReader& reader = reader_or.value();
    if (reader.kind() != storage::CheckpointKind::kFull) {
      return Status::InvalidArgument(
          "checkpoint.bin is not a full checkpoint");
    }
    TURBO_RETURN_IF_ERROR(ApplyCheckpoint(reader, &start_seq));
    checkpoint_loaded = true;
    chain_tail_seq = reader.covered_seq();
  }

  // Apply the delta chain in covered_seq order. Deltas at or below the
  // base's covered_seq are stale leftovers of a crash between a newer
  // full checkpoint's publish and its delta cleanup — skipped here,
  // deleted at the next full checkpoint.
  const std::vector<uint64_t> delta_seqs =
      storage::ListCheckpointDeltas(dir);
  if (!checkpoint_loaded && !delta_seqs.empty()) {
    return Status::Internal(
        "delta checkpoints present without a base checkpoint.bin");
  }
  for (uint64_t seq : delta_seqs) {
    if (seq <= chain_tail_seq) continue;
    auto delta_or = storage::CheckpointReader::Open(
        storage::CheckpointDeltaPath(dir, seq));
    if (!delta_or.ok()) return delta_or.status();
    const storage::CheckpointReader& delta = delta_or.value();
    if (delta.kind() != storage::CheckpointKind::kDelta ||
        delta.covered_seq() != seq) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint-delta-%08llu.bin has an inconsistent chain header",
          static_cast<unsigned long long>(seq)));
    }
    if (delta.parent_seq() != chain_tail_seq) {
      return Status::Internal(StrFormat(
          "broken delta chain: delta %llu expects parent %llu but the "
          "chain tail is %llu",
          static_cast<unsigned long long>(seq),
          static_cast<unsigned long long>(delta.parent_seq()),
          static_cast<unsigned long long>(chain_tail_seq)));
    }
    TURBO_RETURN_IF_ERROR(ApplyCheckpoint(delta, &start_seq));
    chain_tail_seq = seq;
    ++chain_links;
  }

  // Capture the chain trackers *before* WAL replay: replayed ingests and
  // advances then re-accumulate the since-last-checkpoint state (log
  // tail, churn) through the normal paths, exactly as the writer did.
  if (checkpoint_loaded && !config_.wal_dir.empty() &&
      config_.delta_checkpoints) {
    have_ckpt_base_ = true;
    delta_chain_len_ = chain_links;
    std::error_code ec;
    const auto base_bytes =
        std::filesystem::file_size(CheckpointPath(dir), ec);
    last_full_ckpt_bytes_ = ec ? 0 : static_cast<size_t>(base_bytes);
    ResetChainTrackers(chain_tail_seq);
    checkpoint_chain_len_g_->Set(static_cast<double>(delta_chain_len_));
  }

  replay_seq_ = start_seq;
  replay_records_ = 0;
  TURBO_RETURN_IF_ERROR(ReplayWal(dir));
  if (!config_.wal_dir.empty()) {
    TURBO_RETURN_IF_ERROR(OpenWalSegment(NextWalSeq(dir)));
  }
  recovery_s_->Set(sw.ElapsedSeconds());
  return Status::OK();
}

Status BnServer::ReplayWal(const std::string& dir) {
  // A server appending to its own WAL would apply its records twice.
  TURBO_CHECK_MSG(!wal_writer_.is_open(),
                  "ReplayWal on a server whose WAL writer is open");
  if (replay_seq_ == 0) return Status::OK();  // no WAL tail
  std::vector<uint64_t> seqs = storage::ListWalSegments(dir);
  std::erase_if(seqs, [&](uint64_t s) { return s < replay_seq_; });
  // The tail must begin exactly at the cursor's segment. A later first
  // segment means records between the cursor and it are gone: the
  // checkpoint rotation outran a standby, or files were lost. An empty
  // list is fine: a crash between checkpoint publish and rotation
  // leaves no uncovered segment.
  if (!seqs.empty() && seqs[0] != replay_seq_) {
    return Status::Internal(StrFormat(
        "replication gap: replay needs segment %llu but the first "
        "surviving segment is %llu",
        static_cast<unsigned long long>(replay_seq_),
        static_cast<unsigned long long>(seqs[0])));
  }
  wal_replaying_ = true;
  Status status;
  for (size_t i = 0; status.ok() && i < seqs.size(); ++i) {
    if (i > 0 && seqs[i] != seqs[i - 1] + 1) {
      status = Status::Internal(StrFormat(
          "replication gap between segments %llu and %llu",
          static_cast<unsigned long long>(seqs[i - 1]),
          static_cast<unsigned long long>(seqs[i])));
    } else {
      status = ReplaySegment(dir, seqs[i], i + 1 == seqs.size());
    }
  }
  wal_replaying_ = false;
  return status;
}

Status BnServer::ReplaySegment(const std::string& dir, uint64_t seq,
                               bool last) {
  const std::string path = storage::WalSegmentPath(dir, seq);
  auto segment_or = storage::ReadWalSegment(path);
  if (!segment_or.ok()) return segment_or.status();
  const storage::WalSegment& segment = segment_or.value();
  TURBO_RETURN_IF_ERROR(CheckFingerprint(segment.fingerprint));
  const size_t already = seq == replay_seq_ ? replay_records_ : 0;
  if (segment.records.size() < already) {
    return Status::Internal(StrFormat(
        "WAL segment %llu shrank below the applied prefix (%zu < %zu "
        "records)",
        static_cast<unsigned long long>(seq), segment.records.size(),
        already));
  }
  if (segment.torn && !last) {
    // A successor exists, so the writer sealed this segment: ending
    // mid-record is corruption, not a crash or a ship in flight.
    return Status::Internal(StrFormat(
        "WAL segment %llu has a torn tail but is not the last segment",
        static_cast<unsigned long long>(seq)));
  }
  if (segment.torn && dir == config_.wal_dir) {
    // This server owns the bytes: drop the torn tail on disk as well,
    // or it would become a torn non-final segment once the next one
    // opens. The torn bytes carry no replayable record. A directory
    // that is not ours may still be growing (a ship in flight), so
    // there replay just stops before the tear.
    TURBO_RETURN_IF_ERROR(
        storage::TruncateWalSegment(path, segment.valid_bytes));
  }
  replay_seq_ = seq;
  replay_records_ = already;
  for (size_t r = already; r < segment.records.size(); ++r) {
    const storage::WalRecord& record = segment.records[r];
    switch (record.kind) {
      case storage::WalRecord::Kind::kIngest:
        TURBO_RETURN_IF_ERROR(CheckLog(record.log));
        Ingest(record.log);
        break;
      case storage::WalRecord::Kind::kAdvance:
        if (record.advance_to < now()) {
          return Status::InvalidArgument(StrFormat(
              "WAL segment %llu advances the clock back to %lld",
              static_cast<unsigned long long>(seq),
              static_cast<long long>(record.advance_to)));
        }
        AdvanceTo(record.advance_to);
        break;
    }
    ++replay_records_;
  }
  records_replayed_ += replay_records_ - already;
  wal_replayed_records_->Increment(replay_records_ - already);
  return Status::OK();
}

uint64_t BnServer::NextWalSeq(const std::string& dir) const {
  if (replay_seq_ == 0) return 1;
  // Never append to a segment that holds replayed (possibly torn)
  // records: start the one after it.
  return std::filesystem::exists(storage::WalSegmentPath(dir, replay_seq_))
             ? replay_seq_ + 1
             : replay_seq_;
}

Status BnServer::AdoptWalDir(const std::string& dir) {
  TURBO_CHECK_MSG(config_.wal_dir.empty() && replay_seq_ != 0,
                  "AdoptWalDir requires a WAL-less standby recovered from "
                  "a WAL-backed directory");
  TURBO_CHECK_MSG(!dir.empty(), "AdoptWalDir needs a directory");
  std::filesystem::create_directories(dir);
  // Owning the directory, replay applies whatever already arrived and
  // seals a torn tail: the old writer is gone, so its bytes are ours.
  config_.wal_dir = dir;
  Status s = ReplayWal(dir);
  if (s.ok()) s = OpenWalSegment(NextWalSeq(dir));
  if (!s.ok()) config_.wal_dir.clear();
  return s;
}

std::shared_ptr<const bn::BnSnapshot> BnServer::snapshot() const {
  auto snap = snapshot_.load(std::memory_order_acquire);
  TURBO_CHECK_MSG(snap != nullptr,
                  "BnServer::AdvanceTo must run before sampling");
  return snap;
}

bn::GraphView BnServer::view() const { return bn::GraphView(snapshot()); }

uint64_t BnServer::snapshot_version() const {
  auto snap = snapshot_.load(std::memory_order_acquire);
  return snap ? snap->version() : 0;
}

std::string BnServer::FirstDifference(const BnServer& other) const {
  if (now() != other.now()) {
    return StrFormat("clock %lld vs %lld", static_cast<long long>(now()),
                     static_cast<long long>(other.now()));
  }
  if (jobs_run_ != other.jobs_run_) {
    return StrFormat("jobs_run %zu vs %zu", jobs_run_, other.jobs_run_);
  }
  if (edges_expired_ != other.edges_expired_) {
    return StrFormat("edges_expired %zu vs %zu", edges_expired_,
                     other.edges_expired_);
  }
  if (logs_.size() != other.logs_.size()) {
    return StrFormat("%zu vs %zu logs", logs_.size(), other.logs_.size());
  }
  if (snapshot_version() != other.snapshot_version()) {
    return StrFormat("snapshot version %llu vs %llu",
                     static_cast<unsigned long long>(snapshot_version()),
                     static_cast<unsigned long long>(other.snapshot_version()));
  }
  const std::string edges = edges_.FirstDifference(other.edges_);
  if (!edges.empty()) return "edges: " + edges;
  const auto snap = snapshot_.load(std::memory_order_acquire);
  const auto other_snap = other.snapshot_.load(std::memory_order_acquire);
  if (snap != nullptr && other_snap != nullptr) {
    const std::string csr = snap->FirstDifference(*other_snap);
    if (!csr.empty()) return "snapshot: " + csr;
  }
  return "";
}

bn::Subgraph BnServer::SampleSubgraph(UserId uid) const {
  return SampleSubgraph(std::vector<UserId>{uid});
}

bn::Subgraph BnServer::SampleSubgraph(
    const std::vector<UserId>& uids) const {
  Stopwatch sample_sw;
  bn::GraphView v = view();
  const uint64_t seq =
      sample_seq_.fetch_add(1, std::memory_order_relaxed);
  // Seed mixes the snapshot version with a per-request counter through a
  // full-avalanche finalizer so uniform sampling stays decorrelated across
  // concurrent requests. (A plain shift-xor combine collides whenever
  // version bits land on sequence bits — see tests/util/rng_test.cc.)
  const uint64_t seed = MixSeeds(v.version(), seq);
  sample_pinned_version_->Set(static_cast<double>(v.version()));
  bn::SubgraphSampler sampler(std::move(v), config_.sampler, seed);
  bn::Subgraph sg = sampler.Sample(uids);
  sample_ms_->Observe(sample_sw.ElapsedMillis());
  sample_nodes_->Observe(static_cast<double>(sg.nodes.size()));
  samples_->Increment();
  return sg;
}

}  // namespace turbo::server
