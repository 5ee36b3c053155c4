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
/// recovered — or standby-replayed — under another.
constexpr uint32_t kStateVersion = 3;

std::string CheckpointPath(const std::string& dir) {
  return dir + "/" + kCheckpointFile;
}

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
  if (s.ok()) s = wal_writer_.Open(config_.wal_dir, seq, config_.wal);
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

void BnServer::BuildMetaSection(storage::BinaryWriter* meta) const {
  meta->U32(kStateVersion);
  meta->I64(config_.num_users);
  meta->U64(config_.bn.windows.size());
  for (SimTime w : config_.bn.windows) meta->I64(w);
  meta->I64(config_.bn.edge_ttl);
  meta->U8(config_.bn.inverse_weighting ? 1 : 0);
  meta->I64(config_.bn.max_bucket_users);
  meta->U64(config_.bn.bucket_sample_seed);
  meta->I64(config_.snapshot_refresh);
  const bn::ShardTopology& topo = config_.bn.topology;
  meta->U32(static_cast<uint32_t>(topo.shard_count));
  meta->U32(static_cast<uint32_t>(topo.shard_index));
  meta->U64(topo.user_seed);
  meta->U64(topo.value_seed);
}

void BnServer::BuildServerSection(storage::BinaryWriter* server,
                                  uint64_t next_seq) const {
  server->I64(now_.load(std::memory_order_relaxed));
  server->U64(next_seq);
  server->U64(last_job_end_.size());
  for (SimTime t : last_job_end_) server->I64(t);
  server->I64(last_expiry_);
  server->I64(last_snapshot_);
  server->U64(next_version_);
  server->U64(jobs_run_);
  server->U64(edges_expired_);
}

void BnServer::ResetChainTrackers(uint64_t covered_seq) {
  last_ckpt_seq_ = covered_seq;
  last_ckpt_snapshot_ = snapshot_.load(std::memory_order_acquire);
  last_ckpt_cache_max_epoch_ = builder_.MaxCachedEpoch();
  checkpoint_churn_.Clear();
  pending_log_tail_.clear();
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
  auto published = snapshot_.load(std::memory_order_acquire);

  // Try a delta first when a base exists and the chain is not exhausted:
  // it is O(churn) to assemble, and the size heuristic below falls back
  // to a full checkpoint when churn grew too close to the full state.
  bool wrote_delta = false;
  if (wal_on && config_.delta_checkpoints && have_ckpt_base_ &&
      delta_chain_len_ < config_.max_delta_chain) {
    storage::CheckpointWriter writer;
    writer.SetChain(storage::CheckpointKind::kDelta, next_seq,
                    last_ckpt_seq_);
    {
      storage::BinaryWriter meta;
      BuildMetaSection(&meta);
      writer.AddSection("meta", meta);
    }
    {
      storage::BinaryWriter server;
      BuildServerSection(&server, next_seq);
      writer.AddSection("server", server);
    }
    {
      // Current rows of every node churned since the last checkpoint;
      // apply = clear-then-insert over the parent state.
      storage::BinaryWriter edges;
      edges_.SerializeTouched(checkpoint_churn_, &edges);
      writer.AddSection("edges_delta", edges);
    }
    {
      // Raw logs appended since the last checkpoint, replayed through
      // LogStore::Append on recovery (appends are order-deterministic).
      storage::BinaryWriter logs;
      logs.U64(pending_log_tail_.size());
      for (const BehaviorLog& log : pending_log_tail_) {
        logs.U32(log.uid);
        logs.U8(static_cast<uint8_t>(log.type));
        logs.U64(log.value);
        logs.I64(log.time);
      }
      writer.AddSection("logs_delta", logs);
    }
    {
      // Cache epochs created since the last checkpoint. Epochs evicted
      // since then need no record: recovery re-evicts with the recovered
      // job frontiers, which derive the same bound the writer used.
      storage::BinaryWriter buckets;
      builder_.SerializeCacheSince(last_ckpt_cache_max_epoch_, &buckets);
      writer.AddSection("buckets_delta", buckets);
    }
    {
      // Published-snapshot delta: unchanged (mode 0), first-ever
      // snapshot (mode 1, full payload), or a row-group diff against
      // the snapshot the last checkpoint persisted (mode 2).
      storage::BinaryWriter snap;
      if (published == last_ckpt_snapshot_) {
        snap.U8(0);
      } else if (last_ckpt_snapshot_ == nullptr) {
        snap.U8(1);
        published->Serialize(&snap);
      } else {
        snap.U8(2);
        published->SerializeDiff(*last_ckpt_snapshot_, &snap);
      }
      writer.AddSection("snapshot_delta", snap);
    }
    {
      storage::BinaryWriter churn;
      snapshot_churn_.Serialize(&churn);
      writer.AddSection("churn", churn);
    }
    // A delta is only written while its file stays below this fraction
    // of the last full checkpoint's bytes; otherwise the checkpoint is
    // written full (and the chain resets).
    constexpr double kDeltaCheckpointMaxFraction = 0.5;
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
    storage::CheckpointWriter writer;
    writer.SetChain(storage::CheckpointKind::kFull, next_seq, 0);
    {
      storage::BinaryWriter meta;
      BuildMetaSection(&meta);
      writer.AddSection("meta", meta);
    }
    {
      storage::BinaryWriter server;
      BuildServerSection(&server, next_seq);
      writer.AddSection("server", server);
    }
    {
      storage::BinaryWriter edges;
      edges_.Serialize(&edges);
      writer.AddSection("edges", edges);
    }
    {
      storage::BinaryWriter logs;
      logs_.Serialize(&logs);
      writer.AddSection("logs", logs);
    }
    {
      storage::BinaryWriter buckets;
      builder_.SerializeCache(&buckets);
      writer.AddSection("buckets", buckets);
    }
    {
      storage::BinaryWriter snap;
      snap.U8(published != nullptr ? 1 : 0);
      if (published != nullptr) published->Serialize(&snap);
      writer.AddSection("snapshot", snap);
    }
    {
      storage::BinaryWriter churn;
      snapshot_churn_.Serialize(&churn);
      writer.AddSection("churn", churn);
    }
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

Status BnServer::CheckMeta(const storage::CheckpointReader& reader) const {
  storage::BinaryReader meta(reader.Find("meta"));
  const uint32_t state_version = meta.U32();
  if (state_version != kStateVersion) {
    return Status::InvalidArgument(StrFormat(
        "unsupported checkpoint state version %u", state_version));
  }
  // Everything that shapes the deterministic engine's output must
  // match the running config, or "recovered" state would silently
  // diverge from what this server will compute going forward.
  bool match = meta.I64() == config_.num_users;
  match = match && meta.U64() == config_.bn.windows.size();
  if (match) {
    for (SimTime w : config_.bn.windows) match = match && meta.I64() == w;
  }
  match = match && meta.I64() == config_.bn.edge_ttl;
  match = match && meta.U8() == (config_.bn.inverse_weighting ? 1 : 0);
  match = match && meta.I64() == config_.bn.max_bucket_users;
  match = match && meta.U64() == config_.bn.bucket_sample_seed;
  match = match && meta.I64() == config_.snapshot_refresh;
  const bn::ShardTopology& topo = config_.bn.topology;
  match =
      match && meta.U32() == static_cast<uint32_t>(topo.shard_count);
  match =
      match && meta.U32() == static_cast<uint32_t>(topo.shard_index);
  match = match && meta.U64() == topo.user_seed;
  match = match && meta.U64() == topo.value_seed;
  if (!match || !meta.ok()) {
    return Status::FailedPrecondition(
        "checkpoint was written under a different BN config "
        "(users/windows/ttl/weighting/seed/refresh and the shard "
        "topology must match)");
  }
  return Status::OK();
}

Status BnServer::DecodeServerSection(std::string_view payload,
                                     uint64_t* start_seq) {
  storage::BinaryReader server(payload);
  const SimTime saved_now = server.I64();
  *start_seq = server.U64();
  if (*start_seq == 0) *start_seq = UINT64_MAX;
  const uint64_t num_frontiers = server.U64();
  if (num_frontiers != last_job_end_.size()) {
    return Status::InvalidArgument("checkpoint frontier count mismatch");
  }
  for (SimTime& t : last_job_end_) t = server.I64();
  last_expiry_ = server.I64();
  last_snapshot_ = server.I64();
  next_version_ = server.U64();
  jobs_run_ = server.U64();
  edges_expired_ = server.U64();
  if (!server.ok() || server.remaining() != 0) {
    return Status::InvalidArgument("corrupt checkpoint server section");
  }
  now_.store(saved_now, std::memory_order_relaxed);
  return Status::OK();
}

Status BnServer::ApplyCheckpointDelta(
    const storage::CheckpointReader& reader, uint64_t* start_seq) {
  for (const char* name : {"meta", "server", "edges_delta", "logs_delta",
                           "buckets_delta", "snapshot_delta", "churn"}) {
    if (!reader.Has(name)) {
      return Status::InvalidArgument(
          StrFormat("delta checkpoint missing section '%s'", name));
    }
  }
  TURBO_RETURN_IF_ERROR(CheckMeta(reader));
  TURBO_RETURN_IF_ERROR(
      DecodeServerSection(reader.Find("server"), start_seq));
  {
    storage::BinaryReader edges(reader.Find("edges_delta"));
    TURBO_RETURN_IF_ERROR(edges_.ApplyDeltaSection(
        &edges, static_cast<UserId>(config_.num_users)));
  }
  {
    // Appended directly, not through Ingest: replayed logs must not hit
    // the WAL or the since-last-checkpoint tail — they are already
    // durable in the chain being applied.
    storage::BinaryReader logs(reader.Find("logs_delta"));
    const uint64_t count = logs.U64();
    constexpr size_t kLogBytes = sizeof(uint32_t) + sizeof(uint8_t) +
                                 sizeof(uint64_t) + sizeof(int64_t);
    if (!logs.ok() || count > logs.remaining() / kLogBytes) {
      return Status::InvalidArgument("corrupt logs_delta section");
    }
    for (uint64_t i = 0; i < count; ++i) {
      BehaviorLog log;
      log.uid = logs.U32();
      log.type = static_cast<BehaviorType>(logs.U8());
      log.value = logs.U64();
      log.time = logs.I64();
      if (!logs.ok() ||
          log.uid >= static_cast<UserId>(config_.num_users) ||
          log.time < 0) {
        return Status::InvalidArgument("corrupt logs_delta record");
      }
      logs_.Append(log);
    }
    if (logs.remaining() != 0) {
      return Status::InvalidArgument("trailing bytes in logs_delta");
    }
  }
  {
    storage::BinaryReader buckets(reader.Find("buckets_delta"));
    TURBO_RETURN_IF_ERROR(builder_.DeserializeCacheDelta(&buckets));
    // The delta carries only epochs cached since its parent; epochs the
    // writer *evicted* in that span leave no record. Re-evicting with
    // the just-decoded frontiers reproduces the writer's bound exactly
    // (it evicts with min(last_job_end_) after every job too).
    if (!last_job_end_.empty()) {
      builder_.EvictCachedBuckets(
          *std::min_element(last_job_end_.begin(), last_job_end_.end()));
    }
  }
  {
    storage::BinaryReader snap(reader.Find("snapshot_delta"));
    const uint8_t mode = snap.U8();
    if (!snap.ok() || mode > 2) {
      return Status::InvalidArgument("corrupt snapshot_delta section");
    }
    if (mode != 0) {
      auto base = snapshot_.load(std::memory_order_acquire);
      if (mode == 2 && base == nullptr) {
        return Status::InvalidArgument(
            "snapshot_delta diff with no base snapshot in the chain");
      }
      auto snapshot_or = mode == 1
                             ? bn::BnSnapshot::Deserialize(&snap)
                             : bn::BnSnapshot::DeserializePatched(base, &snap);
      if (!snapshot_or.ok()) return snapshot_or.status();
      auto restored = snapshot_or.take();
      if (restored->num_nodes() != config_.num_users) {
        return Status::InvalidArgument(StrFormat(
            "delta checkpoint snapshot has %d nodes but the server is "
            "configured for %d users",
            restored->num_nodes(), config_.num_users));
      }
      snapshot_version_g_->Set(static_cast<double>(restored->version()));
      snapshot_edges_g_->Set(static_cast<double>(restored->TotalEdges()));
      snapshot_bytes_g_->Set(static_cast<double>(restored->MemoryBytes()));
      snapshot_.store(std::move(restored), std::memory_order_release);
    }
  }
  {
    // Full replacement, not a merge: the section is the writer's entire
    // since-last-publish set at checkpoint time.
    storage::BinaryReader churn(reader.Find("churn"));
    TURBO_RETURN_IF_ERROR(snapshot_churn_.Deserialize(
        &churn, static_cast<UserId>(config_.num_users)));
  }
  return Status::OK();
}

Status BnServer::Recover(const std::string& dir) {
  TURBO_CHECK_MSG(
      !recovered_or_started_ && logs_.size() == 0 && jobs_run_ == 0 &&
          now_.load(std::memory_order_relaxed) == 0,
      "Recover() must run on a freshly constructed server, before any "
      "Ingest/AdvanceTo");
  recovered_or_started_ = true;
  Stopwatch sw;
  // Segments < start_seq are covered by the checkpoint; 1 when starting
  // from WAL only. UINT64_MAX (checkpoint written with the WAL disabled)
  // replays nothing.
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
    for (const char* name : {"meta", "server", "edges", "logs", "buckets",
                             "snapshot", "churn"}) {
      if (!reader.Has(name)) {
        return Status::InvalidArgument(
            StrFormat("checkpoint missing section '%s'", name));
      }
    }
    TURBO_RETURN_IF_ERROR(CheckMeta(reader));
    TURBO_RETURN_IF_ERROR(
        DecodeServerSection(reader.Find("server"), &start_seq));
    {
      storage::BinaryReader edges(reader.Find("edges"));
      TURBO_RETURN_IF_ERROR(edges_.Deserialize(
          &edges, static_cast<UserId>(config_.num_users)));
    }
    {
      storage::BinaryReader logs(reader.Find("logs"));
      TURBO_RETURN_IF_ERROR(logs_.Deserialize(&logs));
    }
    {
      storage::BinaryReader buckets(reader.Find("buckets"));
      TURBO_RETURN_IF_ERROR(builder_.DeserializeCache(&buckets));
    }
    {
      storage::BinaryReader snap(reader.Find("snapshot"));
      if (snap.U8() != 0) {
        auto snapshot_or = bn::BnSnapshot::Deserialize(&snap);
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
        snapshot_bytes_g_->Set(
            static_cast<double>(restored->MemoryBytes()));
        snapshot_.store(std::move(restored), std::memory_order_release);
      }
    }
    {
      storage::BinaryReader churn(reader.Find("churn"));
      TURBO_RETURN_IF_ERROR(snapshot_churn_.Deserialize(
          &churn, static_cast<UserId>(config_.num_users)));
    }
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
    TURBO_RETURN_IF_ERROR(ApplyCheckpointDelta(delta, &start_seq));
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

  // Replay the WAL tail through the normal ingest/advance paths — the
  // engine is deterministic, so re-execution reproduces the writer's
  // state bit for bit.
  uint64_t last_seq = 0;
  std::vector<uint64_t> seqs = storage::ListWalSegments(dir);
  std::erase_if(seqs, [&](uint64_t s) { return s < start_seq; });
  // The tail must begin exactly at start_seq — a later first segment
  // means records between the checkpoint and it are gone (an empty list
  // is fine: a crash between checkpoint publish and rotation leaves no
  // uncovered segment).
  if (!seqs.empty() && seqs[0] != start_seq) {
    return Status::Internal(StrFormat(
        "WAL replay must start at segment %llu but the first surviving "
        "segment is %llu",
        static_cast<unsigned long long>(start_seq),
        static_cast<unsigned long long>(seqs[0])));
  }
  wal_replaying_ = true;
  for (size_t i = 0; i < seqs.size(); ++i) {
    if (i > 0 && seqs[i] != seqs[i - 1] + 1) {
      wal_replaying_ = false;
      return Status::Internal(StrFormat(
          "missing WAL segment between %llu and %llu",
          static_cast<unsigned long long>(seqs[i - 1]),
          static_cast<unsigned long long>(seqs[i])));
    }
    auto segment_or =
        storage::ReadWalSegment(storage::WalSegmentPath(dir, seqs[i]));
    if (!segment_or.ok()) {
      wal_replaying_ = false;
      return segment_or.status();
    }
    const storage::WalSegment& segment = segment_or.value();
    if (segment.torn && i + 1 < seqs.size()) {
      wal_replaying_ = false;
      return Status::Internal(StrFormat(
          "WAL segment %llu has a torn tail but is not the last segment",
          static_cast<unsigned long long>(seqs[i])));
    }
    if (segment.torn && !config_.wal_dir.empty()) {
      // Drop the torn tail on disk as well: once a post-recovery segment
      // opens after this one it is no longer the last, and a torn
      // non-final segment would (rightly) fail the next Recover. The
      // torn bytes carry no replayable record, so truncation loses
      // nothing.
      const Status ts = storage::TruncateWalSegment(
          storage::WalSegmentPath(dir, seqs[i]), segment.valid_bytes);
      if (!ts.ok()) {
        wal_replaying_ = false;
        return ts;
      }
    }
    for (const storage::WalRecord& record : segment.records) {
      switch (record.kind) {
        case storage::WalRecord::Kind::kIngest:
          Ingest(record.log);
          break;
        case storage::WalRecord::Kind::kAdvance:
          AdvanceTo(record.advance_to);
          break;
      }
    }
    wal_replayed_records_->Increment(segment.records.size());
    last_seq = seqs[i];
    wal_resume_seq_ = seqs[i];
    wal_resume_records_ = segment.records.size();
  }
  wal_replaying_ = false;
  if (seqs.empty() && start_seq != UINT64_MAX) {
    // Nothing to replay, but a WAL-backed checkpoint names where future
    // records will land — a crash between checkpoint publish and
    // rotation leaves no uncovered segment yet.
    wal_resume_seq_ = start_seq;
    wal_resume_records_ = 0;
  }

  if (!config_.wal_dir.empty()) {
    TURBO_CHECK_MSG(config_.wal_dir == dir,
                    "Recover dir must be wal_dir when the WAL is enabled");
    // Never append to a (possibly torn) old segment: start a fresh one.
    uint64_t next = last_seq + 1;
    if (start_seq != UINT64_MAX && start_seq != 1) {
      next = std::max(next, start_seq);
    }
    TURBO_RETURN_IF_ERROR(OpenWalSegment(next));
  }
  recovery_s_->Set(sw.ElapsedSeconds());
  return Status::OK();
}

void BnServer::ApplyReplicated(const storage::WalRecord& record) {
  TURBO_CHECK_MSG(config_.wal_dir.empty(),
                  "ApplyReplicated requires a WAL-less standby server — "
                  "the record is already durable in the shipped WAL");
  recovered_or_started_ = true;
  wal_replaying_ = true;
  switch (record.kind) {
    case storage::WalRecord::Kind::kIngest:
      Ingest(record.log);
      break;
    case storage::WalRecord::Kind::kAdvance:
      AdvanceTo(record.advance_to);
      break;
  }
  wal_replaying_ = false;
  wal_replayed_records_->Increment();
}

Status BnServer::AdoptWalDir(const std::string& dir) {
  TURBO_CHECK_MSG(config_.wal_dir.empty(),
                  "AdoptWalDir requires a WAL-less standby server");
  TURBO_CHECK_MSG(!dir.empty(), "AdoptWalDir needs a directory");
  std::filesystem::create_directories(dir);
  // Open strictly after everything already in the directory, and after
  // the checkpoint/delta covered ranges: a gap below the first
  // surviving segment would fail the next Recover, and so would a new
  // segment numbered inside the shipped history.
  uint64_t next = 1;
  const std::vector<uint64_t> seqs = storage::ListWalSegments(dir);
  if (!seqs.empty()) next = seqs.back() + 1;
  const std::vector<uint64_t> deltas = storage::ListCheckpointDeltas(dir);
  if (!deltas.empty()) next = std::max(next, deltas.back());
  if (std::filesystem::exists(CheckpointPath(dir))) {
    auto reader_or = storage::CheckpointReader::Open(CheckpointPath(dir));
    if (!reader_or.ok()) return reader_or.status();
    next = std::max(next, reader_or.value().covered_seq());
  }
  config_.wal_dir = dir;
  recovered_or_started_ = true;
  const Status s = OpenWalSegment(next);
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
