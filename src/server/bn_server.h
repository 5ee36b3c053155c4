// BN server (Figure 2): receives behavior logs in real time, runs the
// periodic window jobs of Algorithm 1 (shorter windows more frequently —
// Section V), enforces the edge TTL, and serves computation-subgraph
// sampling requests from a periodically refreshed, degree-normalized
// snapshot.
//
// Concurrency contract: ingestion, AdvanceTo (window jobs, TTL expiry,
// snapshot builds), Checkpoint, and Recover are single-writer
// operations; SampleSubgraph and view() are lock-free readers that may
// run from any number of threads concurrently with the writer. The
// writer builds the next snapshot off to the side and publishes it with
// an atomic shared_ptr swap (RCU style); readers keep the version they
// loaded alive via the shared_ptr held by their GraphView, so a snapshot
// is reclaimed only after the last in-flight sampler drops it — this
// holds across Checkpoint and Recover too: views pinned before either
// keep serving their pre-recovery snapshot.
//
// Durability (DESIGN.md "Durability & recovery" and "Incremental
// snapshots & delta checkpoints"): with wal_dir set, every Ingest and
// AdvanceTo is appended to a write-ahead log before it mutates memory,
// and Checkpoint() persists the complete mutable state (edges with exact
// weight bits, raw logs, cached 1h buckets, window frontiers, clock,
// snapshot, churn) into checksummed "turbo-bn v2" files, rotating the
// WAL. After a full base checkpoint, later checkpoints may be *deltas*
// carrying only the state touched since the previous one (size
// heuristic + chain cap decide). Recover() loads the base, applies the
// delta chain, and replays the WAL tail through the deterministic
// window-job engine, so the recovered server is bit-identical to one
// that never crashed.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "bn/builder.h"
#include "bn/sampler.h"
#include "bn/snapshot.h"
#include "obs/metrics.h"
#include "storage/checkpoint_io.h"
#include "storage/log_store.h"
#include "storage/wal.h"
#include "util/mpsc_ring.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace turbo::server {

struct BnServerConfig {
  bn::BnConfig bn;
  bn::SamplerConfig sampler;
  int num_users = 0;  // node-id space
  /// Snapshot refresh cadence; sampling between refreshes serves the
  /// last snapshot (the paper's jobs are likewise asynchronous to the
  /// request path).
  SimTime snapshot_refresh = kHour;
  /// Threads for the snapshot build passes; 0 = hardware concurrency.
  int snapshot_build_threads = 0;
  /// Publish refreshes via BnSnapshot::ApplyDeltas over the accumulated
  /// churn set (bit-identical to a full build, cost proportional to
  /// churn). The first publish, and any whose churn trips
  /// kSnapshotFullRebuildFraction (bn_server.cc), still runs a full build.
  bool incremental_snapshots = true;
  /// After a full base checkpoint, write later checkpoints as deltas
  /// (state touched since the previous link) when the WAL is enabled.
  /// Every delta still leaves recovery bit-identical; this only trades
  /// write amplification against chain length.
  bool delta_checkpoints = true;
  /// Hard cap on consecutive deltas: the next checkpoint after this many
  /// links is full, bounding recovery's chain-apply work.
  int max_delta_chain = 16;
  /// Workers for the sharded window jobs (bn.window_job_shards shards
  /// are spread over this pool): 0 = hardware concurrency, 1 = run the
  /// shards serially on the AdvanceTo thread (no pool). The engine is
  /// deterministic, so this is purely a throughput knob.
  int window_job_threads = 0;
  /// Registry receiving the server's bn_* metrics (see DESIGN.md
  /// "Observability"). Not owned; null = a private per-server registry,
  /// which keeps test/bench instances isolated from each other.
  obs::MetricsRegistry* metrics = nullptr;
  /// Capacity of the bounded lock-free MPSC ring in front of Ingest;
  /// 0 disables the ring (OfferIngest / DrainIngest must not be
  /// called). The cap is exact: the ring admits at most this many
  /// queued events even though its physical slot array is a power of
  /// two (see util::MpscRing). With the ring enabled, any number of
  /// producer threads OfferIngest concurrently; a full ring rejects
  /// the log (backpressure, counted in bn_ingest_rejected_total)
  /// instead of blocking the producer or growing without bound.
  size_t ingest_queue_capacity = 0;
  /// Durability directory for the ingest WAL and checkpoints; empty
  /// disables the WAL (state is lost on crash). When the directory holds
  /// state from a previous incarnation, Recover() must be called before
  /// the first Ingest/AdvanceTo — starting fresh over existing segments
  /// would make them unreplayable.
  std::string wal_dir;
  /// Group-commit batching and fsync policy of the WAL.
  storage::WalOptions wal;
};

class BnServer {
 public:
  explicit BnServer(BnServerConfig config);

  /// Real-time log ingestion (writer side). Timestamps must be
  /// non-negative — negative times would otherwise be collapsed into one
  /// epoch by the window jobs' floor arithmetic, so they are rejected
  /// loudly here.
  void Ingest(const BehaviorLog& log);
  void IngestBatch(const BehaviorLogList& logs);

  /// Admission-controlled ingestion front door (requires
  /// config.ingest_queue_capacity > 0). Producer side: lock-free,
  /// callable from any number of threads concurrently with the writer
  /// and with samplers. Returns false — and counts the rejection in
  /// bn_ingest_rejected_total — when the ring is full; the log is
  /// dropped, which is the overload contract: producers shed instead of
  /// stalling the ingest path.
  bool OfferIngest(const BehaviorLog& log);
  /// Writer-side drain: pops up to `max_events` queued logs and applies
  /// them through Ingest (WAL, churn tracking, counters — identical to
  /// a direct call). Same single-writer contract as Ingest/AdvanceTo.
  /// Returns the number of logs applied.
  size_t DrainIngest(size_t max_events = SIZE_MAX);
  /// Instantaneous depth of the ingest ring (racy approximation).
  size_t ingest_queue_depth() const;

  /// Advances the server clock, executing every window job whose epoch
  /// boundary was crossed (the 1-hour job runs hourly, the 1-day job
  /// daily, ...), TTL expiry (daily), and snapshot refreshes. Due jobs
  /// run in global epoch-time order with ties going to the smaller
  /// window, so a catch-up after a long idle gap replays history
  /// hour-by-hour — base-window buckets are cached just before the
  /// larger windows that merge them, keeping the cache bounded by the
  /// largest window (see DESIGN.md "Ingestion & window jobs").
  void AdvanceTo(SimTime now);

  /// Persists the server's complete mutable state ("turbo-bn v2": magic
  /// + chain header + per-section CRC32s), published atomically (temp
  /// file + fsync + rename). The first checkpoint (and any that trips
  /// the delta size/chain heuristics) writes a full
  /// `<dir>/checkpoint.bin`; later ones may write a
  /// `<dir>/checkpoint-delta-<seq>.bin` carrying only the state touched
  /// since the previous checkpoint — O(churn) bytes, not O(graph). With
  /// the WAL enabled, `dir` must be wal_dir; the log is rotated to a
  /// fresh segment and segments covered by the checkpoint are deleted.
  /// Writer-side operation: safe concurrently with samplers, not with
  /// Ingest/AdvanceTo.
  Status Checkpoint(const std::string& dir);

  /// Restores state from `dir`: loads `checkpoint.bin` if present (its
  /// config fingerprint must match this server's config), applies the
  /// delta-checkpoint chain in sequence order (each link's parent must
  /// match — a broken chain fails loudly), then replays the WAL tail
  /// through ReplayWal — ingests and clock advances re-execute through
  /// the deterministic window-job engine, so the recovered server is
  /// bit-identical (edges, weights, frontiers, snapshot version) to the
  /// writer at its last durable point. With the WAL enabled, `dir` must
  /// be wal_dir, a torn final record is truncated off the segment file
  /// (so a later restart, when that segment is no longer the last, still
  /// recovers), and new records go to a fresh segment. Must be called on
  /// a freshly constructed server, before any Ingest/AdvanceTo.
  Status Recover(const std::string& dir);

  /// The one WAL replay loop, run by Recover, by warm-standby catch-up
  /// and by AdoptWalDir: applies every complete record of the segments
  /// in `dir` past the replay cursor through the normal ingest/advance
  /// paths, without logging them again, and moves the cursor. Fails
  /// (Internal) when the first segment at or after the cursor is not
  /// the cursor's own ("replication gap": records were lost), when
  /// segments are not contiguous, when a torn segment is not the last
  /// one, or when a segment shrank below its applied records; fails
  /// with FailedPrecondition when a segment's header fingerprint is not
  /// this server's config, and with InvalidArgument on a record this
  /// server cannot apply. A torn final record is truncated off the file
  /// only when the server owns `dir` (dir == wal_dir); otherwise replay
  /// stops before it and a later call resumes there. Writer-side
  /// operation.
  Status ReplayWal(const std::string& dir);

  /// Failover promote: turns a WAL-less standby, recovered from a
  /// WAL-backed directory, into a durable primary rooted at `dir` (the
  /// shipped replica directory). Takes ownership
  /// of `dir`, replays what arrived past the cursor (sealing a torn
  /// tail the dead writer left), and opens a fresh WAL segment after
  /// it, so a later Recover of the directory replays the shipped
  /// history plus everything written after the promote. The next
  /// Checkpoint() writes a full base (the shipped chain's incremental
  /// trackers died with the old primary).
  Status AdoptWalDir(const std::string& dir);

  /// Replay cursor: the segment the next replayed record comes from and
  /// how many of its records are applied. Recover sets it to the first
  /// segment past the checkpoint chain, (0, 0) when the checkpoint was
  /// written without a WAL, and replay advances it.
  uint64_t replay_seq() const { return replay_seq_; }
  size_t replay_records() const { return replay_records_; }
  /// WAL records this server has replayed (Recover and later calls).
  uint64_t records_replayed() const { return records_replayed_; }

  /// InvalidArgument when Ingest would refuse `log` (uid outside the
  /// node-id space, negative time). For logs that arrive from outside
  /// the process: RPC bodies, checkpoint sections, WAL records.
  Status CheckLog(const BehaviorLog& log) const;

  /// Samples the computation subgraph for `uid` from the last published
  /// snapshot. Lock-free; callable from any thread concurrently with
  /// AdvanceTo. Requires at least one AdvanceTo() call.
  bn::Subgraph SampleSubgraph(UserId uid) const;
  bn::Subgraph SampleSubgraph(const std::vector<UserId>& uids) const;

  /// The last published snapshot as a read view (lock-free). The view
  /// pins its snapshot version for as long as the caller holds it.
  bn::GraphView view() const;
  std::shared_ptr<const bn::BnSnapshot> snapshot() const;
  /// Version id of the last published snapshot (0 = none yet).
  uint64_t snapshot_version() const;

  const BnServerConfig& config() const { return config_; }

  /// Server clock; readable from any thread concurrently with AdvanceTo
  /// (serving threads use it as the feature as_of).
  SimTime now() const { return now_.load(std::memory_order_relaxed); }
  const storage::LogStore& logs() const { return logs_; }
  const storage::EdgeStore& edges() const { return edges_; }
  size_t jobs_run() const { return jobs_run_; }
  size_t edges_expired() const { return edges_expired_; }

  /// Bit-identity oracle (DESIGN.md §10): the first difference from
  /// `other` as text, or "" when the two servers hold the same state.
  /// Compares, in order, the clock, jobs_run(), edges_expired(), the log
  /// count and the snapshot version; then the edge stores
  /// (EdgeStore::FirstDifference); then the published snapshots
  /// (BnSnapshot::FirstDifference) when both sides have one. Reads
  /// writer-side state: neither server may be mid-mutation.
  std::string FirstDifference(const BnServer& other) const;

  /// The registry this server reports into (config.metrics or the
  /// private default). RenderText/RenderJson are safe to call from any
  /// thread concurrently with ingestion and sampling.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  void RefreshSnapshot();
  /// Opens the WAL writer on segment `seq` (wal_dir must be set).
  Status OpenWalSegment(uint64_t seq);
  /// Appends one record to the WAL unless disabled or replaying.
  void WalAppend(const storage::WalRecord& record);
  /// Lazily opens the first WAL segment before the first mutation.
  void EnsureWalOpen();
  /// Moves the builder's accumulated churn into the publish- and
  /// checkpoint-scoped churn sets (called after every mutation batch).
  void AccumulateChurn();
  /// This config's fingerprint: the checkpoint meta section, also
  /// written into every WAL segment header.
  std::string Fingerprint() const;
  /// Validates a meta section or WAL header fingerprint against
  /// Fingerprint(): InvalidArgument for an unknown state version,
  /// FailedPrecondition for a different config.
  Status CheckFingerprint(std::string_view fingerprint) const;
  /// Assembles the seven sections of a full checkpoint or of a delta
  /// over the last checkpoint (the chain trackers below).
  storage::CheckpointWriter BuildCheckpoint(storage::CheckpointKind kind,
                                            uint64_t covered_seq) const;
  /// Applies one full or delta link over the current state; returns the
  /// link's WAL replay start through `start_seq`.
  Status ApplyCheckpoint(const storage::CheckpointReader& reader,
                         uint64_t* start_seq);
  /// ReplayWal's body for one segment; `last` = no successor exists.
  Status ReplaySegment(const std::string& dir, uint64_t seq, bool last);
  /// The segment new records go to after a replay of `dir`.
  uint64_t NextWalSeq(const std::string& dir) const;
  /// Resets the delta-chain trackers to "parent = the checkpoint whose
  /// state the server currently holds".
  void ResetChainTrackers(uint64_t covered_seq);

  BnServerConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Metric handles resolved once in the constructor; all writes after
  // that are lock-free (see obs/metrics.h).
  obs::Counter* ingest_events_ = nullptr;
  obs::Counter* ttl_expired_edges_ = nullptr;
  obs::Counter* snapshot_builds_ = nullptr;
  obs::Counter* samples_ = nullptr;
  obs::Histogram* snapshot_build_ms_ = nullptr;
  obs::Histogram* sample_ms_ = nullptr;
  obs::Histogram* sample_nodes_ = nullptr;
  obs::Gauge* snapshot_version_g_ = nullptr;
  obs::Gauge* snapshot_edges_g_ = nullptr;
  obs::Gauge* snapshot_bytes_g_ = nullptr;
  obs::Gauge* snapshot_lag_s_ = nullptr;
  obs::Gauge* ingest_lag_s_ = nullptr;
  obs::Gauge* sample_pinned_version_ = nullptr;
  obs::Counter* wal_records_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* wal_replayed_records_ = nullptr;
  obs::Gauge* wal_bytes_g_ = nullptr;
  obs::Gauge* checkpoint_bytes_g_ = nullptr;
  obs::Gauge* recovery_s_ = nullptr;
  obs::Histogram* checkpoint_ms_ = nullptr;
  obs::Counter* snapshot_incrementals_ = nullptr;
  obs::Counter* snapshot_full_rebuilds_ = nullptr;
  obs::Histogram* snapshot_incremental_ms_ = nullptr;
  obs::Gauge* snapshot_touched_nodes_g_ = nullptr;
  obs::Counter* checkpoints_delta_ = nullptr;
  obs::Gauge* checkpoint_delta_bytes_g_ = nullptr;
  obs::Gauge* checkpoint_chain_len_g_ = nullptr;
  obs::Counter* ingest_rejected_ = nullptr;
  obs::Counter* ingest_queued_ = nullptr;
  obs::Gauge* ingest_queue_depth_g_ = nullptr;
  /// Bounded admission ring in front of Ingest (null when
  /// config.ingest_queue_capacity == 0). Producers push lock-free;
  /// only the writer thread drains.
  std::unique_ptr<util::MpscRing<BehaviorLog>> ingest_ring_;
  /// Worker pool the window-job shards run on (null = serial shards).
  std::unique_ptr<util::ThreadPool> job_pool_;
  /// The raw-log store ("local database"): reads through it charge a
  /// SimClock like a networked RDBMS, which is what the Section V cache
  /// study measures.
  storage::LogStore logs_{storage::MediumCost::NetworkedSql()};
  storage::EdgeStore edges_;
  bn::BnBuilder builder_;
  // Written only by the AdvanceTo thread, read concurrently by serving
  // threads through now().
  std::atomic<SimTime> now_{0};
  std::vector<SimTime> last_job_end_;  // per window
  SimTime last_expiry_ = 0;
  SimTime last_snapshot_ = -1;
  // Published snapshot; written by RefreshSnapshot, read lock-free by
  // samplers. The version counter below is written only by the writer
  // thread before the corresponding publish.
  std::atomic<std::shared_ptr<const bn::BnSnapshot>> snapshot_{nullptr};
  uint64_t next_version_ = 0;
  // Per-request seed disambiguator so concurrent uniform samplers on one
  // snapshot do not share an RNG stream.
  mutable std::atomic<uint64_t> sample_seq_{0};
  size_t jobs_run_ = 0;
  size_t edges_expired_ = 0;
  /// Current WAL segment (closed when the WAL is disabled).
  storage::WalWriter wal_writer_;
  /// True while ReplayWal() re-applies WAL records; suppresses
  /// re-logging.
  bool wal_replaying_ = false;
  /// Non-empty once a WAL segment rotation failed: the writer is closed
  /// while durable state exists, so later writes must fail-stop with
  /// this cause rather than the misleading fresh-start contract check.
  std::string wal_error_;
  /// True once Recover() or the first mutation ran; guards the
  /// "Recover before first write" contract.
  bool recovered_or_started_ = false;
  /// Replay cursor (see replay_seq()) and records replayed in total.
  uint64_t replay_seq_ = 0;
  size_t replay_records_ = 0;
  uint64_t records_replayed_ = 0;

  // --- Incremental publish + delta checkpoint state -------------------
  /// Nodes whose adjacency changed since the last snapshot publish; the
  /// next RefreshSnapshot consumes (and clears) it. Persisted in every
  /// checkpoint's "churn" section so a recovered server's first
  /// incremental publish still covers churn accrued between the last
  /// publish and the checkpoint.
  storage::EdgeChurn snapshot_churn_;
  /// Nodes whose adjacency changed since the last checkpoint (only
  /// tracked once a delta-eligible base exists); drives the edges_delta
  /// section. Cleared at every checkpoint.
  storage::EdgeChurn checkpoint_churn_;
  /// Logs ingested since the last checkpoint (same tracking scope);
  /// drives the logs_delta section.
  BehaviorLogList pending_log_tail_;
  /// True once a full base checkpoint exists this incarnation and delta
  /// checkpoints are enabled — the precondition for both the delta write
  /// path and the since-last-checkpoint tracking above.
  bool have_ckpt_base_ = false;
  /// covered_seq of the last checkpoint written or recovered (the next
  /// delta's parent link).
  uint64_t last_ckpt_seq_ = 0;
  /// Consecutive deltas since the last full checkpoint.
  int delta_chain_len_ = 0;
  /// Size of the last full checkpoint file — the denominator of the
  /// delta-vs-full size heuristic.
  size_t last_full_ckpt_bytes_ = 0;
  /// Snapshot published at the last checkpoint: the SerializeDiff base
  /// for the next snapshot_delta section. Diffing against this pointer
  /// (not a rebuilt snapshot) is what keeps the diff O(churn).
  std::shared_ptr<const bn::BnSnapshot> last_ckpt_snapshot_;
  /// Builder cache frontier at the last checkpoint: the next
  /// buckets_delta carries epochs strictly after it.
  SimTime last_ckpt_cache_max_epoch_ = 0;
};

}  // namespace turbo::server
