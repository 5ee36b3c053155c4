// BN construction — Algorithm 1 of the paper.
//
// For every edge-building behavior type r, every hierarchical time window
// W in **W**, and every epoch (t_{j-1}, t_j] of that window, users whose
// logs share the same value s within the epoch are pairwise connected;
// each such pair receives weight 1/N_{j,s} (inverse weight assignment,
// N_{j,s} = number of distinct users sharing s in epoch j). Weights
// accumulate across epochs and across windows, so co-occurrences inside a
// small window — which every larger window also catches — end up with
// proportionally larger total weight (hierarchical time windows).
//
// Window-job engine (DESIGN.md "Ingestion & window jobs"): one job
// processes one (window, epoch) slice. Its active (type, value) keys are
// partitioned across `window_job_shards` shards by the log store's key
// hash; shards run concurrently on an optional util::ThreadPool, each
// accumulating edge-weight deltas into a private buffer. Buffers are
// merged into the EdgeStore in shard-index order, and every per-bucket
// random draw is seeded from the bucket's own coordinates, so the
// resulting weights are bit-identical for any thread count, any shard
// count, and the serial path. On top of the shards, jobs for windows
// that are multiples of the smallest window reuse that base window's
// deduped per-value user buckets (cached when the base job ran) instead
// of re-querying raw logs — a day of traffic costs one log scan plus
// merges, not one scan per window.
//
// Timestamps must be non-negative; epoch 1 of every window covers
// [0, W] (the origin belongs to the first epoch) and epoch j > 1 covers
// ((j-1)W, jW].
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bn/partition.h"
#include "obs/metrics.h"
#include "storage/behavior_log.h"
#include "storage/checkpoint_io.h"
#include "storage/edge_store.h"
#include "storage/log_store.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace turbo::bn {

struct BnConfig {
  /// Hierarchical windows **W**; the paper's empirical setting is
  /// [1h, 2h, ..., 12h, 1d].
  std::vector<SimTime> windows = DefaultWindows();

  /// Ablation knob: when false, each co-occurring pair receives weight 1
  /// instead of 1/N (used by bench_ablation_bn).
  bool inverse_weighting = true;

  /// Section V: edges not refreshed for 60 days are expired.
  SimTime edge_ttl = 60 * kDay;

  /// Safety valve for pathological buckets (e.g. a stadium AP): if more
  /// than this many distinct users share one value in one epoch, a random
  /// subset of this size is pairwise-connected (weights still use the true
  /// 1/N, so total mass stays faithful). Large enough to be inactive on
  /// realistic data.
  int max_bucket_users = 500;

  /// Shards the active keys of one window job are partitioned into.
  /// Purely a parallelism knob: results are identical for any value.
  int window_job_shards = 8;

  /// Reuse the smallest window's deduped per-value user buckets when
  /// running jobs for larger windows (requires every window to be a
  /// multiple of the smallest; disabled automatically otherwise).
  bool reuse_base_buckets = true;

  /// Seed mixed into per-bucket RNG streams (pathological-bucket
  /// subsampling). Same seed => same subsets on every engine.
  uint64_t bucket_sample_seed = 0x5eed;

  /// Cluster shard layout (partition.h). Window jobs only process
  /// (type, value) keys this shard owns, so a value replicated to both
  /// its user-owner and value-owner shards is edge-built exactly once
  /// cluster-wide. The default single-shard topology owns every key —
  /// standalone servers are unaffected. Part of the checkpoint config
  /// fingerprint.
  ShardTopology topology;

  static std::vector<SimTime> DefaultWindows();
};

/// Streams behavior logs into an EdgeStore according to Algorithm 1.
class BnBuilder {
 public:
  BnBuilder(BnConfig config, storage::EdgeStore* edges);

  /// Pool the per-job shards run on; nullptr (default) executes shards
  /// serially on the calling thread. The pool is borrowed, not owned.
  void SetThreadPool(util::ThreadPool* pool) { pool_ = pool; }

  /// Registry receiving the job metrics (bn_window_job_ms,
  /// bn_window_jobs_total, bn_window_edge_updates_total, per-shard
  /// bn_window_shard_*, bn_window_merge_ms, bucket-cache counters).
  /// Optional; nullptr disables reporting. Handles are resolved once
  /// here, so the call must precede the first job.
  void SetMetrics(obs::MetricsRegistry* metrics);

  /// Offline batch construction over a full log list (experiments).
  /// Replays the exact window-job schedule a live server would run while
  /// advancing to the end of the timeline, so the resulting weights are
  /// bit-identical to streamed ingestion over the same logs. Rejects
  /// negative timestamps.
  void BuildFromLogs(const BehaviorLogList& logs);

  /// Online path: processes the epoch (epoch_end - window, epoch_end] of
  /// one window size (the first epoch, epoch_end == window, additionally
  /// includes t = 0), querying the log store for the active values — this
  /// is the "hourly job for the 1-hour window" of Section V. Returns the
  /// number of edge-weight updates applied (observability).
  size_t RunWindowJob(const storage::LogStore& store, SimTime window,
                      SimTime epoch_end);

  /// Algorithm 1's job schedule, shared by BuildFromLogs and the live
  /// server: runs every (window, epoch) job that ends at or before
  /// `until`, in global epoch-time order with ties to the smaller window,
  /// so base-window buckets are cached right before the larger windows
  /// that merge them. After every job the cache is evicted to the slowest
  /// window's frontier, which keeps it bounded by the largest window
  /// rather than the gap being caught up. `last_end[i]` is the epoch end
  /// of window i's last job and advances in place. Returns the number of
  /// jobs run.
  size_t RunDueJobs(const storage::LogStore& store, SimTime until,
                    std::vector<SimTime>* last_end);

  /// Expires edges older than `now - edge_ttl`. Returns edges removed.
  /// Expired-edge endpoints are recorded in the pending churn set.
  size_t ExpireOld(SimTime now);

  /// Returns both endpoints of every edge touched (weight added or
  /// expired) since the last call, and resets the accumulator. This is
  /// the churn set the incremental snapshot and delta-checkpoint paths
  /// consume: a node absent from it has a bit-identical adjacency row in
  /// the EdgeStore. The caller (BnServer) merges it into its
  /// per-consumer churn sets — one cleared at each snapshot publish, one
  /// at each checkpoint.
  storage::EdgeChurn TakeChurn();

  /// Drops cached base-window buckets for epochs ending at or before
  /// `upto`. The server calls this with the minimum per-window job
  /// frontier: no future job can need buckets at or before it.
  void EvictCachedBuckets(SimTime upto);

  /// Base-window epochs currently cached (observability / tests).
  size_t CachedBucketEpochs() const { return base_buckets_.size(); }

  /// Approximate bytes held by the bucket cache (keys + user arrays) —
  /// mirrored into the bn_bucket_cache_bytes gauge.
  size_t CachedBucketBytes() const { return cache_bytes_; }

  /// Largest cached base-epoch end, or 0 when the cache is empty. New
  /// epochs only ever appear above this (jobs run forward in time), so
  /// (MaxCachedEpoch at checkpoint k, SerializeCacheSince at k+1) yields
  /// exactly the epochs added in between.
  SimTime MaxCachedEpoch() const {
    return base_buckets_.empty() ? 0 : base_buckets_.rbegin()->first;
  }

  /// Checkpoint hook: persists the cached base-window buckets of the
  /// epochs ending strictly after `after` (epoch by epoch, keys in
  /// canonical order); 0 persists the whole cache. A recovered
  /// builder's merge path then serves the same jobs from cache that the
  /// uncrashed one would — a lost cache would silently fall back to
  /// raw-log scans, which is bit-identical but defeats the
  /// hierarchical-reuse speedup.
  void SerializeCacheSince(SimTime after, storage::BinaryWriter* w) const;

  /// Applies a SerializeCacheSince()d section on top of the current
  /// cache: listed epochs replace same-keyed entries, others are kept.
  /// The caller then evicts with the recovered job frontiers to drop
  /// epochs the checkpoint writer had already evicted. Fails (cache
  /// cleared) on truncation, an out-of-range behavior type, a negative
  /// epoch end or a bucket user id at or past `num_users`.
  Status DeserializeCacheDelta(storage::BinaryReader* r, UserId num_users);

  /// Epoch index of time `t` (>= 0) for `window`: epoch 1 covers
  /// [0, window], epoch j > 1 covers ((j-1)*window, j*window].
  static int64_t EpochIndex(SimTime t, SimTime window) {
    TURBO_CHECK_GE(t, 0);
    TURBO_CHECK_GT(window, 0);
    return t <= window ? 1 : (t + window - 1) / window;
  }

  const BnConfig& config() const { return config_; }

 private:
  using ValueKey = storage::LogStore::ValueKey;
  using ValueKeyHash = storage::LogStore::ValueKeyHash;

  /// One pending edge-weight update. Stamps are implicit (the job's
  /// epoch_end), so a delta is 16 bytes.
  struct EdgeDelta {
    int edge_type;
    UserId u;
    UserId v;
    float w;
  };

  struct ShardState {
    std::vector<ValueKey> keys;
    std::vector<EdgeDelta> deltas;
    // Deduped user buckets recorded while running a base-window job.
    std::vector<std::pair<ValueKey, std::vector<UserId>>> buckets;
    double millis = 0.0;
  };

  /// Appends the pairwise deltas of one (type, value, window, epoch)
  /// bucket of distinct users. Pathological buckets draw their subset
  /// from a stream seeded by the bucket coordinates, independent of
  /// processing order.
  void AppendBucketDeltas(int edge_type, const std::vector<UserId>& users,
                          const ValueKey& key, SimTime window,
                          SimTime epoch_end,
                          std::vector<EdgeDelta>* out) const;

  /// Smallest window, the granularity buckets are cached at.
  SimTime base_window() const { return config_.windows.front(); }

  /// True when all needed base epochs of (epoch_start, epoch_end] are
  /// cached, i.e. the merge path can serve this job without touching the
  /// log store.
  bool HaveCachedRange(SimTime epoch_start, SimTime epoch_end) const;

  /// Sorted deduped union of the cached base buckets of `key` across the
  /// base epochs spanning (epoch_start, epoch_end].
  void MergeCachedUsers(const ValueKey& key, SimTime epoch_start,
                        SimTime epoch_end,
                        std::vector<UserId>* users) const;

  /// Cache-accounting cost of one bucket (key + user array payload).
  static size_t BucketBytes(const std::vector<UserId>& users) {
    return sizeof(ValueKey) + users.size() * sizeof(UserId);
  }

  /// Mirrors the cache size counters into their gauges (when registered).
  void UpdateCacheGauges();

  BnConfig config_;
  storage::EdgeStore* edges_;
  util::ThreadPool* pool_ = nullptr;
  /// Endpoints touched since the last TakeChurn().
  storage::EdgeChurn pending_churn_;
  /// Running BucketBytes() total over the cache (see CachedBucketBytes).
  size_t cache_bytes_ = 0;
  /// True when every window is a multiple of the smallest — the
  /// precondition for base-bucket reuse.
  bool reuse_eligible_ = false;
  /// Per base-epoch (keyed by epoch_end) deduped user buckets of every
  /// active edge-building key. An entry exists for every base epoch whose
  /// job ran (possibly empty), which is what HaveCachedRange tests.
  std::map<SimTime,
           std::unordered_map<ValueKey, std::vector<UserId>, ValueKeyHash>>
      base_buckets_;

  // Metric handles (null when SetMetrics was not called).
  obs::Histogram* job_ms_ = nullptr;
  obs::Counter* jobs_ = nullptr;
  obs::Counter* edge_updates_ = nullptr;
  obs::Histogram* shard_ms_ = nullptr;
  obs::Histogram* shard_keys_ = nullptr;
  obs::Histogram* merge_ms_ = nullptr;
  obs::Counter* cache_merge_jobs_ = nullptr;
  obs::Counter* scan_jobs_ = nullptr;
  obs::Gauge* cache_epochs_g_ = nullptr;
  obs::Gauge* cache_bytes_g_ = nullptr;
};

}  // namespace turbo::bn
