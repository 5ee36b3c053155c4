// Real-time prediction server (Figure 2): orchestrates audit requests —
// subgraph sampling from the BN server, feature retrieval from the
// feature management module, and HAG inference — and reports the
// per-module latency split of Fig. 8a.
//
// Serving paths:
//  * Handle(uid): one request, unchanged drop-in behavior.
//  * HandleBatch(uids): micro-batching — one merged subgraph sampled
//    against a single pinned snapshot, one merged model forward, cost
//    amortized over the batch. Callable from any number of threads
//    concurrently (the BN read path is lock-free; the feature store and
//    the result cache serialize internally).
//  * StartBatching + SubmitAsync(uid): an optional coalescing queue that
//    gathers concurrent single requests into batches (up to
//    max_batch_size, waiting at most max_wait_ms) and executes them on a
//    private worker pool.
//  * SubmitWithDeadline / SubmitCallback: the admission-controlled form
//    of the queue. Each request carries a deadline; a worker popping a
//    batch sheds every request whose deadline already passed — before
//    sampling, features, or inference spend anything on it — and
//    completes it with a `shed` response (prediction_deadline_shed_total
//    counts these). BatchingConfig::max_queue bounds the queue itself:
//    past the cap, submissions are rejected at admission
//    (prediction_queue_rejected_total) rather than queued to miss their
//    deadline anyway. In-deadline requests take exactly the same
//    HandleBatch path as deadline-free ones, so admission control never
//    changes a served prediction (bit-identical; see
//    tests/server/admission_control_test.cc).
//
// Each batch computes only what its targets' probabilities depend on.
// The sample stage builds just the adjacency view HAG reads and asks
// HAG which rows its forward reads (Hag::InputRows, the targets'
// receptive field); the feature stage fetches those rows only and leaves
// the rest zero. The inference stage runs HAG's one serving forward
// (GnnTrainer::PredictTargetsInference): tape-free, over the receptive
// field's rows only. Each served probability is bit-identical to HAG's
// tape-free forward over the full sampled subgraph with every node's
// features (tests/server/prediction_server_test.cc).
//
// With `cache_capacity` > 0, predictions are memoized in an LRU keyed by
// (shard_tag, snapshot version, uid): entries are naturally unreachable
// once a new snapshot is published and the whole cache is dropped on
// version change.
//
// Latency accounting: compute stages (sampling with batch assembly,
// model forward) are measured in real wall-clock time; storage accesses
// additionally charge their modeled cost to a SimClock so the cached vs
// uncached comparison of Section V is reproducible without real network
// round-trips (see DESIGN.md §2). Every batch runs under an
// obs::StageTimer whose spans land in `predict_<stage>_ms` histograms of
// the server's MetricsRegistry — the per-stage breakdown the paper plots
// in Fig. 8a. Batched requests report each stage's cost divided evenly
// over the batch, so per-request numbers stay comparable across batch
// sizes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/hag.h"
#include "features/feature_store.h"
#include "ml/scaler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/bn_server.h"
#include "storage/lru_cache.h"
#include "util/rng.h"

namespace turbo::server {

struct PredictionConfig {
  /// Online blocking threshold (Section VI-E uses 0.85).
  double threshold = 0.85;
  /// Has no effect: the server always runs HAG's tape-free forward.
  /// Kept until its last caller stops assigning it.
  bool use_inference_path = false;
  /// Must stay false (the constructor CHECKs it): the server serves
  /// float weights only. Kept until its last caller stops assigning it.
  bool quantized_inference = false;
  /// Capacity (entries) of the snapshot-versioned prediction cache;
  /// 0 disables it. Keys are (shard_tag, snapshot version, uid), so a
  /// published snapshot implicitly invalidates every cached prediction.
  size_t cache_capacity = 0;
  /// Identity of the BN shard this server fronts in a BnCluster (0 for
  /// a standalone server). Mixed into every cache key: each shard
  /// numbers its snapshot versions independently, so the tag keeps
  /// shard key streams decorrelated (within one server keys are
  /// exactly injective either way; see CacheKey).
  uint32_t shard_tag = 0;
  /// Registry receiving the server's predict_* metrics. Not owned;
  /// null = a private per-server registry (isolates test/bench
  /// instances). Pass the BN server's registry to get one combined
  /// serving-path dump.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Coalescing-queue configuration for StartBatching().
struct BatchingConfig {
  /// Largest batch a worker executes in one HandleBatch call.
  int max_batch_size = 16;
  /// Worker threads draining the queue.
  int workers = 2;
  /// How long a worker waits for the queue to fill past one request
  /// before running a partial batch.
  double max_wait_ms = 1.0;
  /// Hard cap on queued requests; 0 = unbounded (the pre-admission-
  /// control behavior). Beyond the cap a submission is rejected
  /// immediately with a shed response — under sustained overload the
  /// queue would only grow until every entry misses its deadline, so
  /// bounding it is what keeps goodput from collapsing.
  size_t max_queue = 0;
};

struct PredictionResponse {
  double fraud_probability = 0.0;
  bool blocked = false;
  /// Nodes in the batch's sampled subgraph, not the rows whose features
  /// the batch fetched (the predict_feature_rows histogram counts those).
  /// The wire format and the serving benches read it.
  int subgraph_nodes = 0;
  /// Id of the request within this server (1-based, monotonic).
  uint64_t request_id = 0;
  /// Version of the BN snapshot this prediction was served against.
  uint64_t snapshot_version = 0;
  /// Size of the HandleBatch call that served this request (1 for
  /// Handle()).
  int batch_size = 1;
  /// True when the prediction came out of the snapshot-versioned cache
  /// (no sampling / features / forward ran for this uid).
  bool cache_hit = false;
  /// True when admission control dropped the request — its deadline
  /// passed while queued, or the queue cap rejected it outright. No
  /// sampling/features/inference ran; fraud_probability is 0, blocked
  /// is false, and request_id stays 0 (shed work never enters the
  /// serving pipeline).
  bool shed = false;
  // Per-module latency (milliseconds): wall-clock compute plus modeled
  // storage cost; for batched requests, the batch stage cost divided
  // evenly over its requests.
  double sampling_ms = 0.0;
  double feature_ms = 0.0;
  double inference_ms = 0.0;
  double total_ms = 0.0;
};

class PredictionServer {
 public:
  /// Deadlines are absolute steady-clock points (a relative budget is
  /// `steady_clock::now() + budget`); Deadline::max() means "no
  /// deadline".
  using Deadline = std::chrono::steady_clock::time_point;
  /// Completion callback for SubmitCallback. Invoked exactly once, on a
  /// batch worker thread for executed/deadline-shed requests or on the
  /// submitting thread for queue-cap rejections and the synchronous
  /// fallback. Must not call back into StartBatching/StopBatching.
  using DoneCallback = std::function<void(const PredictionResponse&)>;

  /// `model` must already be trained; `scaler` must be the one fitted on
  /// the training features; `features` serves raw (unscaled) rows.
  PredictionServer(PredictionConfig config, BnServer* bn,
                   features::FeatureStore* features, const core::Hag* model,
                   const ml::StandardScaler* scaler);
  ~PredictionServer();

  /// Handles one audit request for `uid` at server time.
  PredictionResponse Handle(UserId uid);

  /// Handles a micro-batch: one merged subgraph over all `uids` from a
  /// single pinned snapshot, one merged forward. Responses are in
  /// `uids` order. Thread-safe; concurrent calls batch independently.
  std::vector<PredictionResponse> HandleBatch(
      const std::vector<UserId>& uids);

  /// Starts the coalescing queue (idempotent; restarts with new config
  /// if already running).
  void StartBatching(BatchingConfig config);
  /// Drains the queue and joins the workers (no-op when not running).
  void StopBatching();
  /// Enqueues one request for batched execution. Falls back to a
  /// synchronous Handle() when the queue is not running.
  std::future<PredictionResponse> SubmitAsync(UserId uid);
  /// Like SubmitAsync, but the request is dropped (shed response) if
  /// `deadline` passes before a worker gets to it, or immediately if
  /// the queue is at BatchingConfig::max_queue.
  std::future<PredictionResponse> SubmitWithDeadline(UserId uid,
                                                     Deadline deadline);
  /// Callback form of SubmitWithDeadline — the open-loop load generator
  /// uses this to stamp completion times on the worker thread, without
  /// a future hand-off adding scheduler noise to the measurement.
  /// Returns false when the queue cap rejected the request at admission
  /// (the callback has already run with a shed response by then).
  bool SubmitCallback(UserId uid, Deadline deadline, DoneCallback done);

  /// Per-stage latency histograms (Fig. 8a breakdown), backed by the
  /// metrics registry.
  const obs::Histogram& sampling_latency() const { return *sample_ms_; }
  const obs::Histogram& feature_latency() const { return *feature_ms_; }
  const obs::Histogram& inference_latency() const {
    return *inference_ms_;
  }
  const obs::Histogram& total_latency() const { return *total_ms_; }

  /// The registry this server reports into (config.metrics or the
  /// private default).
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// (shard_tag, snapshot version, uid) -> cache key. UserId is
  /// 32-bit, so version and uid pack losslessly into one word; the
  /// shard tag is folded in through a bijective mix (MixSeeds is
  /// injective for a fixed tag), so keys never collide within a shard
  /// and are decorrelated across shards. Exposed for the keying test.
  static uint64_t CacheKey(uint32_t shard_tag, UserId uid,
                           uint64_t version) {
    const uint64_t packed =
        (version << 32) | static_cast<uint64_t>(uid);
    return shard_tag == 0 ? packed : MixSeeds(shard_tag, packed);
  }

 private:
  struct CachedPrediction {
    double probability = 0.0;
    int subgraph_nodes = 0;
  };
  struct PendingRequest {
    UserId uid = 0;
    Deadline deadline = Deadline::max();
    DoneCallback done;
  };

  /// Response for a request admission control dropped.
  static PredictionResponse ShedResponse();

  void BatchWorkerLoop();

  PredictionConfig config_;
  BnServer* bn_;
  features::FeatureStore* features_;
  const core::Hag* model_;
  const ml::StandardScaler* scaler_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* blocked_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* deadline_shed_ = nullptr;
  obs::Counter* queue_rejected_ = nullptr;
  obs::Gauge* queue_depth_g_ = nullptr;
  obs::Histogram* sample_ms_ = nullptr;
  obs::Histogram* feature_ms_ = nullptr;
  obs::Histogram* inference_ms_ = nullptr;
  obs::Histogram* total_ms_ = nullptr;
  obs::Histogram* subgraph_nodes_ = nullptr;
  obs::Histogram* feature_rows_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;

  // Snapshot-versioned prediction cache (LruCache is not thread-safe;
  // all access goes through cache_mu_). cache_version_ tracks the last
  // snapshot version seen so a publish drops the now-stale entries in
  // one Clear instead of waiting for LRU churn.
  std::mutex cache_mu_;
  storage::LruCache<uint64_t, CachedPrediction> cache_;
  uint64_t cache_version_ = 0;

  // Coalescing queue state.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  std::vector<std::thread> batch_workers_;
  BatchingConfig batching_;
  bool batching_running_ = false;
};

}  // namespace turbo::server
