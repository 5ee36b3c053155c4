// Open-loop load generation for the serving stack (ROADMAP item 3: the
// paper's §V latency story pushed to saturation).
//
// Closed-loop benches (bench_serving_throughput) keep a fixed number of
// requests in flight, so when the server slows down the offered load
// slows down with it — queueing delay is invisible and overload is
// unreachable. This harness is open-loop: arrivals follow a Poisson
// process at a configured rate whether or not the server keeps up, the
// way independent users behave.
//
// Coordinated-omission handling: every request's latency is measured
// from its INTENDED arrival time on the pre-generated schedule, not
// from the moment the generator thread actually got around to
// submitting it. If the generator falls behind (it shares cores with
// the server under test), the lateness lands in the recorded latency
// instead of silently thinning the offered load — the standard fix for
// coordinated omission in open-loop measurement.
//
// The generator drives both serving planes concurrently:
//  * predictions: PredictionServer::SubmitCallback with deadline =
//    intended arrival + slo_ms. The completion callback stamps the
//    finish time on the worker thread and records the queue-delay-
//    inclusive latency into the `load_e2e_latency_ms` histogram of the
//    given registry. Past-deadline work is shed by the server.
//  * ingest: BnServer::OfferIngest into the bounded MPSC ring; a drain
//    thread owned by the harness plays the BN writer, applying queued
//    logs and recording offer-to-apply latency (`load_ingest_apply_ms`).
//    A full ring rejects — backpressure, not an unbounded queue.
//
// Goodput = completions whose end-to-end latency met the SLO, per
// second — the number the overload acceptance criterion is written
// against (shed + rejected work absorbs the excess; goodput must not
// collapse).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "server/bn_server.h"
#include "server/prediction_server.h"

namespace turbo::server {

struct LoadGenConfig {
  /// Mean prediction arrival rate (requests/s). Must be > 0.
  double prediction_rate = 100.0;
  /// Mean ingest arrival rate (logs/s); 0 disables the ingest plane.
  double ingest_rate = 0.0;
  /// Length of the arrival schedule (seconds of wall time).
  double duration_s = 3.0;
  /// Per-request latency SLO; also the deadline handed to the server
  /// (intended arrival + slo_ms).
  double slo_ms = 50.0;
  /// Seeds the Poisson (exponential inter-arrival) schedules, which are
  /// deterministic given (seed, rate, duration).
  uint64_t seed = 1;
  /// Batching config for the server's coalescing queue (started and
  /// stopped by Run).
  BatchingConfig batching;
};

struct LoadGenResult {
  // Prediction plane.
  size_t offered = 0;      // scheduled arrivals
  size_t served = 0;       // completions that ran the pipeline
  size_t shed = 0;         // deadline sheds (server-side)
  size_t rejected = 0;     // queue-cap admission rejections
  size_t in_deadline = 0;  // served AND e2e latency <= slo_ms
  double goodput_rps = 0.0;   // in_deadline / wall duration
  double goodput_frac = 0.0;  // in_deadline / offered
  // Queue-delay-inclusive latency from intended arrival (ms), over
  // served (non-shed) requests.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
  // Ingest plane.
  size_t ingest_offered = 0;
  size_t ingest_accepted = 0;
  size_t ingest_rejected = 0;  // ring-full backpressure drops
  size_t ingest_applied = 0;
  double ingest_p99_ms = 0.0;  // offer-to-apply, same CO-safe clock
  // Wall time from first scheduled arrival to last completion.
  double wall_s = 0.0;
};

class OpenLoopLoadGen {
 public:
  /// `registry` receives the load_* histograms (pass the same registry
  /// as the servers' for one combined dump). The percentile fields of
  /// LoadGenResult read the registry's whole load_e2e_latency_ms
  /// histogram, so use a fresh registry per Run when per-run numbers
  /// matter. With ingest_rate > 0 the BnServer must have
  /// ingest_queue_capacity > 0, and nothing else may act as the BN
  /// writer while Run executes (the drain thread is the writer).
  OpenLoopLoadGen(LoadGenConfig config, PredictionServer* prediction,
                  BnServer* bn, obs::MetricsRegistry* registry);

  /// Replays one open-loop schedule: prediction targets cycle
  /// `targets`; ingest traffic cycles `ingest_pool` (timestamps are
  /// re-stamped to the BN server's current clock). Starts the server's
  /// coalescing queue, runs the schedule, waits for every in-flight
  /// request to complete, and stops the queue. Blocking; call from one
  /// thread at a time.
  LoadGenResult Run(const std::vector<UserId>& targets,
                    const BehaviorLogList& ingest_pool);

 private:
  LoadGenConfig config_;
  PredictionServer* prediction_;
  BnServer* bn_;
  obs::MetricsRegistry* registry_;
};

}  // namespace turbo::server
