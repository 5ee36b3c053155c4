#include "server/load_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <thread>

#include "util/rng.h"

namespace turbo::server {

namespace {

using Clock = std::chrono::steady_clock;

double ToMillis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Arrival {
  double t_s = 0.0;
  bool prediction = true;
};

/// Pre-generated Poisson arrival times: the open-loop schedule exists
/// before the run starts, so lateness in dispatching an arrival can never
/// thin the offered load (the coordinated-omission fix).
void AppendArrivals(double rate, double duration_s, uint64_t seed,
                    bool prediction, std::vector<Arrival>* out) {
  if (rate <= 0.0) return;
  Rng rng(Mix64(seed));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) return;
    out->push_back(Arrival{t, prediction});
  }
}

}  // namespace

OpenLoopLoadGen::OpenLoopLoadGen(LoadGenConfig config,
                                 PredictionServer* prediction,
                                 BnServer* bn,
                                 obs::MetricsRegistry* registry)
    : config_(config),
      prediction_(prediction),
      bn_(bn),
      registry_(registry) {
  TURBO_CHECK(prediction_ != nullptr);
  TURBO_CHECK(registry_ != nullptr);
  TURBO_CHECK_GT(config_.prediction_rate, 0.0);
  TURBO_CHECK_GT(config_.duration_s, 0.0);
  TURBO_CHECK_GT(config_.slo_ms, 0.0);
  if (config_.ingest_rate > 0.0) TURBO_CHECK(bn_ != nullptr);
}

LoadGenResult OpenLoopLoadGen::Run(const std::vector<UserId>& targets,
                                   const BehaviorLogList& ingest_pool) {
  TURBO_CHECK_GT(targets.size(), 0u);
  const bool ingest = config_.ingest_rate > 0.0 && !ingest_pool.empty();

  std::vector<Arrival> schedule;
  AppendArrivals(config_.prediction_rate, config_.duration_s, config_.seed,
                 /*prediction=*/true, &schedule);
  AppendArrivals(ingest ? config_.ingest_rate : 0.0, config_.duration_s,
                 config_.seed + 1, /*prediction=*/false, &schedule);
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.t_s < b.t_s;
                   });

  obs::Histogram* e2e_ms = registry_->GetHistogram("load_e2e_latency_ms");
  obs::Histogram* ingest_ms =
      registry_->GetHistogram("load_ingest_apply_ms");
  const uint64_t e2e_base = e2e_ms->count();

  LoadGenResult r;
  std::atomic<size_t> served{0};
  std::atomic<size_t> shed_any{0};  // deadline sheds + admission rejects
  std::atomic<size_t> in_deadline{0};

  // Intended offer times of ring entries, FIFO (one producer, one
  // consumer; the ring preserves single-producer order).
  std::mutex ingest_mu;
  std::deque<Clock::time_point> ingest_intended;
  std::atomic<size_t> ingest_applied{0};
  std::atomic<bool> drain_stop{false};
  std::thread drain;
  if (ingest) {
    drain = std::thread([&] {
      constexpr size_t kDrainBatch = 256;
      for (;;) {
        const size_t n = bn_->DrainIngest(kDrainBatch);
        if (n > 0) {
          const auto now = Clock::now();
          std::lock_guard<std::mutex> lock(ingest_mu);
          for (size_t i = 0; i < n; ++i) {
            ingest_ms->Observe(ToMillis(now - ingest_intended.front()));
            ingest_intended.pop_front();
          }
          ingest_applied.fetch_add(n, std::memory_order_relaxed);
        } else if (drain_stop.load(std::memory_order_acquire) &&
                   bn_->ingest_queue_depth() == 0) {
          return;
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }

  prediction_->StartBatching(config_.batching);
  // A small lead keeps the first arrivals from being born late.
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto slo = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(config_.slo_ms));
  const SimTime ingest_stamp = bn_ != nullptr ? bn_->now() : 0;
  size_t next_target = 0;
  size_t next_log = 0;

  for (const Arrival& a : schedule) {
    const auto intended =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.t_s));
    // No-op once the generator is behind schedule: the arrival fires
    // immediately and its lateness is charged to the measured latency
    // (measured from `intended`), never dropped from the offered load.
    std::this_thread::sleep_until(intended);
    if (a.prediction) {
      const UserId uid = targets[next_target++ % targets.size()];
      ++r.offered;
      const bool admitted = prediction_->SubmitCallback(
          uid, intended + slo,
          [&, intended](const PredictionResponse& resp) {
            if (resp.shed) {
              shed_any.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            const double ms = ToMillis(Clock::now() - intended);
            e2e_ms->Observe(ms);
            served.fetch_add(1, std::memory_order_relaxed);
            if (ms <= config_.slo_ms) {
              in_deadline.fetch_add(1, std::memory_order_relaxed);
            }
          });
      if (!admitted) ++r.rejected;
    } else {
      BehaviorLog log = ingest_pool[next_log++ % ingest_pool.size()];
      log.time = ingest_stamp;
      ++r.ingest_offered;
      {
        // Publish the intended time before the offer so the drain
        // thread can never pop an entry whose timestamp is missing;
        // a rejected offer takes its timestamp back (we are the only
        // pusher, so it is still at the back).
        std::lock_guard<std::mutex> lock(ingest_mu);
        ingest_intended.push_back(intended);
      }
      if (bn_->OfferIngest(log)) {
        ++r.ingest_accepted;
      } else {
        std::lock_guard<std::mutex> lock(ingest_mu);
        ingest_intended.pop_back();
      }
    }
  }

  // StopBatching drains the queue through the workers, so every
  // submitted request's callback has fired when it returns.
  prediction_->StopBatching();
  if (ingest) {
    drain_stop.store(true, std::memory_order_release);
    drain.join();
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  r.served = served.load();
  r.shed = shed_any.load() - r.rejected;
  r.in_deadline = in_deadline.load();
  r.goodput_rps = r.in_deadline / std::max(r.wall_s, 1e-9);
  r.goodput_frac =
      r.offered > 0
          ? static_cast<double>(r.in_deadline) / r.offered
          : 0.0;
  TURBO_CHECK_EQ(r.served + r.shed + r.rejected, r.offered);
  TURBO_CHECK_EQ(e2e_ms->count() - e2e_base, r.served);
  r.p50_ms = e2e_ms->Percentile(0.50);
  r.p99_ms = e2e_ms->Percentile(0.99);
  r.p999_ms = e2e_ms->Percentile(0.999);
  r.max_ms = e2e_ms->Max();
  r.mean_ms = e2e_ms->Mean();
  r.ingest_rejected = r.ingest_offered - r.ingest_accepted;
  r.ingest_applied = ingest_applied.load();
  r.ingest_p99_ms = ingest_ms->Percentile(0.99);
  return r;
}

}  // namespace turbo::server
