// Determinism contract of the sharded window-job engine (DESIGN.md
// "Ingestion & window jobs"): the EdgeStore weights produced by BN
// construction are bit-identical — exact double equality, not
// approximate — across shard counts, thread counts, bucket-cache reuse
// on/off, and streamed (job-by-job) versus offline (BuildFromLogs)
// execution.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bn/builder.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace turbo::bn {
namespace {

using storage::EdgeStore;
using storage::LogStore;

constexpr int kUsers = 160;

// Skewed synthetic traffic: a few hot values (buckets large enough to
// trip the pathological-bucket subsampler when max_bucket_users is
// small), a long tail of cold ones, several behavior types (one of them
// not edge-building), spread over a few days.
BehaviorLogList MakeLogs(uint64_t seed, size_t n, SimTime span) {
  const BehaviorType types[] = {BehaviorType::kIpv4, BehaviorType::kImei,
                                BehaviorType::kWifiMac, BehaviorType::kGps};
  Rng rng(seed);
  BehaviorLogList logs;
  logs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BehaviorLog log;
    log.uid = static_cast<UserId>(rng.NextUint(kUsers));
    log.type = types[rng.NextUint(4)];
    log.value = rng.NextZipf(40, 1.2);
    log.time = static_cast<SimTime>(rng.NextUint(
        static_cast<uint64_t>(span)));
    logs.push_back(log);
  }
  return logs;
}

BnConfig BaseConfig() {
  BnConfig cfg;
  cfg.windows = {kHour, 2 * kHour, 6 * kHour, kDay};
  cfg.max_bucket_users = 12;  // force the subsampled-bucket path
  return cfg;
}

TEST(BnBuilderParallelTest, ShardAndThreadCountsAreInvisible) {
  const BehaviorLogList logs = MakeLogs(0xA11CE, 6000, 3 * kDay);

  EdgeStore serial;
  {
    BnConfig cfg = BaseConfig();
    cfg.window_job_shards = 1;
    BnBuilder(cfg, &serial).BuildFromLogs(logs);  // no pool: serial path
  }
  EXPECT_GT(serial.TotalEdges(), 0u);

  for (int shards : {2, 4, 8}) {
    for (int threads : {0, 2, 8}) {  // 0 = no pool (serial shard loop)
      BnConfig cfg = BaseConfig();
      cfg.window_job_shards = shards;
      EdgeStore got;
      BnBuilder builder(cfg, &got);
      std::unique_ptr<util::ThreadPool> pool;
      if (threads > 0) {
        pool = std::make_unique<util::ThreadPool>(threads);
        builder.SetThreadPool(pool.get());
      }
      builder.BuildFromLogs(logs);
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      EXPECT_EQ(serial.FirstDifference(got), "");
    }
  }
}

TEST(BnBuilderParallelTest, BucketCacheReuseIsInvisible) {
  const BehaviorLogList logs = MakeLogs(0xBEE, 6000, 3 * kDay);
  EdgeStore scanned, reused;
  {
    BnConfig cfg = BaseConfig();
    cfg.reuse_base_buckets = false;
    BnBuilder(cfg, &scanned).BuildFromLogs(logs);
  }
  {
    BnConfig cfg = BaseConfig();
    cfg.reuse_base_buckets = true;
    BnBuilder(cfg, &reused).BuildFromLogs(logs);
  }
  EXPECT_GT(scanned.TotalEdges(), 0u);
  EXPECT_EQ(scanned.FirstDifference(reused), "");
}

// Streamed construction — running each (window, epoch) job against a log
// store in global epoch-time order, exactly like a live server advancing
// its clock — must equal offline BuildFromLogs, for the serial and the
// sharded engine alike.
TEST(BnBuilderParallelTest, StreamedJobsMatchOfflineBuild) {
  const BehaviorLogList logs = MakeLogs(0xCAFE, 6000, 3 * kDay);
  SimTime max_t = 0;
  for (const auto& log : logs) max_t = std::max(max_t, log.time);

  for (int shards : {1, 8}) {
    BnConfig cfg = BaseConfig();
    cfg.window_job_shards = shards;

    EdgeStore offline;
    BnBuilder(cfg, &offline).BuildFromLogs(logs);

    LogStore store;
    store.AppendBatch(logs);
    EdgeStore streamed;
    BnBuilder builder(cfg, &streamed);
    util::ThreadPool pool(4);
    if (shards > 1) builder.SetThreadPool(&pool);
    SimTime cap = 0;
    for (SimTime w : cfg.windows) {
      cap = std::max(cap, BnBuilder::EpochIndex(max_t, w) * w);
    }
    std::vector<SimTime> last_end(cfg.windows.size(), 0);
    for (;;) {
      int best = -1;
      SimTime best_end = 0;
      for (size_t i = 0; i < cfg.windows.size(); ++i) {
        const SimTime next = last_end[i] + cfg.windows[i];
        if (next > cap) continue;
        if (best < 0 || next < best_end) {
          best = static_cast<int>(i);
          best_end = next;
        }
      }
      if (best < 0) break;
      builder.RunWindowJob(store, cfg.windows[best], best_end);
      last_end[best] = best_end;
      builder.EvictCachedBuckets(
          *std::min_element(last_end.begin(), last_end.end()));
    }
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    EXPECT_EQ(offline.FirstDifference(streamed), "");
    // The interleaved schedule keeps the bucket cache bounded by the
    // largest window, and nothing lingers after eviction at the cap.
    EXPECT_LE(builder.CachedBucketEpochs(),
              static_cast<size_t>(cfg.windows.back() / cfg.windows.front()));
  }
}

TEST(BnBuilderParallelTest, BucketCacheBytesGaugeTracksAndStaysBounded) {
  // Regression for the bn_bucket_cache_bytes gauge: it must track the
  // builder's byte accounting exactly, and the interleaved job schedule
  // plus eviction must hold the cache at a steady state — a 10-day run
  // must not use more cache than its first days established.
  const BehaviorLogList logs = MakeLogs(0xB17E5, 12000, 10 * kDay);
  BnConfig cfg = BaseConfig();
  LogStore store;
  store.AppendBatch(logs);
  EdgeStore edges;
  BnBuilder builder(cfg, &edges);
  obs::MetricsRegistry registry;
  builder.SetMetrics(&registry);
  obs::Gauge* bytes_g = registry.GetGauge("bn_bucket_cache_bytes");

  std::vector<SimTime> last_end(cfg.windows.size(), 0);
  size_t early_max = 0;  // peak bytes in the first 3 days
  size_t late_max = 0;   // peak bytes afterwards
  for (;;) {
    int best = -1;
    SimTime best_end = 0;
    for (size_t i = 0; i < cfg.windows.size(); ++i) {
      const SimTime next = last_end[i] + cfg.windows[i];
      if (next > 10 * kDay) continue;
      if (best < 0 || next < best_end) {
        best = static_cast<int>(i);
        best_end = next;
      }
    }
    if (best < 0) break;
    builder.RunWindowJob(store, cfg.windows[best], best_end);
    last_end[best] = best_end;
    builder.EvictCachedBuckets(
        *std::min_element(last_end.begin(), last_end.end()));
    ASSERT_EQ(bytes_g->value(),
              static_cast<double>(builder.CachedBucketBytes()));
    size_t& peak = best_end <= 3 * kDay ? early_max : late_max;
    peak = std::max(peak, builder.CachedBucketBytes());
  }
  EXPECT_GT(early_max, 0u);
  // Steady state: the cache bound is enforced epoch after epoch instead
  // of drifting upward with run length. (Uniform traffic, so identical
  // load per day; a leak would make the late peak grow day over day.)
  EXPECT_LE(late_max, 2 * early_max);
  // Epoch-count bound: nothing older than the largest window survives.
  EXPECT_LE(builder.CachedBucketEpochs(),
            static_cast<size_t>(cfg.windows.back() / cfg.windows.front()));

  // Draining the cache must zero both the accounting and the gauge.
  builder.EvictCachedBuckets(20 * kDay);
  EXPECT_EQ(builder.CachedBucketBytes(), 0u);
  EXPECT_EQ(builder.CachedBucketEpochs(), 0u);
  EXPECT_EQ(bytes_g->value(), 0.0);
}

}  // namespace
}  // namespace turbo::bn
