#include "features/feature_store.h"

namespace turbo::features {

namespace {

// The profile database is a networked SQL store; the Section V cache
// layer mirrors it (and the raw logs) in a Redis-like memory store.
constexpr storage::MediumCost kDbCost = storage::MediumCost::NetworkedSql();
constexpr storage::MediumCost kCacheCost =
    storage::MediumCost::InMemoryCache();

}  // namespace

FeatureStore::FeatureStore(FeatureStoreConfig config,
                           const storage::LogStore* logs)
    : config_(config),
      logs_(logs),
      profiles_(kDbCost),
      cache_(config.cache_capacity, kCacheCost) {
  TURBO_CHECK(logs_ != nullptr);
}

void FeatureStore::PutProfile(UserId uid, std::vector<float> row) {
  TURBO_CHECK(!row.empty());
  std::lock_guard<std::mutex> lock(mu_);
  if (profile_dim_ == 0) {
    profile_dim_ = row.size();
  } else {
    TURBO_CHECK_EQ(row.size(), profile_dim_);
  }
  profiles_.Put(uid, std::move(row));
}

std::vector<float> FeatureStore::GetFeatures(UserId uid, SimTime as_of,
                                             storage::SimClock* clock) {
  std::lock_guard<std::mutex> lock(mu_);
  // Rows are metered locally, then charged at the medium the active
  // configuration serves them from (SQL vs in-memory mirror).
  const storage::MediumCost& medium = config_.use_cache ? kCacheCost : kDbCost;
  storage::SimClock meter;
  auto profile = profiles_.Get(uid, &meter);
  if (clock) clock->ChargeQuery(medium, 1);
  if (!profile.has_value()) return {};

  std::array<float, kNumStatFeatures> stats{};
  const StatKey key = (static_cast<uint64_t>(uid) << 24) |
                      (static_cast<uint64_t>(as_of / kHour) & 0xffffff);
  bool have = false;
  if (config_.use_cache) {
    auto cached = cache_.Get(key, clock);
    if (cached.has_value()) {
      stats = *cached;
      have = true;
    }
  }
  if (!have) {
    storage::SimClock scan;
    stats = ComputeStatFeatures(*logs_, uid, as_of, &scan);
    if (clock) clock->ChargeQuery(medium, scan.rows());
    if (config_.use_cache) cache_.Put(key, stats, clock);
  }

  std::vector<float> out = *profile;
  out.insert(out.end(), stats.begin(), stats.end());
  return out;
}

}  // namespace turbo::features
