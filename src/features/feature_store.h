// Feature management module (Figure 2): serves the full node feature
// vector [X_u profile ; X_tau transaction ; X_s behavior statistics].
//
// The Section V optimization is modeled faithfully: with use_cache off,
// every profile row and raw-log row is charged at the networked-SQL
// cost; with use_cache on, the paper's Redis layer mirrors "the graph,
// user profile and application features, and behavior logs" in memory,
// so the same rows are charged at the in-memory cost, and an LRU
// additionally short-circuits recomputation of X_s within its key
// granularity.
//
// Thread safety: GetFeatures/PutProfile serialize on an internal mutex
// (the LRU mutates on every lookup), so concurrent prediction batches
// may share one store.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "features/stat_features.h"
#include "la/matrix.h"
#include "storage/kv_store.h"
#include "storage/lru_cache.h"

namespace turbo::features {

struct FeatureStoreConfig {
  bool use_cache = true;
  size_t cache_capacity = 100000;
};

class FeatureStore {
 public:
  FeatureStore(FeatureStoreConfig config, const storage::LogStore* logs);

  /// Registers a user's static profile+transaction feature row.
  void PutProfile(UserId uid, std::vector<float> row);

  /// Full feature vector for a user as of `as_of`. Profile part comes
  /// from the KV store; the statistical part is recomputed from raw logs
  /// on a cache miss and cached keyed by (uid, as_of bucketed hourly).
  /// Returns empty vector if the user has no profile row.
  std::vector<float> GetFeatures(UserId uid, SimTime as_of,
                                 storage::SimClock* clock = nullptr);

  /// Dimensionality of returned vectors (profile dim + stat dim).
  size_t dim() const { return profile_dim_ + kNumStatFeatures; }
  size_t profile_dim() const { return profile_dim_; }

  double cache_hit_rate() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.hit_rate();
  }

 private:
  using StatKey = uint64_t;  // (uid << 24) | hour bucket

  mutable std::mutex mu_;
  FeatureStoreConfig config_;
  const storage::LogStore* logs_;
  storage::KvStore<UserId, std::vector<float>> profiles_;
  storage::LruCache<StatKey, std::array<float, kNumStatFeatures>> cache_;
  size_t profile_dim_ = 0;
};

}  // namespace turbo::features
