#include "bn/builder.h"

#include <algorithm>

#include "util/time_util.h"

namespace turbo::bn {

std::vector<SimTime> BnConfig::DefaultWindows() {
  std::vector<SimTime> w;
  for (int h = 1; h <= 12; ++h) w.push_back(h * kHour);
  w.push_back(kDay);
  return w;
}

BnBuilder::BnBuilder(BnConfig config, storage::EdgeStore* edges)
    : config_(std::move(config)), edges_(edges) {
  TURBO_CHECK(edges_ != nullptr);
  TURBO_CHECK(!config_.windows.empty());
  for (SimTime w : config_.windows) TURBO_CHECK_GT(w, 0);
  TURBO_CHECK(std::is_sorted(config_.windows.begin(),
                             config_.windows.end()));
  TURBO_CHECK_GT(config_.window_job_shards, 0);
  reuse_eligible_ = config_.reuse_base_buckets;
  for (SimTime w : config_.windows) {
    if (w % base_window() != 0) reuse_eligible_ = false;
  }
}

void BnBuilder::SetMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  job_ms_ = metrics->GetHistogram("bn_window_job_ms");
  jobs_ = metrics->GetCounter("bn_window_jobs_total");
  edge_updates_ = metrics->GetCounter("bn_window_edge_updates_total");
  shard_ms_ = metrics->GetHistogram("bn_window_shard_ms");
  shard_keys_ = metrics->GetHistogram(
      "bn_window_shard_keys", obs::Histogram::LinearBuckets(0.0, 64.0, 65));
  merge_ms_ = metrics->GetHistogram("bn_window_merge_ms");
  cache_merge_jobs_ =
      metrics->GetCounter("bn_window_cache_merge_jobs_total");
  scan_jobs_ = metrics->GetCounter("bn_window_scan_jobs_total");
  cache_epochs_g_ = metrics->GetGauge("bn_bucket_cache_epochs");
  cache_bytes_g_ = metrics->GetGauge("bn_bucket_cache_bytes");
  UpdateCacheGauges();
}

void BnBuilder::UpdateCacheGauges() {
  if (cache_epochs_g_ != nullptr) {
    cache_epochs_g_->Set(static_cast<double>(base_buckets_.size()));
  }
  if (cache_bytes_g_ != nullptr) {
    cache_bytes_g_->Set(static_cast<double>(cache_bytes_));
  }
}

void BnBuilder::AppendBucketDeltas(int edge_type,
                                   const std::vector<UserId>& users,
                                   const ValueKey& key, SimTime window,
                                   SimTime epoch_end,
                                   std::vector<EdgeDelta>* out) const {
  const size_t n = users.size();
  if (n < 2) return;
  const float w = config_.inverse_weighting
                      ? 1.0f / static_cast<float>(n)
                      : 1.0f;
  if (n <= static_cast<size_t>(config_.max_bucket_users)) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        out->push_back({edge_type, users[i], users[j], w});
      }
    }
    return;
  }
  // Pathological bucket: connect a random subset, preserving the true
  // 1/N. The stream is seeded from the bucket's own coordinates, so the
  // drawn subset is a pure function of (key, window, epoch) — identical
  // no matter which shard, thread, or engine processes the bucket.
  uint64_t seed = MixSeeds(config_.bucket_sample_seed, key.value);
  seed = MixSeeds(seed, static_cast<uint64_t>(key.type));
  seed = MixSeeds(seed, static_cast<uint64_t>(window));
  seed = MixSeeds(seed, static_cast<uint64_t>(epoch_end));
  Rng rng(seed);
  auto idx = rng.SampleWithoutReplacement(
      n, static_cast<size_t>(config_.max_bucket_users));
  for (size_t i = 0; i < idx.size(); ++i) {
    for (size_t j = i + 1; j < idx.size(); ++j) {
      out->push_back({edge_type, users[idx[i]], users[idx[j]], w});
    }
  }
}

bool BnBuilder::HaveCachedRange(SimTime epoch_start,
                                SimTime epoch_end) const {
  for (SimTime e = epoch_start + base_window(); e <= epoch_end;
       e += base_window()) {
    if (!base_buckets_.contains(e)) return false;
  }
  return true;
}

void BnBuilder::MergeCachedUsers(const ValueKey& key, SimTime epoch_start,
                                 SimTime epoch_end,
                                 std::vector<UserId>* users) const {
  for (SimTime e = epoch_start + base_window(); e <= epoch_end;
       e += base_window()) {
    const auto& epoch_buckets = base_buckets_.at(e);
    auto it = epoch_buckets.find(key);
    if (it == epoch_buckets.end()) continue;
    users->insert(users->end(), it->second.begin(), it->second.end());
  }
  std::sort(users->begin(), users->end());
  users->erase(std::unique(users->begin(), users->end()), users->end());
}

size_t BnBuilder::RunWindowJob(const storage::LogStore& store,
                               SimTime window, SimTime epoch_end) {
  TURBO_CHECK_GT(window, 0);
  const SimTime epoch_start = epoch_end - window;
  // Epoch 1 covers [0, window]: include the origin in the query range.
  const SimTime lo = epoch_start > 0 ? epoch_start + 1 : 0;
  auto active = store.ActiveValues(lo, epoch_end);
  // Only edge-building keys this shard owns, in canonical order:
  // ActiveValues walks a hash set, and the shard contents must not
  // depend on its iteration order for the applied delta sequence to be
  // an engine invariant. The ownership filter is what makes a value
  // replicated to two cluster shards edge-build exactly once; under the
  // default single-shard topology it accepts every key.
  active.erase(std::remove_if(active.begin(), active.end(),
                              [this](const ValueKey& k) {
                                return EdgeTypeIndex(k.type) < 0 ||
                                       !OwnsValue(config_.topology,
                                                  k.type, k.value);
                              }),
               active.end());
  std::sort(active.begin(), active.end(), [](const ValueKey& a,
                                             const ValueKey& b) {
    return a.type != b.type ? a.type < b.type : a.value < b.value;
  });

  const bool is_base = reuse_eligible_ && window == base_window();
  const bool from_cache = reuse_eligible_ && window != base_window() &&
                          HaveCachedRange(epoch_start, epoch_end);
  const size_t num_shards =
      std::min<size_t>(config_.window_job_shards,
                       std::max<size_t>(1, active.size()));
  std::vector<ShardState> shards(num_shards);
  for (const auto& key : active) {
    shards[ValueKeyHash()(key) % num_shards].keys.push_back(key);
  }

  auto run_shard = [&](size_t s) {
    Stopwatch sw;
    ShardState& shard = shards[s];
    std::vector<UserId> users;
    for (const ValueKey& key : shard.keys) {
      users.clear();
      if (from_cache) {
        MergeCachedUsers(key, epoch_start, epoch_end, &users);
      } else {
        auto obs = store.QueryValue(key.type, key.value, lo, epoch_end);
        users.reserve(obs.size());
        for (const auto& o : obs) users.push_back(o.uid);
        // Distinct users only: N_{j,s} counts users, not log rows.
        std::sort(users.begin(), users.end());
        users.erase(std::unique(users.begin(), users.end()), users.end());
      }
      if (is_base) shard.buckets.emplace_back(key, users);
      AppendBucketDeltas(EdgeTypeIndex(key.type), users, key, window,
                         epoch_end, &shard.deltas);
    }
    shard.millis = sw.ElapsedMillis();
  };
  if (pool_ != nullptr && num_shards > 1) {
    pool_->ParallelFor(num_shards, 1, [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) run_shard(s);
    });
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }

  // Merge in shard-index order: together with the per-shard sorted key
  // order and the exact double accumulation in EdgeStore, the final
  // weights are bit-identical for any thread count.
  Stopwatch merge_sw;
  size_t updates = 0;
  for (ShardState& shard : shards) {
    for (const EdgeDelta& d : shard.deltas) {
      edges_->AddWeight(d.edge_type, d.u, d.v, d.w, epoch_end);
      // Both endpoints' adjacency rows changed — the churn contract the
      // incremental snapshot / delta checkpoint consumers rely on.
      pending_churn_.Touch(d.edge_type, d.u);
      pending_churn_.Touch(d.edge_type, d.v);
    }
    updates += shard.deltas.size();
    if (shard_ms_ != nullptr) {
      shard_ms_->Observe(shard.millis);
      shard_keys_->Observe(static_cast<double>(shard.keys.size()));
    }
  }
  if (is_base) {
    // Record the epoch even when empty — completeness is what the merge
    // path's HaveCachedRange checks.
    auto& slot = base_buckets_[epoch_end];
    for (ShardState& shard : shards) {
      for (auto& [key, users] : shard.buckets) {
        cache_bytes_ += BucketBytes(users);
        slot.emplace(key, std::move(users));
      }
    }
  }
  if (merge_ms_ != nullptr) {
    merge_ms_->Observe(merge_sw.ElapsedMillis());
    (from_cache ? cache_merge_jobs_ : scan_jobs_)->Increment();
    UpdateCacheGauges();
  }
  return updates;
}

size_t BnBuilder::RunDueJobs(const storage::LogStore& store, SimTime until,
                             std::vector<SimTime>* last_end) {
  const size_t num_windows = config_.windows.size();
  TURBO_CHECK_EQ(last_end->size(), num_windows);
  size_t jobs = 0;
  for (;;) {
    int best = -1;
    SimTime best_end = 0;
    for (size_t i = 0; i < num_windows; ++i) {
      const SimTime next = (*last_end)[i] + config_.windows[i];
      if (next > until) continue;
      if (best < 0 || next < best_end) {
        best = static_cast<int>(i);
        best_end = next;
      }
    }
    if (best < 0) break;
    Stopwatch job_sw;
    const size_t updates =
        RunWindowJob(store, config_.windows[best], best_end);
    if (job_ms_ != nullptr) {
      job_ms_->Observe(job_sw.ElapsedMillis());
      jobs_->Increment();
      edge_updates_->Increment(updates);
    }
    (*last_end)[best] = best_end;
    ++jobs;
    EvictCachedBuckets(*std::min_element(last_end->begin(), last_end->end()));
  }
  return jobs;
}

void BnBuilder::BuildFromLogs(const BehaviorLogList& logs) {
  // Replay the live schedule offline: index the logs once, then run every
  // (window, epoch) job in global epoch-time order — exactly the order a
  // BnServer advancing to the end of the timeline executes, so streamed
  // and offline construction produce bit-identical weights.
  storage::LogStore store;  // free-cost medium: no modeled DB charge
  SimTime max_t = 0;
  for (const auto& log : logs) {
    TURBO_CHECK_MSG(log.time >= 0, "negative timestamp "
                                       << log.time << " for uid "
                                       << log.uid
                                       << "; logs must use t >= 0");
    if (EdgeTypeIndex(log.type) < 0) continue;
    store.Append(log);
    max_t = std::max(max_t, log.time);
  }
  base_buckets_.clear();
  cache_bytes_ = 0;
  if (store.size() == 0) return;

  // Every window runs to the latest epoch boundary any window needs:
  // trailing jobs past the data are empty (and nearly free), but their
  // base-bucket entries keep the merge path complete for the larger
  // windows' final epochs.
  SimTime cap = 0;
  for (SimTime w : config_.windows) {
    cap = std::max(cap, EpochIndex(max_t, w) * w);
  }
  std::vector<SimTime> last_end(config_.windows.size(), 0);
  RunDueJobs(store, cap, &last_end);
  base_buckets_.clear();
  cache_bytes_ = 0;
  // Offline builds have no incremental consumers; drop the churn the
  // replayed jobs recorded instead of handing the whole graph to the
  // next TakeChurn() caller.
  pending_churn_.Clear();
  UpdateCacheGauges();
}

void BnBuilder::SerializeCacheSince(SimTime after,
                                    storage::BinaryWriter* w) const {
  // Epoch ends are positive and the map is ordered, so `after == 0`
  // degenerates to the full cache and the wire format stays identical.
  const auto begin = base_buckets_.upper_bound(after);
  w->U64(static_cast<uint64_t>(std::distance(begin, base_buckets_.end())));
  for (auto eit = begin; eit != base_buckets_.end(); ++eit) {
    const auto& [epoch_end, buckets] = *eit;
    w->I64(epoch_end);
    w->U64(buckets.size());
    // Canonical key order: the map is unordered and equal caches must
    // serialize to equal bytes.
    std::vector<ValueKey> keys;
    keys.reserve(buckets.size());
    for (const auto& [key, users] : buckets) keys.push_back(key);
    std::sort(keys.begin(), keys.end(),
              [](const ValueKey& a, const ValueKey& b) {
                return a.type != b.type ? a.type < b.type
                                        : a.value < b.value;
              });
    for (const ValueKey& key : keys) {
      const auto& users = buckets.at(key);
      w->U8(static_cast<uint8_t>(key.type));
      w->U64(key.value);
      w->U64(users.size());
      w->Bytes(users.data(), users.size() * sizeof(UserId));
    }
  }
}

Status BnBuilder::DeserializeCacheDelta(storage::BinaryReader* r,
                                        UserId num_users) {
  const auto fail = [this](const char* what) {
    base_buckets_.clear();
    cache_bytes_ = 0;
    UpdateCacheGauges();
    return Status::InvalidArgument(std::string("bucket-cache section: ") +
                                   what);
  };
  const uint64_t epochs = r->U64();
  for (uint64_t i = 0; i < epochs; ++i) {
    const SimTime epoch_end = r->I64();
    const uint64_t num_keys = r->U64();
    // Without this a corrupt epoch count would spin through zeroes.
    if (!r->ok()) return fail("truncated");
    if (epoch_end < 0) return fail("negative epoch end");
    std::unordered_map<ValueKey, std::vector<UserId>, ValueKeyHash> slot;
    for (uint64_t k = 0; k < num_keys; ++k) {
      ValueKey key;
      const uint8_t type = r->U8();
      key.type = static_cast<BehaviorType>(type);
      key.value = r->U64();
      const uint64_t n = r->U64();
      if (!r->ok() || n > r->remaining() / sizeof(UserId)) {
        return fail("truncated");
      }
      if (type >= kNumBehaviorTypes) return fail("bad behavior type");
      std::vector<UserId> users(n);
      r->Bytes(users.data(), n * sizeof(UserId));
      for (UserId u : users) {
        if (u >= num_users) return fail("bucket user id out of range");
      }
      slot.emplace(key, std::move(users));
    }
    // Replace the epoch wholesale (on the delta path it is always new —
    // epochs are only ever added above the previous maximum).
    auto it = base_buckets_.find(epoch_end);
    if (it != base_buckets_.end()) {
      for (const auto& [key, users] : it->second) {
        cache_bytes_ -= BucketBytes(users);
      }
      base_buckets_.erase(it);
    }
    for (const auto& [key, users] : slot) cache_bytes_ += BucketBytes(users);
    base_buckets_.emplace(epoch_end, std::move(slot));
  }
  if (!r->ok()) return fail("truncated");
  UpdateCacheGauges();
  return Status::OK();
}

size_t BnBuilder::ExpireOld(SimTime now) {
  return edges_->ExpireBefore(now - config_.edge_ttl, &pending_churn_);
}

storage::EdgeChurn BnBuilder::TakeChurn() {
  storage::EdgeChurn out = std::move(pending_churn_);
  pending_churn_.Clear();
  return out;
}

void BnBuilder::EvictCachedBuckets(SimTime upto) {
  const auto end = base_buckets_.upper_bound(upto);
  for (auto it = base_buckets_.begin(); it != end; ++it) {
    for (const auto& [key, users] : it->second) {
      cache_bytes_ -= BucketBytes(users);
    }
  }
  base_buckets_.erase(base_buckets_.begin(), end);
  UpdateCacheGauges();
}

}  // namespace turbo::bn
