// Append-only behavior-log store with the two secondary indexes the system
// needs: per-user time ranges (statistical features) and per-(type, value)
// time ranges (BN edge construction).
//
// Plays the role of the paper's "local database" holding raw logs. Every
// read can charge its modeled cost to a SimClock so the Section V cache
// study can compare media without changing callers.
//
// Thread safety: one writer (Append / AppendBatch / Deserialize) may run
// concurrently with any number of readers (QueryUser / QueryValue /
// ActiveValues / Users / Serialize / size) — the online system drains
// ingest on the BN writer thread while prediction workers read behavior
// statistics. Internally a shared_mutex serializes them; query paths
// take it shared and upgrade to exclusive only when a lazily-sorted
// index actually needs sorting.
#pragma once

#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/behavior_log.h"
#include "storage/checkpoint_io.h"
#include "storage/sim_clock.h"
#include "util/status.h"

namespace turbo::storage {

class LogStore {
 public:
  explicit LogStore(MediumCost cost = MediumCost::Free()) : cost_(cost) {}

  /// Appends one log. Out-of-order timestamps are accepted (indexes keep
  /// insertion order per key; queries sort lazily on first read after a
  /// write — logs arrive nearly sorted in practice).
  void Append(const BehaviorLog& log);
  void AppendBatch(const BehaviorLogList& logs);

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return total_;
  }

  /// All logs of `uid` with time in [t0, t1], ascending by time, charged
  /// to `clock` if given.
  BehaviorLogList QueryUser(UserId uid, SimTime t0, SimTime t1,
                            SimClock* clock = nullptr) const;

  /// All (uid, time) observations of value `v` of type `t` in [t0, t1].
  struct Observation {
    UserId uid;
    SimTime time;
  };
  std::vector<Observation> QueryValue(BehaviorType t, ValueId v, SimTime t0,
                                      SimTime t1,
                                      SimClock* clock = nullptr) const;

  /// Distinct (type, value) keys that received at least one log in
  /// [t0, t1] — drives the periodic BN window jobs.
  struct ValueKey {
    BehaviorType type;
    ValueId value;
    bool operator==(const ValueKey&) const = default;
  };
  /// Public so the BN window-job engine can shard active keys and cache
  /// per-key user buckets with the same hash the store indexes by.
  struct ValueKeyHash {
    size_t operator()(const ValueKey& k) const {
      return std::hash<uint64_t>()(k.value * 1315423911ULL +
                                   static_cast<uint64_t>(k.type));
    }
  };
  std::vector<ValueKey> ActiveValues(SimTime t0, SimTime t1) const;

  /// Users with at least one log (for dataset statistics).
  std::vector<UserId> Users() const;

  /// Checkpoint hook: writes the store structure-preserving, so restore
  /// is bulk vector fills instead of per-log re-indexing. Layout:
  ///
  ///   u64 total
  ///   u64 num_users; per user (uid ascending):
  ///     u32 uid, u8 sorted, u64 count, count x (u8 type, u64 value,
  ///     i64 time) in index order (uid implicit)
  ///   u64 num_keys; per (type, value) key ascending:
  ///     u8 type, u64 value, u8 sorted, u64 count, count x (u32 uid,
  ///     i64 time) in index order
  ///   u64 num_hours; per hour ascending:
  ///     i64 hour, u64 count, count x (u8 type, u64 value) key-ordered
  ///
  /// Cross-user interleaving of the original append sequence is not
  /// preserved — it is not observable through any query (per-key indexes
  /// sort lazily by time, and the sorted flags round-trip).
  void Serialize(BinaryWriter* w) const;

  /// Restores a Serialize()d store with one hash insert per user / key /
  /// hour bucket and bulk row decodes — roughly an order of magnitude
  /// cheaper than re-appending log by log, which is what keeps crash
  /// recovery ahead of a cold rebuild. Every count field is validated
  /// against the bytes remaining before allocation; fails (and leaves
  /// the store cleared) on truncation, inconsistent counts, a uid at or
  /// past `num_users` or a negative time, the checks a WAL record gets.
  Status Deserialize(BinaryReader* r, UserId num_users);

  const MediumCost& cost() const { return cost_; }

 private:
  struct UserIndex {
    std::vector<BehaviorLog> logs;
    bool sorted = true;
  };
  struct ValueIndex {
    std::vector<Observation> obs;
    bool sorted = true;
  };

  void AppendLocked(const BehaviorLog& log);
  std::vector<UserId> UsersLocked() const;
  BehaviorLogList SliceUser(const UserIndex& idx, SimTime t0, SimTime t1,
                            SimClock* clock) const;
  std::vector<Observation> SliceValue(const ValueIndex& idx, SimTime t0,
                                      SimTime t1, SimClock* clock) const;

  MediumCost cost_;
  /// Writer-vs-reader guard (see the thread-safety note above). Mutable
  /// because const query paths lock it — and, when an index is lazily
  /// sorted, lock it exclusively.
  mutable std::shared_mutex mu_;
  size_t total_ = 0;
  mutable std::unordered_map<UserId, UserIndex> by_user_;
  mutable std::unordered_map<ValueKey, ValueIndex, ValueKeyHash> by_value_;
  /// Hour-bucketed index of touched keys so the periodic window jobs can
  /// enumerate active values without scanning the whole key space.
  std::unordered_map<int64_t,
                     std::unordered_set<ValueKey, ValueKeyHash>>
      touched_by_hour_;
};

}  // namespace turbo::storage
