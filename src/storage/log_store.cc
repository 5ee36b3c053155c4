#include "storage/log_store.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>

namespace turbo::storage {

void LogStore::Append(const BehaviorLog& log) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  AppendLocked(log);
}

void LogStore::AppendBatch(const BehaviorLogList& logs) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& l : logs) AppendLocked(l);
}

void LogStore::AppendLocked(const BehaviorLog& log) {
  auto& ui = by_user_[log.uid];
  if (!ui.logs.empty() && ui.logs.back().time > log.time) ui.sorted = false;
  ui.logs.push_back(log);

  auto& vi = by_value_[ValueKey{log.type, log.value}];
  if (!vi.obs.empty() && vi.obs.back().time > log.time) vi.sorted = false;
  vi.obs.push_back({log.uid, log.time});
  touched_by_hour_[log.time / kHour].insert(
      ValueKey{log.type, log.value});
  ++total_;
}

BehaviorLogList LogStore::SliceUser(const UserIndex& idx, SimTime t0,
                                    SimTime t1, SimClock* clock) const {
  auto lo = std::lower_bound(idx.logs.begin(), idx.logs.end(), t0,
                             [](const BehaviorLog& l, SimTime t) {
                               return l.time < t;
                             });
  auto hi = std::upper_bound(idx.logs.begin(), idx.logs.end(), t1,
                             [](SimTime t, const BehaviorLog& l) {
                               return t < l.time;
                             });
  BehaviorLogList out(lo, hi);
  if (clock) clock->ChargeQuery(cost_, static_cast<int64_t>(out.size()));
  return out;
}

BehaviorLogList LogStore::QueryUser(UserId uid, SimTime t0, SimTime t1,
                                    SimClock* clock) const {
  // Fast path: a shared lock suffices once the index is time-sorted.
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = by_user_.find(uid);
    if (it == by_user_.end()) {
      if (clock) clock->ChargeQuery(cost_, 0);
      return {};
    }
    if (it->second.sorted) return SliceUser(it->second, t0, t1, clock);
  }
  // Lazy sort mutates the index: retake exclusively and redo the lookup
  // (the writer may have appended in the unlock/relock gap).
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_user_.find(uid);
  if (it == by_user_.end()) {
    if (clock) clock->ChargeQuery(cost_, 0);
    return {};
  }
  auto& idx = it->second;
  if (!idx.sorted) {
    std::sort(idx.logs.begin(), idx.logs.end(),
              [](const BehaviorLog& a, const BehaviorLog& b) {
                return a.time < b.time;
              });
    idx.sorted = true;
  }
  return SliceUser(idx, t0, t1, clock);
}

std::vector<LogStore::Observation> LogStore::SliceValue(
    const ValueIndex& idx, SimTime t0, SimTime t1, SimClock* clock) const {
  auto lo = std::lower_bound(
      idx.obs.begin(), idx.obs.end(), t0,
      [](const Observation& o, SimTime t) { return o.time < t; });
  auto hi = std::upper_bound(
      idx.obs.begin(), idx.obs.end(), t1,
      [](SimTime t, const Observation& o) { return t < o.time; });
  std::vector<Observation> out(lo, hi);
  if (clock) clock->ChargeQuery(cost_, static_cast<int64_t>(out.size()));
  return out;
}

std::vector<LogStore::Observation> LogStore::QueryValue(
    BehaviorType t, ValueId v, SimTime t0, SimTime t1,
    SimClock* clock) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = by_value_.find(ValueKey{t, v});
    if (it == by_value_.end()) {
      if (clock) clock->ChargeQuery(cost_, 0);
      return {};
    }
    if (it->second.sorted) return SliceValue(it->second, t0, t1, clock);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_value_.find(ValueKey{t, v});
  if (it == by_value_.end()) {
    if (clock) clock->ChargeQuery(cost_, 0);
    return {};
  }
  auto& idx = it->second;
  if (!idx.sorted) {
    std::sort(idx.obs.begin(), idx.obs.end(),
              [](const Observation& a, const Observation& b) {
                return a.time < b.time;
              });
    idx.sorted = true;
  }
  return SliceValue(idx, t0, t1, clock);
}

std::vector<LogStore::ValueKey> LogStore::ActiveValues(SimTime t0,
                                                       SimTime t1) const {
  // Window jobs run on the writer thread and this path may lazily sort,
  // so take the exclusive lock outright instead of upgrading per key.
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Union of the hour buckets overlapping [t0, t1]; bucket granularity
  // makes this proportional to the touched keys, not the key space.
  std::unordered_set<ValueKey, ValueKeyHash> seen;
  const int64_t b0 = t0 >= 0 ? t0 / kHour : (t0 - kHour + 1) / kHour;
  const int64_t b1 = t1 >= 0 ? t1 / kHour : (t1 - kHour + 1) / kHour;
  for (int64_t b = b0; b <= b1; ++b) {
    auto it = touched_by_hour_.find(b);
    if (it == touched_by_hour_.end()) continue;
    seen.insert(it->second.begin(), it->second.end());
  }
  // Bucket overlap is coarse; filter to exact range membership. Sort the
  // key's observations lazily (same as QueryValue) so the membership
  // test is a binary search — a linear scan here is O(all rows of the
  // key) per call, which quietly dominated window jobs on hot keys whose
  // history is much longer than the queried epoch.
  std::vector<ValueKey> out;
  out.reserve(seen.size());
  for (const auto& key : seen) {
    auto& idx = by_value_.at(key);
    if (!idx.sorted) {
      std::sort(idx.obs.begin(), idx.obs.end(),
                [](const Observation& a, const Observation& b) {
                  return a.time < b.time;
                });
      idx.sorted = true;
    }
    auto lo = std::lower_bound(
        idx.obs.begin(), idx.obs.end(), t0,
        [](const Observation& o, SimTime t) { return o.time < t; });
    if (lo != idx.obs.end() && lo->time <= t1) out.push_back(key);
  }
  return out;
}

namespace {

// Fixed row widths of the bulk log-section format (see log_store.h).
constexpr size_t kUserRowBytes = 1 + 8 + 8;  // type, value, time
constexpr size_t kObsRowBytes = 4 + 8;       // uid, time
constexpr size_t kKeyRowBytes = 1 + 8;       // type, value

}  // namespace

void LogStore::Serialize(BinaryWriter* w) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  w->U64(total_);

  // Per-user log runs, uid ascending; uid is implicit in the rows.
  w->U64(by_user_.size());
  for (UserId uid : UsersLocked()) {
    const UserIndex& idx = by_user_.at(uid);
    w->U32(uid);
    w->U8(idx.sorted ? 1 : 0);
    w->U64(idx.logs.size());
    for (const BehaviorLog& log : idx.logs) {
      char row[kUserRowBytes];
      row[0] = static_cast<char>(log.type);
      std::memcpy(row + 1, &log.value, sizeof(log.value));
      std::memcpy(row + 9, &log.time, sizeof(log.time));
      w->Bytes(row, sizeof(row));
    }
  }

  // Per-(type, value) observation runs, keys in (type, value) order.
  std::vector<ValueKey> keys;
  keys.reserve(by_value_.size());
  for (const auto& [key, idx] : by_value_) keys.push_back(key);
  std::sort(keys.begin(), keys.end(),
            [](const ValueKey& a, const ValueKey& b) {
              return a.type != b.type ? a.type < b.type : a.value < b.value;
            });
  w->U64(keys.size());
  for (const ValueKey& key : keys) {
    const ValueIndex& idx = by_value_.at(key);
    w->U8(static_cast<uint8_t>(key.type));
    w->U64(key.value);
    w->U8(idx.sorted ? 1 : 0);
    w->U64(idx.obs.size());
    for (const Observation& o : idx.obs) {
      char row[kObsRowBytes];
      std::memcpy(row, &o.uid, sizeof(o.uid));
      std::memcpy(row + 4, &o.time, sizeof(o.time));
      w->Bytes(row, sizeof(row));
    }
  }

  // Hour buckets of touched keys, hours ascending, keys ordered.
  std::vector<int64_t> hours;
  hours.reserve(touched_by_hour_.size());
  for (const auto& [hour, keys_in_hour] : touched_by_hour_) {
    hours.push_back(hour);
  }
  std::sort(hours.begin(), hours.end());
  w->U64(hours.size());
  for (int64_t hour : hours) {
    const auto& keys_in_hour = touched_by_hour_.at(hour);
    std::vector<ValueKey> bucket(keys_in_hour.begin(), keys_in_hour.end());
    std::sort(bucket.begin(), bucket.end(),
              [](const ValueKey& a, const ValueKey& b) {
                return a.type != b.type ? a.type < b.type
                                        : a.value < b.value;
              });
    w->I64(hour);
    w->U64(bucket.size());
    for (const ValueKey& key : bucket) {
      char row[kKeyRowBytes];
      row[0] = static_cast<char>(key.type);
      std::memcpy(row + 1, &key.value, sizeof(key.value));
      w->Bytes(row, sizeof(row));
    }
  }
}

Status LogStore::Deserialize(BinaryReader* r, UserId num_users) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  by_user_.clear();
  by_value_.clear();
  touched_by_hour_.clear();
  total_ = 0;
  auto fail = [this](const char* what) {
    by_user_.clear();
    by_value_.clear();
    touched_by_hour_.clear();
    total_ = 0;
    return Status::InvalidArgument(std::string("log section: ") + what);
  };

  const uint64_t total = r->U64();

  // Per-user runs. Every count is checked against the bytes actually
  // remaining before any allocation, so a corrupt length field fails
  // cleanly instead of triggering a huge resize.
  const uint64_t num_runs = r->U64();
  if (!r->ok() || num_runs > r->remaining() / (4 + 1 + 8)) {
    return fail("bad user count");
  }
  by_user_.reserve(num_runs);
  uint64_t logs_seen = 0;
  for (uint64_t u = 0; u < num_runs; ++u) {
    const UserId uid = r->U32();
    const uint8_t sorted = r->U8();
    const uint64_t count = r->U64();
    if (!r->ok() || count > r->remaining() / kUserRowBytes) {
      return fail("truncated user run");
    }
    if (uid >= num_users) return fail("user run uid out of range");
    UserIndex& idx = by_user_[uid];
    if (!idx.logs.empty()) return fail("duplicate user run");
    idx.sorted = sorted != 0;
    idx.logs.resize(count);
    const char* p = r->Take(count * kUserRowBytes);
    for (uint64_t i = 0; i < count; ++i, p += kUserRowBytes) {
      if (static_cast<uint8_t>(p[0]) >= kNumBehaviorTypes) {
        return fail("bad behavior type");
      }
      BehaviorLog& log = idx.logs[i];
      log.uid = uid;
      log.type = static_cast<BehaviorType>(static_cast<uint8_t>(p[0]));
      std::memcpy(&log.value, p + 1, sizeof(log.value));
      std::memcpy(&log.time, p + 9, sizeof(log.time));
      if (log.time < 0) return fail("negative log time");
    }
    logs_seen += count;
  }
  if (logs_seen != total) return fail("log count mismatch");

  // Per-(type, value) observation runs.
  const uint64_t num_keys = r->U64();
  if (!r->ok() || num_keys > r->remaining() / (1 + 8 + 1 + 8)) {
    return fail("bad value-key count");
  }
  by_value_.reserve(num_keys);
  uint64_t obs_seen = 0;
  for (uint64_t k = 0; k < num_keys; ++k) {
    ValueKey key;
    const uint8_t type = r->U8();
    key.type = static_cast<BehaviorType>(type);
    key.value = r->U64();
    const uint8_t sorted = r->U8();
    const uint64_t count = r->U64();
    if (!r->ok() || count > r->remaining() / kObsRowBytes) {
      return fail("truncated observation run");
    }
    if (type >= kNumBehaviorTypes) return fail("bad behavior type");
    ValueIndex& idx = by_value_[key];
    if (!idx.obs.empty()) return fail("duplicate value-key run");
    idx.sorted = sorted != 0;
    idx.obs.resize(count);
    const char* p = r->Take(count * kObsRowBytes);
    for (uint64_t i = 0; i < count; ++i, p += kObsRowBytes) {
      Observation& o = idx.obs[i];
      std::memcpy(&o.uid, p, sizeof(o.uid));
      std::memcpy(&o.time, p + 4, sizeof(o.time));
      if (o.uid >= num_users) return fail("observation uid out of range");
      if (o.time < 0) return fail("negative observation time");
    }
    obs_seen += count;
  }
  if (obs_seen != total) return fail("observation count mismatch");

  // Hour buckets of touched keys.
  const uint64_t num_hours = r->U64();
  if (!r->ok() || num_hours > r->remaining() / (8 + 8)) {
    return fail("bad hour-bucket count");
  }
  touched_by_hour_.reserve(num_hours);
  for (uint64_t h = 0; h < num_hours; ++h) {
    const int64_t hour = r->I64();
    const uint64_t count = r->U64();
    if (!r->ok() || count > r->remaining() / kKeyRowBytes) {
      return fail("truncated hour bucket");
    }
    if (hour < 0) return fail("negative hour bucket");
    auto& bucket = touched_by_hour_[hour];
    if (!bucket.empty()) return fail("duplicate hour bucket");
    bucket.reserve(count);
    const char* p = r->Take(count * kKeyRowBytes);
    for (uint64_t i = 0; i < count; ++i, p += kKeyRowBytes) {
      if (static_cast<uint8_t>(p[0]) >= kNumBehaviorTypes) {
        return fail("bad behavior type");
      }
      ValueKey key;
      key.type = static_cast<BehaviorType>(static_cast<uint8_t>(p[0]));
      std::memcpy(&key.value, p + 1, sizeof(key.value));
      bucket.insert(key);
    }
    if (bucket.size() != count) return fail("duplicate key in hour bucket");
  }

  total_ = total;
  return Status::OK();
}

std::vector<UserId> LogStore::Users() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return UsersLocked();
}

std::vector<UserId> LogStore::UsersLocked() const {
  std::vector<UserId> out;
  out.reserve(by_user_.size());
  for (const auto& [uid, idx] : by_user_) out.push_back(uid);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace turbo::storage
