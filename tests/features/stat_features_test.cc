#include "features/stat_features.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace turbo::features {
namespace {

using storage::LogStore;

// A "session": device + ip + cell + wifi logs at one time.
void AddSession(LogStore* store, UserId uid, SimTime t, ValueId device,
                ValueId ip, ValueId cell, ValueId wifi) {
  store->Append({uid, BehaviorType::kDeviceId, device, t});
  store->Append({uid, BehaviorType::kIpv4, ip, t});
  store->Append({uid, BehaviorType::kGps100, cell, t});
  store->Append({uid, BehaviorType::kWifiMac, wifi, t});
}

TEST(StatFeaturesTest, NamesMatchCount) {
  EXPECT_EQ(StatFeatureNames().size(),
            static_cast<size_t>(kNumStatFeatures));
}

TEST(StatFeaturesTest, EmptyUserAllZero) {
  LogStore store;
  auto f = ComputeStatFeatures(store, 42, 100 * kDay);
  for (float v : f) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(StatFeaturesTest, CountsSessionsInWindows) {
  LogStore store;
  const SimTime as_of = 100 * kDay;
  AddSession(&store, 1, as_of - 2 * kHour, 10, 20, 30, 40);   // in 1d
  AddSession(&store, 1, as_of - 3 * kDay, 10, 21, 30, 40);    // in 7d
  AddSession(&store, 1, as_of - 20 * kDay, 10, 22, 31, 40);   // in 60d
  AddSession(&store, 1, as_of - 90 * kDay, 10, 23, 32, 40);   // outside
  auto f = ComputeStatFeatures(store, 1, as_of);
  EXPECT_FLOAT_EQ(f[0], 1.0f);  // log_count_1d
  EXPECT_FLOAT_EQ(f[1], 2.0f);  // log_count_7d
  EXPECT_FLOAT_EQ(f[2], 3.0f);  // log_count_60d
}

TEST(StatFeaturesTest, DistinctCountersAreSetBased) {
  LogStore store;
  const SimTime as_of = 50 * kDay;
  AddSession(&store, 1, as_of - kHour, 10, 20, 30, 40);
  AddSession(&store, 1, as_of - 2 * kHour, 11, 20, 31, 40);
  AddSession(&store, 1, as_of - 3 * kHour, 10, 21, 30, 41);
  auto f = ComputeStatFeatures(store, 1, as_of);
  EXPECT_FLOAT_EQ(f[3], 2.0f);  // devices {10, 11}
  EXPECT_FLOAT_EQ(f[4], 2.0f);  // ips {20, 21}
  EXPECT_FLOAT_EQ(f[5], 2.0f);  // cells {30, 31}
  EXPECT_FLOAT_EQ(f[6], 2.0f);  // wifi {40, 41}
}

TEST(StatFeaturesTest, NightFraction) {
  LogStore store;
  const SimTime day_start = 10 * kDay;
  // Two sessions at 23:00 (night), two at noon.
  AddSession(&store, 1, day_start + 23 * kHour, 1, 2, 3, 4);
  AddSession(&store, 1, day_start + kDay + 23 * kHour, 1, 2, 3, 4);
  AddSession(&store, 1, day_start + 12 * kHour, 1, 2, 3, 4);
  AddSession(&store, 1, day_start + kDay + 12 * kHour, 1, 2, 3, 4);
  auto f = ComputeStatFeatures(store, 1, day_start + 3 * kDay);
  EXPECT_FLOAT_EQ(f[7], 0.5f);
}

TEST(StatFeaturesTest, BurstRatioHighForBurstyUser) {
  LogStore store;
  const SimTime as_of = 30 * kDay;
  // 8 sessions within +-1 day of as_of, 2 spread out.
  for (int i = 0; i < 8; ++i) {
    AddSession(&store, 1, as_of - kDay + i * kHour, 1, 2, 3, 4);
  }
  AddSession(&store, 1, as_of - 20 * kDay, 1, 2, 3, 4);
  AddSession(&store, 1, as_of - 10 * kDay, 1, 2, 3, 4);
  auto f = ComputeStatFeatures(store, 1, as_of);
  EXPECT_FLOAT_EQ(f[9], 0.8f);
  EXPECT_NEAR(f[8], 20.0f, 1.5f);  // activity span ~20 days
}

TEST(StatFeaturesTest, DeviceSwitchesCounted) {
  LogStore store;
  const SimTime as_of = 30 * kDay;
  // Device pattern A, B, A -> 2 switches.
  AddSession(&store, 1, as_of - 3 * kHour, 100, 2, 3, 4);
  AddSession(&store, 1, as_of - 2 * kHour, 200, 2, 3, 4);
  AddSession(&store, 1, as_of - 1 * kHour, 100, 2, 3, 4);
  auto f = ComputeStatFeatures(store, 1, as_of);
  EXPECT_FLOAT_EQ(f[12], 2.0f);
}

TEST(StatFeaturesTest, ChargesClockForLogScan) {
  LogStore store(storage::MediumCost{100.0, 10.0});
  const SimTime as_of = 30 * kDay;
  AddSession(&store, 1, as_of - kHour, 1, 2, 3, 4);
  storage::SimClock clock;
  ComputeStatFeatures(store, 1, as_of, &clock);
  EXPECT_DOUBLE_EQ(clock.ElapsedMicros(), 100.0 + 4 * 10.0);
}

TEST(StatFeaturesTest, BatchMatrixMatchesSingle) {
  LogStore store;
  AddSession(&store, 0, 5 * kDay, 1, 2, 3, 4);
  AddSession(&store, 1, 6 * kDay, 5, 6, 7, 8);
  la::Matrix m = ComputeStatFeatureMatrix(store, {0, 1},
                                          {7 * kDay, 7 * kDay});
  auto f0 = ComputeStatFeatures(store, 0, 7 * kDay);
  for (int c = 0; c < kNumStatFeatures; ++c) {
    EXPECT_FLOAT_EQ(m(0, c), f0[c]);
  }
}

// X_s as the std::set implementation computed it before the flat-vector
// rewrite: the reference the property test below holds the program to.
std::array<float, kNumStatFeatures> ReferenceStatFeatures(
    const LogStore& store, UserId uid, SimTime as_of) {
  std::array<float, kNumStatFeatures> f{};
  const SimTime lo = as_of - 60 * kDay;
  auto logs = store.QueryUser(uid, lo, as_of);
  if (logs.empty()) return f;

  int count_1d = 0, count_7d = 0, night = 0, burst_1d = 0;
  std::set<ValueId> devices_7d, ips_7d, cells_7d, wifi_7d, devices_all;
  std::set<ValueId> devices_1d;
  std::set<int64_t> active_days;
  ValueId last_device = 0;
  int device_switches = 0;
  SimTime first = logs.front().time, last = logs.front().time;
  std::vector<SimTime> session_times;

  for (const auto& l : logs) {
    first = std::min(first, l.time);
    last = std::max(last, l.time);
    const bool in_1d = l.time >= as_of - kDay;
    const bool in_7d = l.time >= as_of - 7 * kDay;
    active_days.insert(l.time / kDay);
    const int hour = static_cast<int>((l.time % kDay) / kHour);
    switch (l.type) {
      case BehaviorType::kDeviceId:
        session_times.push_back(l.time);
        count_1d += in_1d;
        count_7d += in_7d;
        if (hour >= 22 || hour < 6) ++night;
        burst_1d += (std::abs(l.time - as_of) <= kDay);
        devices_all.insert(l.value);
        if (in_7d) devices_7d.insert(l.value);
        if (in_1d) devices_1d.insert(l.value);
        if (last_device != 0 && l.value != last_device) ++device_switches;
        last_device = l.value;
        break;
      case BehaviorType::kIpv4:
        if (in_7d) ips_7d.insert(l.value);
        break;
      case BehaviorType::kGps100:
        if (in_7d) cells_7d.insert(l.value);
        break;
      case BehaviorType::kWifiMac:
        if (in_7d) wifi_7d.insert(l.value);
        break;
      default:
        break;
    }
  }

  const int sessions = static_cast<int>(session_times.size());
  f[0] = static_cast<float>(count_1d);
  f[1] = static_cast<float>(count_7d);
  f[2] = static_cast<float>(sessions);
  f[3] = static_cast<float>(devices_7d.size());
  f[4] = static_cast<float>(ips_7d.size());
  f[5] = static_cast<float>(cells_7d.size());
  f[6] = static_cast<float>(wifi_7d.size());
  f[7] = sessions > 0 ? static_cast<float>(night) / sessions : 0.0f;
  f[8] = static_cast<float>(last - first) / kDay;
  f[9] = sessions > 0 ? static_cast<float>(burst_1d) / sessions : 0.0f;
  if (sessions > 1) {
    f[10] = static_cast<float>(last - first) /
            (static_cast<float>(sessions - 1) * kHour);
  }
  f[11] = active_days.empty()
              ? 0.0f
              : static_cast<float>(sessions) / active_days.size();
  f[12] = static_cast<float>(device_switches);
  f[13] = devices_all.empty()
              ? 0.0f
              : static_cast<float>(devices_1d.size()) / devices_all.size();
  return f;
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Seeded random users: 0-300 logs of every behaviour type, values drawn
// from small pools so they repeat, timestamps drawn from a few hours so
// they collide, appended in shuffled order, plus logs exactly at the
// window edges (as_of - 1, 7 and 60 days) and after as_of. All 14
// features must match the reference bit for bit.
TEST(StatFeaturesTest, MatchesSetReferenceBitForBitOnRandomUsers) {
  constexpr uint64_t kSeed = 20261020;
  constexpr int kUsers = 1200;
  Rng rng(kSeed);
  LogStore store;
  std::vector<SimTime> as_of(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    const UserId uid = static_cast<UserId>(u);
    // Some windows start before t = 0.
    as_of[u] = rng.NextInt(kDay, 90 * kDay);
    const int n = static_cast<int>(rng.NextUint(301));
    const int value_pool = 1 + static_cast<int>(rng.NextUint(12));
    const int spread_days = 1 + static_cast<int>(rng.NextUint(75));
    BehaviorLogList logs;
    for (int i = 0; i < n; ++i) {
      BehaviorLog l;
      l.uid = uid;
      l.type = static_cast<BehaviorType>(rng.NextUint(kNumBehaviorTypes));
      // Value 0 exercises the "no previous device" sentinel.
      l.value = static_cast<ValueId>(rng.NextUint(value_pool));
      switch (rng.NextUint(6)) {
        case 0: {  // an edge of a window, possibly one second inside
          const SimTime edge[] = {kDay, 7 * kDay, 60 * kDay};
          l.time = as_of[u] - edge[rng.NextUint(3)] + rng.NextInt(-1, 1);
          break;
        }
        case 1:  // after as_of: outside the query
          l.time = as_of[u] + rng.NextInt(0, 2 * kDay);
          break;
        case 2:  // one of a few hourly instants: equal timestamps
          l.time = as_of[u] - static_cast<SimTime>(rng.NextUint(4)) * kHour;
          break;
        default:
          l.time = as_of[u] - rng.NextInt(0, spread_days * kDay);
          break;
      }
      l.time = std::max<SimTime>(l.time, 0);
      logs.push_back(l);
    }
    // Out-of-order appends, half of them one by one.
    for (size_t i = logs.size(); i > 1; --i) {
      std::swap(logs[i - 1], logs[rng.NextUint(i)]);
    }
    const size_t half = logs.size() / 2;
    for (size_t i = 0; i < half; ++i) store.Append(logs[i]);
    store.AppendBatch(BehaviorLogList(logs.begin() + half, logs.end()));
  }

  for (int u = 0; u < kUsers; ++u) {
    const UserId uid = static_cast<UserId>(u);
    const auto want = ReferenceStatFeatures(store, uid, as_of[u]);
    const auto got = ComputeStatFeatures(store, uid, as_of[u]);
    for (int c = 0; c < kNumStatFeatures; ++c) {
      ASSERT_EQ(Bits(got[c]), Bits(want[c]))
          << "seed=" << kSeed << " uid=" << uid << " feature "
          << StatFeatureNames()[c] << ": " << got[c] << " vs " << want[c];
    }
  }
}

}  // namespace
}  // namespace turbo::features
