#include "features/stat_features.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace turbo::features {

const std::array<std::string, kNumStatFeatures>& StatFeatureNames() {
  static const std::array<std::string, kNumStatFeatures> kNames = {
      "log_count_1d",      "log_count_7d",      "log_count_60d",
      "distinct_devices_7d", "distinct_ips_7d", "distinct_cells_7d",
      "distinct_wifi_7d",  "night_fraction",    "activity_span_days",
      "burst_ratio_1d",    "mean_gap_hours",    "logs_per_active_day",
      "device_switches",   "fresh_device_frac"};
  return kNames;
}

namespace {

/// Sorts `values` and returns how many distinct ones it holds.
size_t CountDistinct(std::vector<ValueId>* values) {
  std::sort(values->begin(), values->end());
  return static_cast<size_t>(
      std::unique(values->begin(), values->end()) - values->begin());
}

}  // namespace

std::array<float, kNumStatFeatures> ComputeStatFeatures(
    const storage::LogStore& store, UserId uid, SimTime as_of,
    storage::SimClock* clock) {
  std::array<float, kNumStatFeatures> f{};
  const SimTime lo = as_of - 60 * kDay;
  // Ascending by time: the first and last logs bound the activity span,
  // and equal days are adjacent.
  auto logs = store.QueryUser(uid, lo, as_of, clock);
  if (logs.empty()) return f;

  int sessions = 0, count_1d = 0, count_7d = 0, night = 0, burst_1d = 0;
  // Distinct counts: collect, then sort + unique once at the end.
  std::vector<ValueId> devices_7d, ips_7d, cells_7d, wifi_7d, devices_all,
      devices_1d;
  for (auto* v : {&devices_7d, &ips_7d, &cells_7d, &wifi_7d, &devices_all,
                  &devices_1d}) {
    v->reserve(logs.size());
  }
  int active_days = 1;
  int64_t day = logs.front().time / kDay;
  ValueId last_device = 0;
  int device_switches = 0;
  const SimTime first = logs.front().time, last = logs.back().time;

  for (const auto& l : logs) {
    const bool in_1d = l.time >= as_of - kDay;
    const bool in_7d = l.time >= as_of - 7 * kDay;
    if (l.time / kDay != day) {
      day = l.time / kDay;
      ++active_days;
    }
    const int hour = static_cast<int>((l.time % kDay) / kHour);
    switch (l.type) {
      case BehaviorType::kDeviceId:
        ++sessions;
        count_1d += in_1d;
        count_7d += in_7d;
        if (hour >= 22 || hour < 6) ++night;
        burst_1d += (std::abs(l.time - as_of) <= kDay);
        devices_all.push_back(l.value);
        if (in_7d) devices_7d.push_back(l.value);
        if (in_1d) devices_1d.push_back(l.value);
        if (last_device != 0 && l.value != last_device) ++device_switches;
        last_device = l.value;
        break;
      case BehaviorType::kIpv4:
        if (in_7d) ips_7d.push_back(l.value);
        break;
      case BehaviorType::kGps100:
        if (in_7d) cells_7d.push_back(l.value);
        break;
      case BehaviorType::kWifiMac:
        if (in_7d) wifi_7d.push_back(l.value);
        break;
      default:
        break;
    }
  }

  const size_t distinct_devices = CountDistinct(&devices_all);
  f[0] = static_cast<float>(count_1d);
  f[1] = static_cast<float>(count_7d);
  f[2] = static_cast<float>(sessions);
  f[3] = static_cast<float>(CountDistinct(&devices_7d));
  f[4] = static_cast<float>(CountDistinct(&ips_7d));
  f[5] = static_cast<float>(CountDistinct(&cells_7d));
  f[6] = static_cast<float>(CountDistinct(&wifi_7d));
  f[7] = sessions > 0 ? static_cast<float>(night) / sessions : 0.0f;
  f[8] = static_cast<float>(last - first) / kDay;
  f[9] = sessions > 0 ? static_cast<float>(burst_1d) / sessions : 0.0f;
  if (sessions > 1) {
    f[10] = static_cast<float>(last - first) /
            (static_cast<float>(sessions - 1) * kHour);
  }
  f[11] = static_cast<float>(sessions) / active_days;
  f[12] = static_cast<float>(device_switches);
  f[13] = distinct_devices == 0
              ? 0.0f
              : static_cast<float>(CountDistinct(&devices_1d)) /
                    distinct_devices;
  return f;
}

la::Matrix ComputeStatFeatureMatrix(const storage::LogStore& store,
                                    const std::vector<UserId>& uids,
                                    const std::vector<SimTime>& as_of) {
  TURBO_CHECK_EQ(uids.size(), as_of.size());
  la::Matrix out(uids.size(), kNumStatFeatures);
  for (size_t i = 0; i < uids.size(); ++i) {
    auto f = ComputeStatFeatures(store, uids[i], as_of[i]);
    std::copy(f.begin(), f.end(), out.row(i));
  }
  return out;
}

}  // namespace turbo::features
