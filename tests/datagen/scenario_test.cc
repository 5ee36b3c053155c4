#include "datagen/scenario.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace turbo::datagen {
namespace {

ScenarioConfig SmallConfig() {
  ScenarioConfig cfg = ScenarioConfig::D1Like(1200);
  cfg.seed = 99;
  return cfg;
}

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(GenerateScenario(SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static Dataset* ds_;
};

Dataset* ScenarioTest::ds_ = nullptr;

TEST_F(ScenarioTest, PopulationSizes) {
  EXPECT_EQ(ds_->users.size(), 1200u);
  EXPECT_EQ(ds_->profile_features.rows(), 1200u);
  EXPECT_EQ(ds_->profile_features.cols(),
            static_cast<size_t>(kNumProfileFeatures));
  EXPECT_EQ(ds_->feature_names.size(),
            static_cast<size_t>(kNumProfileFeatures));
}

TEST_F(ScenarioTest, FraudRateApproximatelyRespected) {
  int fraud = ds_->NumFraud();
  // 1200 * 1.4% ≈ 17, ring granularity adds slack.
  EXPECT_GE(fraud, 8);
  EXPECT_LE(fraud, 40);
}

TEST_F(ScenarioTest, LabelsMatchUsers) {
  auto y = ds_->Labels();
  ASSERT_EQ(y.size(), ds_->users.size());
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], ds_->users[i].is_fraud ? 1 : 0);
  }
}

TEST_F(ScenarioTest, FraudstersAreRingMembersOrLoneWolves) {
  int ring_members = 0, lone = 0;
  for (const auto& u : ds_->users) {
    if (u.is_fraud) {
      EXPECT_TRUE(u.ring_id >= 0 || u.lone_fraud);
      EXPECT_FALSE(u.ring_id >= 0 && u.lone_fraud);
      ring_members += u.ring_id >= 0;
      lone += u.lone_fraud;
    } else {
      EXPECT_EQ(u.ring_id, -1);
      EXPECT_FALSE(u.stealth);
      EXPECT_FALSE(u.lone_fraud);
    }
  }
  EXPECT_GT(ring_members, 0);
  EXPECT_GT(lone, 0);
  // Lone wolves are the minority.
  EXPECT_LT(lone, ring_members);
}

TEST_F(ScenarioTest, RingsRespectSizeBounds) {
  std::unordered_map<int, int> ring_sizes;
  for (const auto& u : ds_->users) {
    if (u.ring_id >= 0) ++ring_sizes[u.ring_id];
  }
  const auto& cfg = ds_->config;
  int oversized = 0;
  for (const auto& [rid, size] : ring_sizes) {
    EXPECT_LE(size, cfg.max_ring_size);
    // The last ring may be truncated below min size.
    if (size < cfg.min_ring_size) ++oversized;
  }
  EXPECT_LE(oversized, 1);
}

TEST_F(ScenarioTest, RingMembersApplyWithinBurstSpan) {
  std::unordered_map<int, std::pair<SimTime, SimTime>> span;
  for (const auto& u : ds_->users) {
    if (u.ring_id < 0) continue;
    auto it = span.find(u.ring_id);
    if (it == span.end()) {
      span[u.ring_id] = {u.application_time, u.application_time};
    } else {
      it->second.first = std::min(it->second.first, u.application_time);
      it->second.second = std::max(it->second.second, u.application_time);
    }
  }
  for (const auto& [rid, mm] : span) {
    EXPECT_LE(mm.second - mm.first, ds_->config.fraud_burst_span);
  }
}

TEST_F(ScenarioTest, LogsSortedAndInHorizon) {
  ASSERT_FALSE(ds_->logs.empty());
  for (size_t i = 1; i < ds_->logs.size(); ++i) {
    EXPECT_LE(ds_->logs[i - 1].time, ds_->logs[i].time);
  }
  for (const auto& l : ds_->logs) {
    EXPECT_GE(l.time, 0);
    EXPECT_LE(l.time, ds_->config.horizon);
    EXPECT_LT(l.uid, ds_->users.size());
    EXPECT_NE(l.value, 0u);
  }
}

TEST_F(ScenarioTest, EveryUserHasLogs) {
  std::vector<int> counts(ds_->users.size(), 0);
  for (const auto& l : ds_->logs) ++counts[l.uid];
  for (int c : counts) EXPECT_GT(c, 0);
}

// Observation 1 of the paper (Fig. 4a-b): the *typical* fraudster's logs
// burst near the application, while normal logs span the lease. Medians
// are used because warmed fraud accounts (a configured minority) carry
// long background histories by design.
TEST_F(ScenarioTest, TimeBurstPattern) {
  std::vector<double> fraud_spans, normal_spans;
  std::unordered_map<UserId, std::pair<SimTime, SimTime>> ranges;
  for (const auto& l : ds_->logs) {
    auto it = ranges.find(l.uid);
    if (it == ranges.end()) {
      ranges[l.uid] = {l.time, l.time};
    } else {
      it->second.first = std::min(it->second.first, l.time);
      it->second.second = std::max(it->second.second, l.time);
    }
  }
  for (const auto& [uid, mm] : ranges) {
    double span_days = static_cast<double>(mm.second - mm.first) / kDay;
    (ds_->users[uid].is_fraud ? fraud_spans : normal_spans)
        .push_back(span_days);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  ASSERT_FALSE(fraud_spans.empty());
  ASSERT_FALSE(normal_spans.empty());
  EXPECT_LT(median(fraud_spans) * 5, median(normal_spans));
}

// Observation 2/3 groundwork: ring members share devices with *temporal
// co-occurrence* (within a day), which is what BN keys on. Time-agnostic
// sharing also happens among normal users (households, secondhand
// handsets) — by design, so that bipartite baselines are confusable —
// hence the windowed test.
TEST_F(ScenarioTest, DeviceSharingWithinRings) {
  std::unordered_map<ValueId, std::vector<std::pair<UserId, SimTime>>> obs;
  for (const auto& l : ds_->logs) {
    if (l.type == BehaviorType::kDeviceId) {
      obs[l.value].push_back({l.uid, l.time});
    }
  }
  std::set<UserId> windowed_sharers;
  for (auto& [v, o] : obs) {
    std::sort(o.begin(), o.end(),
              [](const auto& a, const auto& b) {
                return a.second < b.second;
              });
    for (size_t i = 1; i < o.size(); ++i) {
      if (o[i].first != o[i - 1].first &&
          o[i].second - o[i - 1].second <= kDay) {
        windowed_sharers.insert(o[i].first);
        windowed_sharers.insert(o[i - 1].first);
      }
    }
  }
  int fraud_sharing = 0, fraud_total = 0;
  int normal_sharing = 0, normal_total = 0;
  for (const auto& u : ds_->users) {
    if (u.ring_id >= 0) {  // lone wolves intentionally do not share
      ++fraud_total;
      fraud_sharing += windowed_sharers.count(u.uid) > 0;
    } else if (!u.is_fraud) {
      ++normal_total;
      normal_sharing += windowed_sharers.count(u.uid) > 0;
    }
  }
  ASSERT_GT(fraud_total, 0);
  const double fraud_rate = static_cast<double>(fraud_sharing) / fraud_total;
  const double normal_rate =
      static_cast<double>(normal_sharing) / normal_total;
  EXPECT_GT(fraud_rate, 0.85);
  EXPECT_LT(normal_rate, 0.3);
  EXPECT_GT(fraud_rate, 2.5 * normal_rate);
}

// Uses its own larger population: the softened per-feature shifts need
// ~35+ risky fraudsters before sample means separate reliably.
TEST(ScenarioFeatureTest, RiskyFraudFeaturesShifted) {
  auto ds = GenerateScenario(ScenarioConfig::D1Like(6000));
  double normal_sum = 0, risky_sum = 0, stealth_sum = 0;
  int nn = 0, nr = 0, ns = 0;
  for (const auto& u : ds.users) {
    double v = ds.profile_features(u.uid, 4);  // credit_score
    if (!u.is_fraud) {
      normal_sum += v;
      ++nn;
    } else if (u.stealth) {
      stealth_sum += v;
      ++ns;
    } else {
      risky_sum += v;
      ++nr;
    }
  }
  ASSERT_GT(nr, 20);
  ASSERT_GT(ns, 10);
  EXPECT_LT(risky_sum / nr, normal_sum / nn - 15.0);
  EXPECT_NEAR(stealth_sum / ns, normal_sum / nn, 40.0);
}

TEST(ScenarioDeterminismTest, SameSeedSameData) {
  auto a = GenerateScenario(SmallConfig());
  auto b = GenerateScenario(SmallConfig());
  ASSERT_EQ(a.logs.size(), b.logs.size());
  EXPECT_TRUE(std::equal(a.logs.begin(), a.logs.end(), b.logs.begin()));
  EXPECT_TRUE(la::AllClose(a.profile_features, b.profile_features, 0, 0));
}

TEST(ScenarioDeterminismTest, DifferentSeedDifferentData) {
  auto cfg = SmallConfig();
  auto a = GenerateScenario(cfg);
  cfg.seed = 100;
  auto b = GenerateScenario(cfg);
  EXPECT_NE(a.logs.size(), b.logs.size());
}

TEST(ScenarioPresetTest, D2HasMajorityPositives) {
  auto cfg = ScenarioConfig::D2Like(800);
  auto ds = GenerateScenario(cfg);
  double rate = static_cast<double>(ds.NumFraud()) / ds.users.size();
  EXPECT_GT(rate, 0.5);
  EXPECT_LT(rate, 0.8);
}

TEST(ScenarioConfigDeathTest, RejectsBadConfig) {
  ScenarioConfig cfg;
  cfg.num_users = 0;
  EXPECT_DEATH(GenerateScenario(cfg), "CHECK failed");
  cfg = ScenarioConfig{};
  cfg.fraud_rate = 1.5;
  EXPECT_DEATH(GenerateScenario(cfg), "CHECK failed");
  // A lease that leaves no launch window past day 8.
  cfg = ScenarioConfig{};
  cfg.lease_period = cfg.horizon - 8 * kDay;
  EXPECT_DEATH(GenerateScenario(cfg), "CHECK failed");
}

}  // namespace
}  // namespace turbo::datagen
