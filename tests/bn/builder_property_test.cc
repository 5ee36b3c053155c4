// Property-based sweeps over BN construction: invariants that must hold
// for any window hierarchy, any population size, and any seed.
#include <ostream>

#include <gtest/gtest.h>

#include "bn/builder.h"
#include "bn/snapshot.h"
#include "datagen/scenario.h"

namespace turbo::bn {
namespace {

struct BnPropertyCase {
  int users;
  uint64_t seed;
  std::vector<SimTime> windows;
};

// Names each ctest case by its fields instead of its raw bytes.
void PrintTo(const BnPropertyCase& c, std::ostream* os) {
  *os << "users=" << c.users << " seed=" << c.seed
      << " windows=" << c.windows.size();
}

class BnPropertyTest : public ::testing::TestWithParam<BnPropertyCase> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    auto cfg = datagen::ScenarioConfig::D1Like(p.users);
    cfg.seed = p.seed;
    ds_ = datagen::GenerateScenario(cfg);
    BnConfig bn_cfg;
    bn_cfg.windows = p.windows;
    BnBuilder builder(bn_cfg, &edges_);
    builder.BuildFromLogs(ds_.logs);
  }

  datagen::Dataset ds_;
  storage::EdgeStore edges_;
};

TEST_P(BnPropertyTest, WeightsArePositiveAndBounded) {
  // Any single (window, epoch, value) contributes at most 1/2 (a pair);
  // total weight is bounded by windows * co-occurrence epochs. A loose
  // but universal bound: weight <= windows * logs-per-user.
  const double bound = GetParam().windows.size() * 500.0;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < ds_.users.size(); ++u) {
      for (const auto& [v, e] : edges_.Neighbors(t, u)) {
        ASSERT_GT(e.weight, 0.0f);
        ASSERT_LT(e.weight, bound);
      }
    }
  }
}

TEST_P(BnPropertyTest, AdjacencyIsSymmetric) {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < ds_.users.size(); ++u) {
      for (const auto& [v, e] : edges_.Neighbors(t, u)) {
        ASSERT_FLOAT_EQ(edges_.Weight(t, v, u), e.weight)
            << "asymmetric edge " << u << "-" << v << " type " << t;
      }
    }
  }
}

TEST_P(BnPropertyTest, NoSelfLoops) {
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < ds_.users.size(); ++u) {
      ASSERT_FLOAT_EQ(edges_.Weight(t, u, u), 0.0f);
    }
  }
}

TEST_P(BnPropertyTest, NormalizationPreservesStructure) {
  SnapshotOptions raw_opts;
  raw_opts.normalize = false;
  auto net = BnSnapshot::Build(edges_, static_cast<int>(ds_.users.size()),
                               raw_opts);
  auto norm = BnSnapshot::Build(edges_, static_cast<int>(ds_.users.size()));
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    ASSERT_EQ(net->NumEdges(t), norm->NumEdges(t));
    for (UserId u = 0; u < 64 && u < ds_.users.size(); ++u) {
      const auto raw = net->Neighbors(t, u);
      const auto nrm = norm->Neighbors(t, u);
      ASSERT_EQ(raw.size(), nrm.size());
      for (size_t i = 0; i < raw.size(); ++i) {
        ASSERT_EQ(raw[i].id, nrm[i].id);
        ASSERT_GT(nrm[i].weight, 0.0f);
        // w / sqrt(d_u d_v) <= w / w = 1 when both degrees >= w.
        ASSERT_LE(nrm[i].weight, 1.0f + 1e-5f);
      }
    }
  }
}

TEST_P(BnPropertyTest, MoreWindowsNeverRemoveEdges) {
  // Rebuilding with a superset of windows can only add weight.
  BnConfig wider;
  wider.windows = GetParam().windows;
  wider.windows.push_back(2 * kDay);
  storage::EdgeStore more;
  BnBuilder(wider, &more).BuildFromLogs(ds_.logs);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < ds_.users.size(); ++u) {
      for (const auto& [v, e] : edges_.Neighbors(t, u)) {
        ASSERT_GE(more.Weight(t, u, v), e.weight - 1e-5f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BnPropertyTest,
    ::testing::Values(
        BnPropertyCase{300, 1, {kHour}},
        BnPropertyCase{300, 2, {kHour, kDay}},
        BnPropertyCase{600, 3, {kHour, 6 * kHour, kDay}},
        BnPropertyCase{600, 4, BnConfig::DefaultWindows()},
        BnPropertyCase{1000, 5, {30 * kMinute, 2 * kHour}}));

}  // namespace
}  // namespace turbo::bn
