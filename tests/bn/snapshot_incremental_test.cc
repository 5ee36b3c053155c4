// Property tests for incremental snapshot maintenance: a chain of
// ApplyDeltas() publishes over randomized add/expire schedules must be
// bit-identical to a full Build() at every step, while actually sharing
// untouched row groups with its predecessor (the structural property the
// publish-cost claim rests on).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "bn/snapshot.h"
#include "storage/edge_store.h"
#include "util/rng.h"

namespace turbo::bn {
namespace {

/// One random mutation batch against `store`, recording churn exactly as
/// the server does: both endpoints of every added or expired edge.
void MutateRandomly(Rng* rng, int num_nodes, SimTime now,
                    storage::EdgeStore* store, storage::EdgeChurn* churn) {
  const int adds = static_cast<int>(rng->NextUint(40)) + 1;
  for (int i = 0; i < adds; ++i) {
    const int t = static_cast<int>(rng->NextUint(kNumEdgeTypes));
    const UserId u =
        static_cast<UserId>(rng->NextUint(static_cast<uint64_t>(num_nodes)));
    UserId v =
        static_cast<UserId>(rng->NextUint(static_cast<uint64_t>(num_nodes)));
    if (v == u) v = (v + 1) % static_cast<UserId>(num_nodes);
    const float w = static_cast<float>(rng->NextDouble(0.1, 2.0));
    store->AddWeight(t, u, v, w, now);
    churn->Touch(t, u);
    churn->Touch(t, v);
  }
  if (rng->NextBool(0.3)) {
    store->ExpireBefore(now - 3 * kDay, churn);
  }
}

struct IncrementalCase {
  int num_nodes;
  uint64_t seed;
  bool normalize;
};

// Names each ctest case by its fields instead of its raw bytes.
void PrintTo(const IncrementalCase& c, std::ostream* os) {
  *os << "nodes=" << c.num_nodes << " seed=" << c.seed
      << " normalize=" << (c.normalize ? "true" : "false");
}

class SnapshotIncrementalTest
    : public ::testing::TestWithParam<IncrementalCase> {};

TEST_P(SnapshotIncrementalTest, ChainIsBitIdenticalToFullBuild) {
  const IncrementalCase& p = GetParam();
  Rng rng(p.seed);
  storage::EdgeStore store;
  SnapshotOptions options;
  options.normalize = p.normalize;
  options.num_threads = 2;

  // Seed state + first (full) snapshot.
  storage::EdgeChurn ignored;
  MutateRandomly(&rng, p.num_nodes, 0, &store, &ignored);
  auto current = BnSnapshot::Build(store, p.num_nodes, options, 1);

  for (int epoch = 1; epoch <= 12; ++epoch) {
    const SimTime now = epoch * kDay;
    storage::EdgeChurn churn;
    MutateRandomly(&rng, p.num_nodes, now, &store, &churn);
    BnSnapshot::ApplyStats stats;
    auto next = BnSnapshot::ApplyDeltas(current, store, churn, options,
                                        1 + epoch, &stats);
    auto full = BnSnapshot::Build(store, p.num_nodes, options, 1 + epoch);
    ASSERT_EQ(next->FirstDifference(*full), "")
        << "epoch " << epoch << " seed " << p.seed;
    EXPECT_EQ(next->version(), static_cast<uint64_t>(1 + epoch));
    EXPECT_EQ(stats.rebuilt_groups + stats.shared_groups,
              kNumEdgeTypes *
                  ((static_cast<size_t>(p.num_nodes) +
                    BnSnapshot::kRowGroupSize - 1) /
                   BnSnapshot::kRowGroupSize));
    current = next;
  }
}

TEST_P(SnapshotIncrementalTest, SmallChurnSharesMostRowGroups) {
  const IncrementalCase& p = GetParam();
  if (p.num_nodes <= static_cast<int>(BnSnapshot::kRowGroupSize)) {
    GTEST_SKIP() << "single-group graph cannot share partially";
  }
  Rng rng(p.seed);
  storage::EdgeStore store;
  SnapshotOptions options;
  options.normalize = p.normalize;
  options.num_threads = 1;
  storage::EdgeChurn ignored;
  for (int i = 0; i < 8; ++i) {
    MutateRandomly(&rng, p.num_nodes, i * kHour, &store, &ignored);
  }
  auto prev = BnSnapshot::Build(store, p.num_nodes, options, 1);

  // Touch two nodes inside the *first* row group only.
  storage::EdgeChurn churn;
  store.AddWeight(0, 3, 5, 1.0f, 10 * kHour);
  churn.Touch(0, 3);
  churn.Touch(0, 5);
  BnSnapshot::ApplyStats stats;
  auto next =
      BnSnapshot::ApplyDeltas(prev, store, churn, options, 2, &stats);

  const size_t groups_per_type =
      (static_cast<size_t>(p.num_nodes) + BnSnapshot::kRowGroupSize - 1) /
      BnSnapshot::kRowGroupSize;
  const size_t total_groups = kNumEdgeTypes * groups_per_type;
  // Untouched types share everything; the touched type rebuilds at most
  // the groups its recompute set (two nodes + their neighbors) spans.
  EXPECT_EQ(next->SharedGroupsWith(*prev), stats.shared_groups);
  EXPECT_GE(stats.shared_groups, total_groups - groups_per_type);
  EXPECT_LT(stats.rebuilt_groups, groups_per_type);
  auto full = BnSnapshot::Build(store, p.num_nodes, options, 2);
  EXPECT_EQ(next->FirstDifference(*full), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnapshotIncrementalTest,
    ::testing::Values(IncrementalCase{50, 1, true},
                      IncrementalCase{50, 2, false},
                      IncrementalCase{300, 3, true},
                      IncrementalCase{1500, 4, true},
                      IncrementalCase{1500, 5, false},
                      IncrementalCase{2600, 6, true}));

TEST(SnapshotIncrementalTest, EmptyChurnSharesEverything) {
  storage::EdgeStore store;
  store.AddWeight(0, 0, 1, 1.0f, 0);
  SnapshotOptions options;
  options.num_threads = 1;
  auto prev = BnSnapshot::Build(store, 5, options, 1);
  storage::EdgeChurn none;
  BnSnapshot::ApplyStats stats;
  auto next = BnSnapshot::ApplyDeltas(prev, store, none, options, 2, &stats);
  EXPECT_EQ(stats.touched_rows, 0u);
  EXPECT_EQ(stats.rebuilt_groups, 0u);
  EXPECT_EQ(next->SharedGroupsWith(*prev),
            static_cast<size_t>(kNumEdgeTypes));
  EXPECT_EQ(next->version(), 2u);
  EXPECT_EQ(next->FirstDifference(*prev), "");
}

}  // namespace
}  // namespace turbo::bn
