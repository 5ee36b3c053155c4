#include <gtest/gtest.h>

#include <memory>

#include "bn/snapshot.h"
#include "storage/checkpoint_io.h"
#include "storage/edge_store.h"

namespace turbo::bn {
namespace {

std::shared_ptr<const BnSnapshot> MakeSnapshot(uint64_t version,
                                               bool normalize) {
  storage::EdgeStore store;
  store.AddWeight(0, 0, 1, 1.0f, 10);
  store.AddWeight(0, 1, 2, 2.5f, 20);
  store.AddWeight(0, 0, 3, 0.5f, 30);
  store.AddWeight(3, 2, 3, 4.0f, 40);
  store.AddWeight(7, 0, 4, 1.25f, 50);
  SnapshotOptions options;
  options.normalize = normalize;
  options.num_threads = 1;
  return BnSnapshot::Build(store, /*num_nodes=*/5, options, version);
}

TEST(SnapshotIoTest, RoundTripIsBitIdentical) {
  for (bool normalize : {true, false}) {
    auto original = MakeSnapshot(17, normalize);
    storage::BinaryWriter w;
    original->SerializeDiff(nullptr, &w);
    storage::BinaryReader r(w.data());
    auto restored_or = BnSnapshot::DeserializePatched(nullptr, &r);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
    EXPECT_EQ(original->version(), restored_or.value()->version());
    EXPECT_EQ(original->FirstDifference(*restored_or.value()), "");
  }
}

TEST(SnapshotIoTest, EmptySnapshotRoundTrips) {
  storage::EdgeStore empty;
  auto original = BnSnapshot::Build(empty, /*num_nodes=*/3, {}, 1);
  storage::BinaryWriter w;
  original->SerializeDiff(nullptr, &w);
  storage::BinaryReader r(w.data());
  auto restored_or = BnSnapshot::DeserializePatched(nullptr, &r);
  ASSERT_TRUE(restored_or.ok());
  EXPECT_EQ(original->version(), restored_or.value()->version());
  EXPECT_EQ(original->FirstDifference(*restored_or.value()), "");
}

TEST(SnapshotIoTest, TruncatedPayloadFails) {
  auto original = MakeSnapshot(5, true);
  storage::BinaryWriter w;
  original->SerializeDiff(nullptr, &w);
  for (size_t cut : {w.data().size() / 4, w.data().size() / 2,
                     w.data().size() - 1}) {
    storage::BinaryReader r(std::string_view(w.data()).substr(0, cut));
    auto restored_or = BnSnapshot::DeserializePatched(nullptr, &r);
    EXPECT_FALSE(restored_or.ok()) << "cut at " << cut;
  }
}

TEST(SnapshotIoTest, OutOfRangeNeighborIdFails) {
  // Hand-craft a payload whose neighbor id exceeds the declared node
  // count: it must be rejected, not served out of bounds later.
  storage::BinaryWriter corrupt;
  corrupt.U8(3);    // format
  corrupt.U64(17);  // version
  corrupt.I64(1);   // num_nodes = 1
  corrupt.U8(0);    // not normalized (no wdeg blocks)
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    corrupt.U64(1);  // one entry
    corrupt.U32(1);  // one group written: the only one
    corrupt.U32(0);  // group 0
    corrupt.U64(1);  // its one entry
    corrupt.U64(1);  // offsets[1]
    UserId evil = 7;  // >= num_nodes
    corrupt.Bytes(&evil, sizeof(evil));
    float weight = 1.0f;
    corrupt.Bytes(&weight, sizeof(weight));
  }
  storage::BinaryReader r(corrupt.data());
  auto restored_or = BnSnapshot::DeserializePatched(nullptr, &r);
  EXPECT_FALSE(restored_or.ok());
}

TEST(SnapshotIoTest, WithoutABaseEveryGroupIsRequired) {
  // A diff that leaves groups to its base is corrupt when read without
  // one, and a node count the payload cannot hold fails before any
  // group table is sized from it.
  storage::EdgeStore store;
  store.AddWeight(0, 0, 1, 1.0f, 10);
  SnapshotOptions options;
  options.num_threads = 1;
  const int num_nodes = 3 * static_cast<int>(BnSnapshot::kRowGroupSize);
  auto base = BnSnapshot::Build(store, num_nodes, options, 1);
  storage::EdgeChurn churn;
  store.AddWeight(0, 0, 2, 1.0f, 20);
  churn.Touch(0, 0);
  churn.Touch(0, 2);
  auto next = BnSnapshot::ApplyDeltas(base, store, churn, options, 2);
  storage::BinaryWriter diff;
  next->SerializeDiff(base.get(), &diff);
  storage::BinaryReader diff_r(diff.data());
  EXPECT_EQ(BnSnapshot::DeserializePatched(nullptr, &diff_r).status().code(),
            StatusCode::kInvalidArgument);

  storage::BinaryWriter huge;
  huge.U8(3);         // format
  huge.U64(1);        // version
  huge.I64(1 << 30);  // num_nodes far past the payload
  huge.U8(0);         // not normalized
  huge.Bytes(diff.data().data(), 64);
  storage::BinaryReader huge_r(huge.data());
  EXPECT_EQ(BnSnapshot::DeserializePatched(nullptr, &huge_r).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotIoTest, RoundTripPreservesVersionAndAppliesDeltas) {
  // A deserialized snapshot must be a first-class ApplyDeltas base:
  // patching it with later churn yields the same bits as patching the
  // original in-memory snapshot (and as a full rebuild). This is the
  // recovery path — the first incremental publish after a restart runs
  // over a snapshot that came off disk.
  storage::EdgeStore store;
  store.AddWeight(0, 0, 1, 1.0f, 10);
  store.AddWeight(0, 1, 2, 2.5f, 20);
  store.AddWeight(3, 2, 3, 4.0f, 40);
  SnapshotOptions options;
  options.num_threads = 1;
  auto original = BnSnapshot::Build(store, /*num_nodes=*/5, options, 9);

  storage::BinaryWriter w;
  original->SerializeDiff(nullptr, &w);
  storage::BinaryReader r(w.data());
  auto restored_or = BnSnapshot::DeserializePatched(nullptr, &r);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  auto restored = restored_or.take();
  EXPECT_EQ(restored->version(), 9u);

  storage::EdgeChurn churn;
  store.AddWeight(0, 0, 4, 0.75f, 50);
  churn.Touch(0, 0);
  churn.Touch(0, 4);
  store.AddWeight(3, 1, 2, 1.5f, 60);
  churn.Touch(3, 1);
  churn.Touch(3, 2);

  auto from_restored =
      BnSnapshot::ApplyDeltas(restored, store, churn, options, 10);
  auto from_original =
      BnSnapshot::ApplyDeltas(original, store, churn, options, 10);
  auto full = BnSnapshot::Build(store, /*num_nodes=*/5, options, 10);
  EXPECT_EQ(from_restored->version(), from_original->version());
  EXPECT_EQ(from_restored->FirstDifference(*from_original), "");
  EXPECT_EQ(from_restored->version(), full->version());
  EXPECT_EQ(from_restored->FirstDifference(*full), "");
}

TEST(SnapshotIoTest, DiffRoundTripsOverADeserializedBase) {
  // The diff applies over a base restored from bytes (content-equal,
  // not pointer-equal) and reproduces the derived snapshot exactly.
  storage::EdgeStore store;
  store.AddWeight(0, 0, 1, 1.0f, 10);
  store.AddWeight(3, 2, 3, 4.0f, 40);
  SnapshotOptions options;
  options.num_threads = 1;
  auto base = BnSnapshot::Build(store, /*num_nodes=*/5, options, 1);

  storage::EdgeChurn churn;
  store.AddWeight(0, 1, 3, 2.0f, 50);
  churn.Touch(0, 1);
  churn.Touch(0, 3);
  auto next = BnSnapshot::ApplyDeltas(base, store, churn, options, 2);

  storage::BinaryWriter base_bytes;
  base->SerializeDiff(nullptr, &base_bytes);
  storage::BinaryReader base_r(base_bytes.data());
  auto base_restored_or = BnSnapshot::DeserializePatched(nullptr, &base_r);
  ASSERT_TRUE(base_restored_or.ok());

  storage::BinaryWriter diff;
  next->SerializeDiff(base.get(), &diff);
  EXPECT_LT(diff.size(), base_bytes.size());  // O(churn), not O(graph)
  storage::BinaryReader diff_r(diff.data());
  auto patched_or =
      BnSnapshot::DeserializePatched(base_restored_or.value(), &diff_r);
  ASSERT_TRUE(patched_or.ok()) << patched_or.status().ToString();
  EXPECT_EQ(patched_or.value()->version(), next->version());
  EXPECT_EQ(patched_or.value()->FirstDifference(*next), "");
}

}  // namespace
}  // namespace turbo::bn
