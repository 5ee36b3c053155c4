// ShipWalDir contract (DESIGN.md §14): each call makes the replica
// directory a consistent prefix-copy of the primary's durability
// directory with incremental work only. The edge cases the standby
// protocol leans on — a torn final segment mid-ship, a re-shipped
// duplicate, checkpoint rotation deletes — are pinned here at the file
// level; tests/server/warm_standby_test.cc covers the replay side.
#include "storage/wal_ship.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/wal.h"
#include "util/time_util.h"

namespace turbo::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

WalOptions NoFsync() {
  WalOptions o;
  o.fsync = WalOptions::Fsync::kNever;
  o.group_commit_records = 1;  // every Append hits the file
  return o;
}

BehaviorLog L(UserId u, ValueId v, SimTime t) {
  return BehaviorLog{u, BehaviorType::kIpv4, v, t};
}

/// Writes `n` ingest records into segment `seq` of `dir` and closes it.
void WriteSegment(const std::string& dir, uint64_t seq, int n) {
  WalWriter w;
  ASSERT_TRUE(w.Open(dir, seq, NoFsync()).ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(w.Append(WalRecord::Ingest(L(i, 100 + i, i * kMinute))).ok());
  }
  ASSERT_TRUE(w.Close().ok());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(WalShipTest, FirstShipCopiesEverything) {
  const std::string src = FreshDir("ship_first_src");
  const std::string dst = FreshDir("ship_first_dst");
  WriteSegment(src, 1, 5);
  WriteSegment(src, 2, 3);
  WriteBytes(src + "/checkpoint.bin", "fake-checkpoint-bytes");

  auto stats_or = ShipWalDir(src, dst);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().message();
  const WalShipStats& stats = stats_or.value();
  EXPECT_EQ(stats.segments_created, 2u);
  EXPECT_EQ(stats.checkpoint_files_copied, 1u);
  EXPECT_EQ(stats.max_segment_seq, 2u);
  EXPECT_GT(stats.segment_bytes_appended, 0u);

  // Byte-identical copies, parseable as clean segments.
  EXPECT_EQ(ReadBytes(WalSegmentPath(dst, 1)),
            ReadBytes(WalSegmentPath(src, 1)));
  EXPECT_EQ(ReadBytes(dst + "/checkpoint.bin"), "fake-checkpoint-bytes");
  auto seg_or = ReadWalSegment(WalSegmentPath(dst, 2));
  ASSERT_TRUE(seg_or.ok());
  EXPECT_FALSE(seg_or.value().torn);
  EXPECT_EQ(seg_or.value().records.size(), 3u);
}

TEST(WalShipTest, ReshipOfUnchangedSourceIsANoOp) {
  const std::string src = FreshDir("ship_dup_src");
  const std::string dst = FreshDir("ship_dup_dst");
  WriteSegment(src, 1, 4);
  WriteBytes(src + "/checkpoint.bin", "ckpt-v1");
  ASSERT_TRUE(ShipWalDir(src, dst).ok());
  const std::string before = ReadBytes(WalSegmentPath(dst, 1));

  // Shipping the same files again must move no bytes — this is what
  // makes a re-shipped duplicate segment harmless to the standby.
  auto stats_or = ShipWalDir(src, dst);
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().segments_created, 0u);
  EXPECT_EQ(stats_or.value().segment_bytes_appended, 0u);
  EXPECT_EQ(stats_or.value().checkpoint_files_copied, 0u);
  EXPECT_EQ(stats_or.value().files_deleted, 0u);
  EXPECT_EQ(ReadBytes(WalSegmentPath(dst, 1)), before);
}

TEST(WalShipTest, GrowingSegmentShipsOnlyTheNewTail) {
  const std::string src = FreshDir("ship_tail_src");
  const std::string dst = FreshDir("ship_tail_dst");
  WalWriter w;
  ASSERT_TRUE(w.Open(src, 1, NoFsync()).ok());
  ASSERT_TRUE(w.Append(WalRecord::Ingest(L(1, 101, kMinute))).ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(ShipWalDir(src, dst).ok());

  ASSERT_TRUE(w.Append(WalRecord::Ingest(L(2, 102, 2 * kMinute))).ok());
  ASSERT_TRUE(w.Append(WalRecord::Advance(kHour)).ok());
  ASSERT_TRUE(w.Flush().ok());
  const size_t grown =
      static_cast<size_t>(fs::file_size(WalSegmentPath(src, 1)));
  const size_t before =
      static_cast<size_t>(fs::file_size(WalSegmentPath(dst, 1)));

  auto stats_or = ShipWalDir(src, dst);
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().segments_created, 0u);
  EXPECT_EQ(stats_or.value().segment_bytes_appended, grown - before);
  auto seg_or = ReadWalSegment(WalSegmentPath(dst, 1));
  ASSERT_TRUE(seg_or.ok());
  EXPECT_EQ(seg_or.value().records.size(), 3u);
  ASSERT_TRUE(w.Close().ok());
}

TEST(WalShipTest, TornFinalSegmentShipsAsIsAndCompletesLater) {
  const std::string src = FreshDir("ship_torn_src");
  const std::string dst = FreshDir("ship_torn_dst");
  WriteSegment(src, 1, 4);
  const std::string full = ReadBytes(WalSegmentPath(src, 1));
  // Freeze the primary mid-append: cut into the last record's framing.
  fs::resize_file(WalSegmentPath(src, 1), full.size() - 3);

  ASSERT_TRUE(ShipWalDir(src, dst).ok());
  auto torn_or = ReadWalSegment(WalSegmentPath(dst, 1));
  ASSERT_TRUE(torn_or.ok());
  // The replica sees exactly what the primary's disk holds: the valid
  // 3-record prefix plus a torn tail. The shipper must NOT truncate it.
  EXPECT_TRUE(torn_or.value().torn);
  EXPECT_EQ(torn_or.value().records.size(), 3u);
  EXPECT_EQ(static_cast<size_t>(fs::file_size(WalSegmentPath(dst, 1))),
            full.size() - 3);

  // The primary finishes the write; the next ship appends the missing
  // bytes and the very same replica file becomes a clean segment.
  WriteBytes(WalSegmentPath(src, 1), full);
  auto stats_or = ShipWalDir(src, dst);
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().segment_bytes_appended, 3u);
  auto seg_or = ReadWalSegment(WalSegmentPath(dst, 1));
  ASSERT_TRUE(seg_or.ok());
  EXPECT_FALSE(seg_or.value().torn);
  EXPECT_EQ(seg_or.value().records.size(), 4u);
  EXPECT_EQ(ReadBytes(WalSegmentPath(dst, 1)), full);
}

TEST(WalShipTest, ShrunkenSourceSegmentIsRecopiedWholesale) {
  const std::string src = FreshDir("ship_shrunk_src");
  const std::string dst = FreshDir("ship_shrunk_dst");
  WriteSegment(src, 1, 4);
  ASSERT_TRUE(ShipWalDir(src, dst).ok());
  // Recovery on the primary truncated a torn tail before this standby
  // attached — the source is now shorter than the replica.
  const std::string full = ReadBytes(WalSegmentPath(src, 1));
  auto seg_or = ReadWalSegment(WalSegmentPath(src, 1));
  ASSERT_TRUE(seg_or.ok());
  fs::resize_file(WalSegmentPath(src, 1), full.size() - 20);
  ASSERT_TRUE(TruncateWalSegment(WalSegmentPath(src, 1),
                                 ReadWalSegment(WalSegmentPath(src, 1))
                                     .value()
                                     .valid_bytes)
                  .ok());

  ASSERT_TRUE(ShipWalDir(src, dst).ok());
  EXPECT_EQ(ReadBytes(WalSegmentPath(dst, 1)),
            ReadBytes(WalSegmentPath(src, 1)));
}

TEST(WalShipTest, MirrorDeletesFollowCheckpointRotation) {
  const std::string src = FreshDir("ship_rot_src");
  const std::string dst = FreshDir("ship_rot_dst");
  WriteSegment(src, 1, 2);
  WriteSegment(src, 2, 2);
  WriteSegment(src, 3, 2);
  ASSERT_TRUE(ShipWalDir(src, dst).ok());
  ASSERT_EQ(ListWalSegments(dst).size(), 3u);

  // Checkpoint rotation on the primary: covered segments deleted, a new
  // checkpoint written.
  fs::remove(WalSegmentPath(src, 1));
  fs::remove(WalSegmentPath(src, 2));
  WriteBytes(src + "/checkpoint.bin", "ckpt-covering-1-2");

  auto stats_or = ShipWalDir(src, dst);
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().files_deleted, 2u);
  EXPECT_EQ(stats_or.value().checkpoint_files_copied, 1u);
  EXPECT_EQ(ListWalSegments(dst), std::vector<uint64_t>{3});
  EXPECT_TRUE(fs::exists(dst + "/checkpoint.bin"));
}

TEST(WalShipTest, GapInSourceSequenceShipsVerbatim) {
  // The shipper is file-level: a source gap (lost segment) ships as a
  // gap. Detecting it is the standby's job — WarmStandby::CatchUp fails
  // loudly on non-consecutive sequence numbers.
  const std::string src = FreshDir("ship_gap_src");
  const std::string dst = FreshDir("ship_gap_dst");
  WriteSegment(src, 1, 2);
  WriteSegment(src, 3, 2);
  auto stats_or = ShipWalDir(src, dst);
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().segments_created, 2u);
  EXPECT_EQ(ListWalSegments(dst), (std::vector<uint64_t>{1, 3}));
}

TEST(WalShipTest, MissingSourceIsNotFound) {
  const std::string dst = FreshDir("ship_missing_dst");
  auto stats_or = ShipWalDir(testing::TempDir() + "/ship_no_such_src", dst);
  EXPECT_FALSE(stats_or.ok());
  EXPECT_EQ(stats_or.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace turbo::storage
