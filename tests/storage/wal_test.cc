#include "storage/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "storage/checkpoint_io.h"

namespace turbo::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

BehaviorLog L(UserId u, ValueId v, SimTime t) {
  return BehaviorLog{u, BehaviorType::kIpv4, v, t};
}

TEST(WalTest, RoundTripsIngestAndAdvanceRecords) {
  const std::string dir = FreshDir("wal_roundtrip");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir, 1, {}).ok());
  ASSERT_TRUE(writer.Append(WalRecord::Ingest(L(7, 42, 10))).ok());
  ASSERT_TRUE(writer.Append(WalRecord::Advance(3600)).ok());
  ASSERT_TRUE(writer.Append(WalRecord::Ingest(L(8, 43, 3700))).ok());
  ASSERT_TRUE(writer.Close().ok());

  auto segment_or = ReadWalSegment(WalSegmentPath(dir, 1));
  ASSERT_TRUE(segment_or.ok()) << segment_or.status().ToString();
  const WalSegment& segment = segment_or.value();
  EXPECT_EQ(segment.seq, 1u);
  EXPECT_FALSE(segment.torn);
  ASSERT_EQ(segment.records.size(), 3u);
  EXPECT_EQ(segment.records[0].kind, WalRecord::Kind::kIngest);
  EXPECT_EQ(segment.records[0].log, L(7, 42, 10));
  EXPECT_EQ(segment.records[1].kind, WalRecord::Kind::kAdvance);
  EXPECT_EQ(segment.records[1].advance_to, 3600);
  EXPECT_EQ(segment.records[2].log, L(8, 43, 3700));
}

TEST(WalTest, EmptySegmentHasNoRecordsAndNoTear) {
  const std::string dir = FreshDir("wal_empty");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir, 3, {}).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto segment_or = ReadWalSegment(WalSegmentPath(dir, 3));
  ASSERT_TRUE(segment_or.ok());
  EXPECT_EQ(segment_or.value().seq, 3u);
  EXPECT_TRUE(segment_or.value().records.empty());
  EXPECT_FALSE(segment_or.value().torn);
}

TEST(WalTest, GroupCommitBuffersUntilThreshold) {
  const std::string dir = FreshDir("wal_group");
  WalOptions options;
  options.fsync = WalOptions::Fsync::kNever;
  options.group_commit_records = 8;
  options.group_commit_bytes = 1 << 20;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir, 1, options).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        writer.Append(WalRecord::Ingest(L(1, i, i))).ok());
  }
  // Below the threshold: records live in the writer's buffer, not yet in
  // the file (a crash here loses them — that is the kNever contract).
  auto before_or = ReadWalSegment(WalSegmentPath(dir, 1));
  ASSERT_TRUE(before_or.ok());
  EXPECT_TRUE(before_or.value().records.empty());
  ASSERT_TRUE(writer.Flush().ok());
  auto after_or = ReadWalSegment(WalSegmentPath(dir, 1));
  ASSERT_TRUE(after_or.ok());
  EXPECT_EQ(after_or.value().records.size(), 5u);
  ASSERT_TRUE(writer.Close().ok());
}

TEST(WalTest, EveryAppendPolicyIsImmediatelyDurable) {
  const std::string dir = FreshDir("wal_every");
  WalOptions options;
  options.fsync = WalOptions::Fsync::kEveryAppend;
  options.group_commit_records = 1000;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir, 1, options).ok());
  ASSERT_TRUE(writer.Append(WalRecord::Ingest(L(1, 1, 1))).ok());
  // No Flush/Close: the record must already be on disk.
  auto segment_or = ReadWalSegment(WalSegmentPath(dir, 1));
  ASSERT_TRUE(segment_or.ok());
  EXPECT_EQ(segment_or.value().records.size(), 1u);
  ASSERT_TRUE(writer.Close().ok());
}

TEST(WalTest, TornFinalRecordKeepsValidPrefix) {
  const std::string dir = FreshDir("wal_torn");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir, 1, {}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.Append(WalRecord::Ingest(L(1, i, i))).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  // Tear the last record mid-payload, as a crash mid-write would.
  const std::string path = WalSegmentPath(dir, 1);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path, std::string_view(bytes.value())
                                .substr(0, bytes.value().size() - 7))
          .ok());

  auto segment_or = ReadWalSegment(path);
  ASSERT_TRUE(segment_or.ok());
  EXPECT_TRUE(segment_or.value().torn);
  EXPECT_EQ(segment_or.value().records.size(), 9u);
  EXPECT_EQ(segment_or.value().records.back().log.value, 8u);

  // valid_bytes marks the end of the record prefix: truncating there
  // removes exactly the torn tail and the segment reads back clean.
  const size_t valid = segment_or.value().valid_bytes;
  EXPECT_LT(valid, segment_or.value().bytes);
  ASSERT_TRUE(TruncateWalSegment(path, valid).ok());
  auto clean_or = ReadWalSegment(path);
  ASSERT_TRUE(clean_or.ok());
  EXPECT_FALSE(clean_or.value().torn);
  EXPECT_EQ(clean_or.value().records.size(), 9u);
  EXPECT_EQ(clean_or.value().bytes, valid);
}

TEST(WalTest, CorruptCrcEndsSegmentAtThatRecord) {
  const std::string dir = FreshDir("wal_crc");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir, 1, {}).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(writer.Append(WalRecord::Ingest(L(1, i, i))).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  const std::string path = WalSegmentPath(dir, 1);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() - 30] ^= 0x01;  // flip a bit in record 3
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());

  auto segment_or = ReadWalSegment(path);
  ASSERT_TRUE(segment_or.ok());
  EXPECT_TRUE(segment_or.value().torn);
  EXPECT_LT(segment_or.value().records.size(), 4u);
}

TEST(WalTest, BadHeaderMagicIsAnError) {
  const std::string dir = FreshDir("wal_magic");
  const std::string path = WalSegmentPath(dir, 1);
  std::ofstream(path, std::ios::binary) << "NOTAWAL!xxxxyyyyzzzz";
  auto segment_or = ReadWalSegment(path);
  ASSERT_FALSE(segment_or.ok());
  EXPECT_EQ(segment_or.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, ListWalSegmentsSortsAndIgnoresForeignFiles) {
  const std::string dir = FreshDir("wal_list");
  for (uint64_t seq : {3u, 1u, 12u}) {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(dir, seq, {}).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::ofstream(dir + "/checkpoint.bin") << "x";
  std::ofstream(dir + "/wal-junk.log") << "x";
  std::ofstream(dir + "/wal-1.log") << "x";  // missing zero padding
  EXPECT_EQ(ListWalSegments(dir), (std::vector<uint64_t>{1, 3, 12}));
  EXPECT_TRUE(ListWalSegments(dir + "/missing").empty());
}

TEST(WalTest, ListWalSegmentsSeesSeqsWiderThanThePadding) {
  // Regression: sequence numbers past 10^8 outgrow the %08llu padding;
  // a fixed-length name check made them invisible to listing, rotation
  // cleanup, and recovery.
  const std::string dir = FreshDir("wal_wide");
  for (uint64_t seq : {99999999ull, 100000000ull, 123456789012ull}) {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(dir, seq, {}).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_EQ(ListWalSegments(dir),
            (std::vector<uint64_t>{99999999, 100000000, 123456789012}));
}

TEST(WalTest, ListCheckpointDeltasSortsAndIgnoresForeignFiles) {
  const std::string dir = FreshDir("delta_list");
  for (uint64_t seq : {7u, 2u, 100000000u}) {
    std::ofstream(CheckpointDeltaPath(dir, seq)) << "x";
  }
  std::ofstream(dir + "/checkpoint.bin") << "x";
  std::ofstream(dir + "/wal-00000001.log") << "x";
  std::ofstream(dir + "/checkpoint-delta-junk.bin") << "x";
  std::ofstream(dir + "/checkpoint-delta-2.bin") << "x";  // no padding
  // An interrupted atomic publish leaves a .tmp — never a chain link.
  std::ofstream(dir + "/checkpoint-delta-00000009.bin.tmp") << "x";
  EXPECT_EQ(ListCheckpointDeltas(dir),
            (std::vector<uint64_t>{2, 7, 100000000}));
  EXPECT_TRUE(ListCheckpointDeltas(dir + "/missing").empty());
}

// A record whose CRC holds was written that way, so a type byte past
// the enum is corruption: the read fails instead of reporting a torn
// tail that replay would silently stop at.
TEST(WalTest, CrcValidRecordWithOutOfRangeTypeIsCorruption) {
  const std::string dir = FreshDir("wal_bad_type");
  const std::string path = WalSegmentPath(dir, 1);
  for (const uint8_t type : {uint8_t{10}, uint8_t{255}}) {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(dir, 1, {}).ok());
    ASSERT_TRUE(writer.Append(WalRecord::Ingest(L(1, 2, 3))).ok());
    ASSERT_TRUE(writer.Close().ok());
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    std::string file = bytes.value();
    // The last record: u8 kind, 21-byte log, u32 crc(kind + log).
    const size_t body = 1 + kBehaviorLogBytes;
    const size_t start = file.size() - body - sizeof(uint32_t);
    file[start + 1 + 4] = static_cast<char>(type);  // kind, then u32 uid
    const uint32_t crc = Crc32(file.data() + start, body);
    file.replace(start + body, sizeof(crc),
                 std::string(reinterpret_cast<const char*>(&crc),
                             sizeof(crc)));
    ASSERT_TRUE(WriteFileAtomic(path, file).ok());

    auto segment_or = ReadWalSegment(path);
    ASSERT_FALSE(segment_or.ok()) << "type " << int{type};
    EXPECT_EQ(segment_or.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace turbo::storage
