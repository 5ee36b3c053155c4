#include "storage/checkpoint_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace turbo::storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(BinaryIoTest, RoundTripsAllPrimitiveTypes) {
  BinaryWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F32(1.5f);
  w.F64(-2.25);
  w.String("hello");
  BinaryReader r(w.data());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F32(), 1.5f);
  EXPECT_EQ(r.F64(), -2.25);
  EXPECT_EQ(r.String(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIoTest, ReadPastEndLatchesStickyFailure) {
  BinaryWriter w;
  w.U32(7);
  BinaryReader r(w.data());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // overruns
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0u);  // stays failed
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIoTest, ZeroLengthReadIntoNullIsANoOp) {
  BinaryWriter w;
  w.U32(7);
  BinaryReader r(w.data());
  // An empty vector's data(): a zero-length read must not touch it.
  EXPECT_TRUE(r.Bytes(nullptr, 0));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), sizeof(uint32_t));
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U8(), 0u);  // overruns
  EXPECT_FALSE(r.Bytes(nullptr, 0));
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIoTest, OversizedStringLengthFailsInsteadOfAllocating) {
  BinaryWriter w;
  w.U64(1ull << 60);  // claimed length far past the buffer
  BinaryReader r(w.data());
  EXPECT_EQ(r.String(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Crc32Test, MatchesKnownVector) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(data, 0), 0u);
}

TEST(CheckpointIoTest, WriteAndReadBackSections) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  CheckpointWriter writer;
  BinaryWriter a, b;
  a.U32(123);
  b.String("payload-b");
  writer.AddSection("alpha", a);
  writer.AddSection("beta", b);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader_or = CheckpointReader::Open(path);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  const CheckpointReader& reader = reader_or.value();
  ASSERT_TRUE(reader.Has("alpha"));
  ASSERT_TRUE(reader.Has("beta"));
  EXPECT_FALSE(reader.Has("gamma"));
  EXPECT_TRUE(reader.Find("gamma").empty());
  BinaryReader ra(reader.Find("alpha"));
  EXPECT_EQ(ra.U32(), 123u);
  BinaryReader rb(reader.Find("beta"));
  EXPECT_EQ(rb.String(), "payload-b");
}

TEST(CheckpointIoTest, DefaultChainHeaderIsAFullCheckpoint) {
  const std::string path = TempPath("ckpt_chain_default.bin");
  CheckpointWriter writer;
  BinaryWriter a;
  a.U32(1);
  writer.AddSection("alpha", a);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto reader_or = CheckpointReader::Open(path);
  ASSERT_TRUE(reader_or.ok());
  EXPECT_EQ(reader_or.value().kind(), CheckpointKind::kFull);
  EXPECT_EQ(reader_or.value().covered_seq(), 0u);
  EXPECT_EQ(reader_or.value().parent_seq(), 0u);
}

TEST(CheckpointIoTest, ChainHeaderRoundTrips) {
  const std::string path = TempPath("ckpt_chain.bin");
  CheckpointWriter writer;
  writer.SetChain(CheckpointKind::kDelta, /*covered_seq=*/9,
                  /*parent_seq=*/4);
  BinaryWriter a;
  a.U32(1);
  writer.AddSection("alpha", a);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  // TotalBytes must predict the exact file size — the delta-vs-full
  // heuristic trusts it before writing anything.
  EXPECT_EQ(std::filesystem::file_size(path), writer.TotalBytes());
  auto reader_or = CheckpointReader::Open(path);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  EXPECT_EQ(reader_or.value().kind(), CheckpointKind::kDelta);
  EXPECT_EQ(reader_or.value().covered_seq(), 9u);
  EXPECT_EQ(reader_or.value().parent_seq(), 4u);
  BinaryReader ra(reader_or.value().Find("alpha"));
  EXPECT_EQ(ra.U32(), 1u);
}

TEST(CheckpointIoTest, UnknownChainKindIsRejected) {
  const std::string path = TempPath("ckpt_chain_kind.bin");
  CheckpointWriter writer;
  BinaryWriter a;
  a.U32(1);
  writer.AddSection("alpha", a);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  // The kind byte sits right after the 8-byte magic + u32 version.
  auto bytes_or = ReadFileBytes(path);
  ASSERT_TRUE(bytes_or.ok());
  std::string bytes = bytes_or.take();
  bytes[8 + sizeof(uint32_t)] = 7;
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  auto reader_or = CheckpointReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().ToString().find("kind"), std::string::npos);
}

TEST(CheckpointIoTest, BadMagicIsRejected) {
  const std::string path = TempPath("ckpt_badmagic.bin");
  std::ofstream(path, std::ios::binary) << "NOTACKPT-garbage";
  auto reader_or = CheckpointReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointIoTest, MissingFileIsNotFound) {
  auto reader_or = CheckpointReader::Open(TempPath("no_such_ckpt.bin"));
  ASSERT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointIoTest, FlippedPayloadByteFailsCrc) {
  const std::string path = TempPath("ckpt_corrupt.bin");
  CheckpointWriter writer;
  BinaryWriter payload;
  for (int i = 0; i < 64; ++i) payload.U32(i);
  writer.AddSection("data", payload);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() - 10] ^= 0x40;  // bit-flip inside payload
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());

  auto reader_or = CheckpointReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().message().find("CRC"), std::string::npos);
}

TEST(CheckpointIoTest, TruncatedFileFailsCleanly) {
  const std::string path = TempPath("ckpt_truncated.bin");
  CheckpointWriter writer;
  BinaryWriter payload;
  for (int i = 0; i < 64; ++i) payload.U64(i);
  writer.AddSection("data", payload);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path,
                      std::string_view(bytes.value())
                          .substr(0, bytes.value().size() / 2))
          .ok());

  auto reader_or = CheckpointReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointIoTest, AtomicWriteLeavesNoTempFileBehind) {
  const std::string path = TempPath("ckpt_atomic.bin");
  CheckpointWriter writer;
  BinaryWriter payload;
  payload.U8(1);
  writer.AddSection("one", payload);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

}  // namespace
}  // namespace turbo::storage
