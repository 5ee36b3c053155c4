// Self-describing, checksummed binary container for durable BN state —
// the "turbo-bn v2" format (DESIGN.md "Incremental snapshots & delta
// checkpoints").
//
// A checkpoint file is a magic header, a chain header, and named
// sections, each carrying its own CRC32:
//
//   "TURBOBN2"            8-byte magic ("turbo-bn v2")
//   u32 format_version    currently 2
//   u8  kind              0 = full checkpoint, 1 = delta
//   u64 covered_seq       WAL sequence covered by this file's state
//   u64 parent_seq        delta only: covered_seq of the previous link
//   u32 section_count
//   per section:
//     u64 name_len, name bytes
//     u64 payload_len
//     u32 crc32(payload)
//     payload bytes
//
// A full checkpoint is self-contained. A delta carries only state that
// changed since its parent (the full base or the previous delta, chained
// by parent_seq == parent's covered_seq); recovery loads the base and
// applies the chain in covered_seq order before replaying the WAL tail.
//
// Integers are little-endian, fixed width. Readers validate the magic,
// the version, and every section CRC before any payload is interpreted,
// so a truncated or bit-flipped file fails loudly with a Status instead
// of deserializing garbage. Files are published with write-to-temp +
// fsync + rename, so a crash mid-checkpoint leaves the previous
// checkpoint intact.
//
// BinaryWriter/BinaryReader are the primitive encode/decode layer shared
// by section payloads and the WAL record format (wal.h). BinaryReader is
// sticky-failure: reads past the end return zeros and latch !ok(), so
// deserializers can decode a whole struct and check ok() once.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace turbo::storage {

/// IEEE CRC32 (zlib-compatible polynomial), table-based.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Append-only little-endian encoder over a growable byte buffer.
class BinaryWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bytes(const void* p, size_t n) { Raw(p, n); }
  void String(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian decoder. Reads past the end latch a
/// sticky failure and yield zero values; callers check ok() (and usually
/// remaining() == 0) after decoding a payload.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  float F32() {
    float v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  bool Bytes(void* p, size_t n) { return Raw(p, n); }
  /// Zero-copy bulk access: returns a pointer to the next `n` bytes and
  /// advances past them, or nullptr (latching failure) on overrun. The
  /// pointer aliases the reader's underlying buffer — valid only while
  /// that buffer lives. Lets row-decoding loops skip the per-field
  /// bounds check.
  const char* Take(size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return nullptr;
    }
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::string String() {
    const uint64_t n = U64();
    if (n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool ok() const { return !failed_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Raw(void* p, size_t n) {
    // An empty vector's data() may be null, and memcpy/memset with a null
    // pointer are undefined even for zero bytes.
    if (n == 0) return !failed_;
    if (failed_ || n > remaining()) {
      failed_ = true;
      std::memset(p, 0, n);
      return false;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Position of a checkpoint file in the base + delta chain.
enum class CheckpointKind : uint8_t { kFull = 0, kDelta = 1 };

/// Collects named sections and publishes them atomically as one
/// checkpoint file (temp file + fsync + rename).
class CheckpointWriter {
 public:
  /// Adds a section; names must be unique per file.
  void AddSection(const std::string& name, const BinaryWriter& payload);

  /// Sets the chain header. Defaults to a standalone full checkpoint
  /// (kFull, covered_seq 0, parent_seq 0) when never called.
  void SetChain(CheckpointKind kind, uint64_t covered_seq,
                uint64_t parent_seq);

  /// Serialized size of the file body so far (capacity planning).
  size_t TotalBytes() const;

  /// Writes `<path>.tmp`, fsyncs it, and renames over `path`.
  Status WriteFile(const std::string& path) const;

 private:
  CheckpointKind kind_ = CheckpointKind::kFull;
  uint64_t covered_seq_ = 0;
  uint64_t parent_seq_ = 0;
  std::map<std::string, std::string> sections_;
};

/// Parses and validates a checkpoint file: magic, version, and every
/// section CRC are checked up front. Sections are views into the file
/// bytes held by the reader — no per-section copies — so they stay valid
/// exactly as long as the reader does.
class CheckpointReader {
 public:
  static Result<CheckpointReader> Open(const std::string& path);

  CheckpointReader(CheckpointReader&&) = default;
  CheckpointReader& operator=(CheckpointReader&&) = default;

  bool Has(const std::string& name) const {
    return sections_.contains(name);
  }
  /// Section payload (view into the reader's buffer), empty if absent.
  std::string_view Find(const std::string& name) const;

  CheckpointKind kind() const { return kind_; }
  uint64_t covered_seq() const { return covered_seq_; }
  uint64_t parent_seq() const { return parent_seq_; }

 private:
  CheckpointReader() = default;

  CheckpointKind kind_ = CheckpointKind::kFull;
  uint64_t covered_seq_ = 0;
  uint64_t parent_seq_ = 0;
  // unique_ptr so moves don't invalidate the section views.
  std::unique_ptr<std::string> file_;
  std::map<std::string, std::string_view> sections_;
};

/// Reads a whole file into memory (shared by checkpoint + WAL readers).
Result<std::string> ReadFileBytes(const std::string& path);

/// Writes bytes to `<path>.tmp`, fsyncs, then renames over `path` —
/// readers see either the old file or the complete new one.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace turbo::storage
