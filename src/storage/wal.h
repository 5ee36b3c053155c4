// Ingest write-ahead log for the BN server (DESIGN.md "Durability &
// recovery").
//
// The WAL is a sequence of numbered segment files `wal-<seq>.log` in the
// server's durability directory. Each segment starts with a fixed header
//
//   "TURBOWAL"        8-byte magic
//   u32 version       currently 2
//   u64 seq           segment sequence number
//   u64 len, bytes    config fingerprint of the writer (BnServer writes
//                     its checkpoint meta section; replay refuses a
//                     segment whose fingerprint is not its own)
//
// followed by append-only records, each framed as
//
//   u8 kind | fixed-width payload | u32 crc32(kind + payload)
//
// Two record kinds exist: kIngest carries one behavior log in the
// storage codec (checkpoint_io.h: uid, type, value, ts); kAdvance
// carries a clock-advance target. Replaying the
// record stream through BnServer's deterministic ingest + window-job
// engine reproduces the exact in-memory state of the process that wrote
// it (bit-identical weights and frontiers), which is what
// BnServer::Recover relies on.
//
// Writers batch appends in memory and flush on a group-commit threshold
// (records or bytes, whichever trips first); the fsync policy decides
// whether a flush also reaches the platter. Readers validate the header
// and every record CRC; a truncated or CRC-broken record — the signature
// of a torn write at crash time — cleanly ends the segment (`torn` is
// reported, the valid prefix is kept). A CRC-valid record that does not
// decode (a behavior type out of range) is corruption and fails the
// read. Any record *after* a broken one would mean corruption, not a
// crash, so replay layers treat a torn non-final segment as an error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/behavior_log.h"
#include "util/status.h"

namespace turbo::storage {

struct WalRecord {
  enum class Kind : uint8_t { kIngest = 1, kAdvance = 2 };
  Kind kind = Kind::kIngest;
  BehaviorLog log{};        // kIngest
  SimTime advance_to = 0;   // kAdvance

  static WalRecord Ingest(const BehaviorLog& log) {
    WalRecord r;
    r.kind = Kind::kIngest;
    r.log = log;
    return r;
  }
  static WalRecord Advance(SimTime now) {
    WalRecord r;
    r.kind = Kind::kAdvance;
    r.advance_to = now;
    return r;
  }
};

struct WalOptions {
  enum class Fsync : uint8_t {
    kNever,        // OS page cache only; fastest, weakest
    kOnFlush,      // fsync once per group-commit flush (default)
    kEveryAppend,  // flush + fsync every record; crash loses nothing
  };
  Fsync fsync = Fsync::kOnFlush;
  /// Group-commit thresholds: a buffered batch is flushed when it holds
  /// this many records or this many bytes, whichever trips first.
  size_t group_commit_records = 64;
  size_t group_commit_bytes = 64 * 1024;
};

/// Path of segment `seq` inside `dir`.
std::string WalSegmentPath(const std::string& dir, uint64_t seq);

/// Sequence numbers of the WAL segments present in `dir`, ascending.
/// A missing directory yields an empty list.
std::vector<uint64_t> ListWalSegments(const std::string& dir);

/// Path of the delta checkpoint whose covered_seq is `seq` inside `dir`.
/// Delta files are named by their own covered WAL sequence so the chain
/// order is recoverable from the directory listing alone.
std::string CheckpointDeltaPath(const std::string& dir, uint64_t seq);

/// covered_seq values of the delta-checkpoint files present in `dir`,
/// ascending. A missing directory yields an empty list.
std::vector<uint64_t> ListCheckpointDeltas(const std::string& dir);

/// Single-writer append handle for one WAL segment.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates (truncates) segment `seq` in `dir` and writes its header,
  /// which carries `fingerprint` verbatim.
  Status Open(const std::string& dir, uint64_t seq,
              const WalOptions& options, std::string_view fingerprint = {});

  /// Buffers one record, flushing per the group-commit thresholds.
  Status Append(const WalRecord& record);

  /// Writes the buffered batch to the file (fsync per policy).
  Status Flush();

  /// Flushes and closes the segment. Idempotent.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t seq() const { return seq_; }
  /// Bytes appended to this segment, including buffered ones.
  size_t bytes_written() const { return bytes_written_; }
  size_t records_written() const { return records_written_; }

 private:
  Status WriteRaw(const char* p, size_t n);

  int fd_ = -1;
  uint64_t seq_ = 0;
  WalOptions options_;
  std::string buf_;
  size_t buffered_records_ = 0;
  size_t bytes_written_ = 0;
  size_t records_written_ = 0;
};

/// One parsed segment: the valid record prefix plus whether the tail was
/// torn (truncated or CRC-broken mid-record).
struct WalSegment {
  uint64_t seq = 0;
  /// The header's config fingerprint, as the writer passed it.
  std::string fingerprint;
  std::vector<WalRecord> records;
  bool torn = false;
  size_t bytes = 0;
  /// Bytes of header + valid records; equals `bytes` unless torn, in
  /// which case truncating the file here removes exactly the torn tail.
  size_t valid_bytes = 0;
};

/// Reads and validates one segment file. A bad header is an error; a
/// torn tail is not (records before it are returned, torn = true).
Result<WalSegment> ReadWalSegment(const std::string& path);

/// Truncates a torn segment file to its valid prefix (`valid_bytes` from
/// ReadWalSegment) and fsyncs it, so later reads see a clean segment.
Status TruncateWalSegment(const std::string& path, size_t valid_bytes);

}  // namespace turbo::storage
