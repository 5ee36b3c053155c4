// WAL shipping: incremental file-level replication of one BN server's
// durability directory (WAL segments + checkpoint + delta chain) into a
// standby's replica directory (DESIGN.md §14 "Replication & failover",
// §15 "Wire transport").
//
// The ship algorithm (ShipWal) is pull-style and idempotent: each call
// makes the sink a consistent prefix-copy of `src` and does only
// incremental work —
//  * WAL segments are append-only until rotation deletes them, so a
//    segment already present in the sink only has its new tail bytes
//    appended (in bounded chunks — a connection killed mid-ship leaves
//    a torn tail the standby's reader already tolerates); an unchanged
//    segment costs one stat. Re-shipping a segment the standby already
//    replayed is therefore a no-op, never a duplicate apply.
//  * A segment the primary is mid-append on ships as-is: the copied
//    tail may end in a torn record, which the standby replays up to and
//    then *waits* on (the next ship completes the record). Nothing here
//    ever truncates a source file — the primary owns those bytes.
//  * checkpoint.bin is re-copied (atomically) when its bytes changed
//    (size + CRC32 compare against the sink's stat — the bytes never
//    travel when nothing changed); delta-checkpoint files are immutable
//    once published and are copied at most once.
//  * Files the primary's checkpoint rotation removed are removed from
//    the sink too, so the replica directory stays a valid Recover
//    target and does not grow without bound.
//
// WalShipSink abstracts the destination: LocalDirSink writes a local
// replica directory (ShipWalDir keeps the original dir-to-dir
// signature), net::RpcWalShipSink forwards every operation to a
// standby host over the framed RPC layer. Offset-checked appends make
// the RPC form safely retryable: a replayed append whose bytes already
// landed is detected (size + tail CRC) and succeeds as a no-op.
//
// The shipper is the only writer of the sink; run it from one thread at
// a time (the standby's replay thread is the natural place).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace turbo::storage {

struct WalShipOptions {
  /// Segment tails are appended in pieces of at most this many bytes —
  /// the tear granularity when a ship dies mid-push.
  size_t append_chunk_bytes = 1 << 20;
};

/// What one ship call did (observability; all deltas, not totals).
struct WalShipStats {
  /// Segments newly created in the sink this call.
  size_t segments_created = 0;
  /// Segment tail bytes appended (includes the bytes of new segments).
  size_t segment_bytes_appended = 0;
  /// checkpoint.bin + delta files (re)copied.
  size_t checkpoint_files_copied = 0;
  /// Files mirror-deleted from the sink.
  size_t files_deleted = 0;
  /// Highest WAL segment seq present in the sink after the call
  /// (0 = none).
  uint64_t max_segment_seq = 0;
};

/// Stat of one replica file, as reported by the sink ("the standby's
/// cursor"): existence, size, and — when requested — a CRC32 of the
/// full contents.
struct WalShipFileStat {
  bool exists = false;
  uint64_t size = 0;
  uint32_t crc32 = 0;  // only meaningful when computed (want_crc)
};

/// Destination of a WAL ship. All names are flat file names inside the
/// replica directory (no path separators). Implementations must make
/// AppendAt offset-checked and replay-safe (see ShipWal's contract).
class WalShipSink {
 public:
  virtual ~WalShipSink() = default;

  /// Stat of `name`; `want_crc` asks for a contents CRC32 (costs a full
  /// read — request it only where the compare needs it).
  virtual Result<WalShipFileStat> Stat(const std::string& name,
                                       bool want_crc) = 0;

  /// Appends `bytes` at `offset` (file created when absent and offset
  /// is 0). Offset-checked: the file's current size must equal
  /// `offset`. A replayed append whose bytes already landed (size ==
  /// offset + |bytes| and the tail's CRC matches) succeeds as a no-op;
  /// any other mismatch is FailedPrecondition — the shipper re-stats
  /// and re-syncs.
  virtual Status AppendAt(const std::string& name, uint64_t offset,
                          std::string_view bytes) = 0;

  /// Atomically replaces `name` with `bytes` (temp + rename semantics:
  /// a reader never observes a half-written file). Idempotent.
  virtual Status WriteAtomic(const std::string& name,
                             std::string_view bytes) = 0;

  /// Removes `name`; OK when already absent.
  virtual Status Delete(const std::string& name) = 0;

  /// Flat names of every file currently in the replica.
  virtual Result<std::vector<std::string>> ListFiles() = 0;
};

/// Sink writing a local replica directory (created lazily).
class LocalDirSink final : public WalShipSink {
 public:
  explicit LocalDirSink(std::string dir) : dir_(std::move(dir)) {}

  Result<WalShipFileStat> Stat(const std::string& name,
                               bool want_crc) override;
  Status AppendAt(const std::string& name, uint64_t offset,
                  std::string_view bytes) override;
  Status WriteAtomic(const std::string& name,
                     std::string_view bytes) override;
  Status Delete(const std::string& name) override;
  Result<std::vector<std::string>> ListFiles() override;

  const std::string& dir() const { return dir_; }
  /// Creates the replica directory (write ops call this lazily).
  Status EnsureDir();

 private:
  std::string Path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

/// Ships `src` (which must exist) into `sink`.
Result<WalShipStats> ShipWal(const std::string& src, WalShipSink* sink,
                             const WalShipOptions& options = {});

/// Dir-to-dir form: ShipWal over a LocalDirSink rooted at `dst`.
Result<WalShipStats> ShipWalDir(const std::string& src,
                                const std::string& dst,
                                const WalShipOptions& options = {});

}  // namespace turbo::storage
