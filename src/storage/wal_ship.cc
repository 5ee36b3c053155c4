#include "storage/wal_ship.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "storage/checkpoint_io.h"
#include "storage/wal.h"
#include "util/string_util.h"

namespace turbo::storage {
namespace {

namespace fs = std::filesystem;

constexpr char kCheckpointFile[] = "checkpoint.bin";

std::string SegmentName(uint64_t seq) {
  return fs::path(WalSegmentPath("", seq)).filename().string();
}

std::string DeltaName(uint64_t seq) {
  return fs::path(CheckpointDeltaPath("", seq)).filename().string();
}

/// Parses `name` as a WAL segment file name (same re-format validation
/// as storage::ListWalSegments).
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  unsigned long long s = 0;
  if (std::sscanf(name.c_str(), "wal-%llu.log", &s) != 1) return false;
  *seq = s;
  return SegmentName(s) == name;
}

bool ParseDeltaName(const std::string& name, uint64_t* seq) {
  unsigned long long s = 0;
  if (std::sscanf(name.c_str(), "checkpoint-delta-%llu.bin", &s) != 1) {
    return false;
  }
  *seq = s;
  return DeltaName(s) == name;
}

/// Size of `path`, or 0 when it does not exist.
size_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

/// Reads bytes [from, from + n) of `path`.
Status ReadRange(const std::string& path, size_t from, size_t n,
                 std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal(StrFormat("cannot open '%s'", path.c_str()));
  }
  in.seekg(static_cast<std::streamoff>(from));
  out->resize(n);
  in.read(out->data(), static_cast<std::streamsize>(n));
  if (in.gcount() != static_cast<std::streamsize>(n)) {
    return Status::Internal(
        StrFormat("short read from '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace

// --- LocalDirSink -----------------------------------------------------

Status LocalDirSink::EnsureDir() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal(
        StrFormat("cannot create ship target '%s'", dir_.c_str()));
  }
  return Status::OK();
}

Result<WalShipFileStat> LocalDirSink::Stat(const std::string& name,
                                           bool want_crc) {
  WalShipFileStat stat;
  const std::string path = Path(name);
  if (!fs::exists(path)) return stat;
  stat.exists = true;
  stat.size = FileSize(path);
  if (want_crc) {
    auto bytes_or = ReadFileBytes(path);
    if (!bytes_or.ok()) return bytes_or.status();
    stat.crc32 = Crc32(bytes_or.value().data(), bytes_or.value().size());
  }
  return stat;
}

Status LocalDirSink::AppendAt(const std::string& name, uint64_t offset,
                              std::string_view bytes) {
  TURBO_RETURN_IF_ERROR(EnsureDir());
  const std::string path = Path(name);
  const size_t size = fs::exists(path) ? FileSize(path) : 0;
  if (size == offset + bytes.size() && !bytes.empty()) {
    // A replayed append: accept iff the landed tail is byte-identical.
    std::string tail;
    TURBO_RETURN_IF_ERROR(ReadRange(path, offset, bytes.size(), &tail));
    if (Crc32(tail.data(), tail.size()) ==
        Crc32(bytes.data(), bytes.size())) {
      return Status::OK();
    }
    return Status::FailedPrecondition(
        StrFormat("append to '%s' at %llu: tail mismatch", name.c_str(),
                  static_cast<unsigned long long>(offset)));
  }
  if (size != offset) {
    return Status::FailedPrecondition(StrFormat(
        "append to '%s' at %llu but replica holds %llu bytes",
        name.c_str(), static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(size)));
  }
  // Plain append is crash-equivalent to a torn primary write: the
  // standby's reader already tolerates a torn tail.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::Internal(StrFormat("cannot open '%s'", path.c_str()));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::Internal(
        StrFormat("short append to '%s'", path.c_str()));
  }
  return Status::OK();
}

Status LocalDirSink::WriteAtomic(const std::string& name,
                                 std::string_view bytes) {
  TURBO_RETURN_IF_ERROR(EnsureDir());
  return WriteFileAtomic(Path(name), bytes);
}

Status LocalDirSink::Delete(const std::string& name) {
  std::error_code ec;
  fs::remove(Path(name), ec);
  return Status::OK();
}

Result<std::vector<std::string>> LocalDirSink::ListFiles() {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

// --- ShipWal ----------------------------------------------------------

Result<WalShipStats> ShipWal(const std::string& src, WalShipSink* sink,
                             const WalShipOptions& options) {
  if (!fs::exists(src)) {
    return Status::NotFound(
        StrFormat("ship source '%s' does not exist", src.c_str()));
  }
  WalShipStats stats;

  // Checkpoint files first: after mirror deletes remove WAL segments a
  // new checkpoint covers, the covering checkpoint must already be in
  // place or a crash between the two steps would leave the replica
  // without either representation of that history.
  const std::string src_ckpt = src + "/" + kCheckpointFile;
  const bool have_ckpt = fs::exists(src_ckpt);
  if (have_ckpt) {
    auto bytes_or = ReadFileBytes(src_ckpt);
    if (!bytes_or.ok()) return bytes_or.status();
    const std::string& bytes = bytes_or.value();
    auto stat_or = sink->Stat(kCheckpointFile, /*want_crc=*/true);
    if (!stat_or.ok()) return stat_or.status();
    const WalShipFileStat& stat = stat_or.value();
    if (!stat.exists || stat.size != bytes.size() ||
        stat.crc32 != Crc32(bytes.data(), bytes.size())) {
      TURBO_RETURN_IF_ERROR(sink->WriteAtomic(kCheckpointFile, bytes));
      ++stats.checkpoint_files_copied;
    }
  }
  const std::vector<uint64_t> src_deltas = ListCheckpointDeltas(src);
  for (uint64_t seq : src_deltas) {
    // Delta files are immutable once published: present == shipped.
    const std::string name = DeltaName(seq);
    auto stat_or = sink->Stat(name, /*want_crc=*/false);
    if (!stat_or.ok()) return stat_or.status();
    if (stat_or.value().exists) continue;
    auto bytes_or = ReadFileBytes(CheckpointDeltaPath(src, seq));
    if (!bytes_or.ok()) return bytes_or.status();
    TURBO_RETURN_IF_ERROR(sink->WriteAtomic(name, bytes_or.value()));
    ++stats.checkpoint_files_copied;
  }

  const std::vector<uint64_t> src_segments = ListWalSegments(src);
  for (uint64_t seq : src_segments) {
    const std::string from = WalSegmentPath(src, seq);
    const std::string name = SegmentName(seq);
    const size_t src_size = FileSize(from);
    auto stat_or = sink->Stat(name, /*want_crc=*/false);
    if (!stat_or.ok()) return stat_or.status();
    const WalShipFileStat& stat = stat_or.value();
    const size_t dst_size = stat.exists ? stat.size : 0;
    if (dst_size > src_size) {
      // A replica segment longer than the source can only mean the
      // source was rewritten (e.g. a torn tail truncated by recovery
      // before this standby attached). Re-copy wholesale.
      auto bytes_or = ReadFileBytes(from);
      if (!bytes_or.ok()) return bytes_or.status();
      TURBO_RETURN_IF_ERROR(sink->WriteAtomic(name, bytes_or.value()));
    } else if (dst_size < src_size) {
      if (!stat.exists) ++stats.segments_created;
      // Chunked tail push: each chunk is one offset-checked append, so
      // a ship killed between chunks leaves a torn-but-consistent tail.
      const size_t chunk = std::max<size_t>(1, options.append_chunk_bytes);
      for (size_t at = dst_size; at < src_size;) {
        const size_t n = std::min(chunk, src_size - at);
        std::string tail;
        TURBO_RETURN_IF_ERROR(ReadRange(from, at, n, &tail));
        TURBO_RETURN_IF_ERROR(sink->AppendAt(name, at, tail));
        stats.segment_bytes_appended += n;
        at += n;
      }
    }
    stats.max_segment_seq = seq;
  }

  // Mirror checkpoint rotation: drop the files `src` no longer has.
  const std::set<uint64_t> live(src_segments.begin(), src_segments.end());
  const std::set<uint64_t> live_deltas(src_deltas.begin(), src_deltas.end());
  auto names_or = sink->ListFiles();
  if (!names_or.ok()) return names_or.status();
  for (const std::string& name : names_or.value()) {
    uint64_t seq = 0;
    bool dead = false;
    if (ParseSegmentName(name, &seq)) {
      dead = live.count(seq) == 0;
    } else if (ParseDeltaName(name, &seq)) {
      dead = live_deltas.count(seq) == 0;
    } else if (name == kCheckpointFile) {
      dead = !have_ckpt;
    }
    if (!dead) continue;  // live, or a foreign file we never touch
    TURBO_RETURN_IF_ERROR(sink->Delete(name));
    ++stats.files_deleted;
  }
  return stats;
}

Result<WalShipStats> ShipWalDir(const std::string& src,
                                const std::string& dst,
                                const WalShipOptions& options) {
  LocalDirSink sink(dst);
  // Dir-to-dir contract: `dst` exists after a successful ship even when
  // nothing was copied (the standby polls it for state to appear).
  TURBO_RETURN_IF_ERROR(sink.EnsureDir());
  return ShipWal(src, &sink, options);
}

}  // namespace turbo::storage
