#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>

#include "storage/checkpoint_io.h"
#include "util/string_util.h"

namespace turbo::storage {

namespace {

constexpr char kWalMagic[8] = {'T', 'U', 'R', 'B', 'O', 'W', 'A', 'L'};
constexpr uint32_t kWalVersion = 2;

/// Payload bytes per record kind (fixed-width framing keeps the reader
/// free of length fields that could themselves be torn).
size_t PayloadBytes(WalRecord::Kind kind) {
  switch (kind) {
    case WalRecord::Kind::kIngest:
      return kBehaviorLogBytes;
    case WalRecord::Kind::kAdvance:
      return sizeof(int64_t);
  }
  return 0;
}

void EncodeRecord(const WalRecord& record, BinaryWriter* w) {
  BinaryWriter body;
  body.U8(static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case WalRecord::Kind::kIngest:
      EncodeBehaviorLog(record.log, &body);
      break;
    case WalRecord::Kind::kAdvance:
      body.I64(record.advance_to);
      break;
  }
  w->Bytes(body.data().data(), body.size());
  w->U32(Crc32(body.data().data(), body.size()));
}

}  // namespace

std::string WalSegmentPath(const std::string& dir, uint64_t seq) {
  return StrFormat("%s/wal-%08llu.log", dir.c_str(),
                   static_cast<unsigned long long>(seq));
}

std::vector<uint64_t> ListWalSegments(const std::string& dir) {
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    // Validate by re-formatting rather than by length: sequences past
    // 10^8 outgrow the %08llu zero padding but are still our files,
    // while trailing junk or missing padding means a foreign file.
    if (std::sscanf(name.c_str(), "wal-%llu.log", &seq) == 1 &&
        std::filesystem::path(WalSegmentPath(dir, seq)).filename() ==
            name) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

std::string CheckpointDeltaPath(const std::string& dir, uint64_t seq) {
  return StrFormat("%s/checkpoint-delta-%08llu.bin", dir.c_str(),
                   static_cast<unsigned long long>(seq));
}

std::vector<uint64_t> ListCheckpointDeltas(const std::string& dir) {
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    // Same re-format validation as ListWalSegments; a prefix sscanf
    // match alone would also accept `.tmp` leftovers of an interrupted
    // atomic publish.
    if (std::sscanf(name.c_str(), "checkpoint-delta-%llu.bin", &seq) == 1 &&
        std::filesystem::path(CheckpointDeltaPath(dir, seq)).filename() ==
            name) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& dir, uint64_t seq,
                       const WalOptions& options,
                       std::string_view fingerprint) {
  TURBO_CHECK_MSG(fd_ < 0, "WalWriter already open on segment " << seq_);
  const std::string path = WalSegmentPath(dir, seq);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::Internal("cannot open " + path + " for write");
  seq_ = seq;
  options_ = options;
  bytes_written_ = 0;
  records_written_ = 0;
  buffered_records_ = 0;
  buf_.clear();
  BinaryWriter header;
  header.Bytes(kWalMagic, sizeof(kWalMagic));
  header.U32(kWalVersion);
  header.U64(seq);
  header.String(fingerprint);
  TURBO_RETURN_IF_ERROR(
      WriteRaw(header.data().data(), header.size()));
  bytes_written_ += header.size();
  if (options_.fsync != WalOptions::Fsync::kNever && ::fsync(fd_) != 0) {
    return Status::Internal("fsync failed for " + path);
  }
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  TURBO_CHECK_MSG(fd_ >= 0, "Append on closed WalWriter");
  BinaryWriter w;
  EncodeRecord(record, &w);
  buf_.append(w.data());
  bytes_written_ += w.size();
  ++records_written_;
  ++buffered_records_;
  if (options_.fsync == WalOptions::Fsync::kEveryAppend ||
      buffered_records_ >= options_.group_commit_records ||
      buf_.size() >= options_.group_commit_bytes) {
    return Flush();
  }
  return Status::OK();
}

Status WalWriter::Flush() {
  TURBO_CHECK_MSG(fd_ >= 0, "Flush on closed WalWriter");
  if (!buf_.empty()) {
    TURBO_RETURN_IF_ERROR(WriteRaw(buf_.data(), buf_.size()));
    buf_.clear();
    buffered_records_ = 0;
  }
  if (options_.fsync != WalOptions::Fsync::kNever && ::fsync(fd_) != 0) {
    return Status::Internal(
        StrFormat("fsync failed for wal segment %llu",
                  static_cast<unsigned long long>(seq_)));
  }
  return Status::OK();
}

Status WalWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Flush();
  ::close(fd_);
  fd_ = -1;
  return s;
}

Status WalWriter::WriteRaw(const char* p, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd_, p + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;  // signal mid-append, not an error
      return Status::Internal(
          StrFormat("write failed for wal segment %llu",
                    static_cast<unsigned long long>(seq_)));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<WalSegment> ReadWalSegment(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& file = bytes.value();
  BinaryReader r(file);
  char magic[sizeof(kWalMagic)];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument(path + ": bad WAL magic");
  }
  const uint32_t version = r.U32();
  if (version != kWalVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: unsupported WAL version %u", path.c_str(), version));
  }
  WalSegment segment;
  segment.seq = r.U64();
  segment.fingerprint = r.String();
  segment.bytes = file.size();
  if (!r.ok()) {
    return Status::InvalidArgument(path + ": truncated WAL header");
  }
  segment.valid_bytes = file.size() - r.remaining();
  while (r.remaining() > 0) {
    // A record cut short or failing its CRC is a torn tail.
    const size_t record_start = file.size() - r.remaining();
    const auto kind = static_cast<WalRecord::Kind>(r.U8());
    const size_t payload = PayloadBytes(kind);
    if (payload == 0 || r.remaining() < payload + sizeof(uint32_t)) {
      segment.torn = true;
      break;
    }
    BinaryReader body(std::string_view(r.Take(payload), payload));
    const uint32_t crc = r.U32();
    if (Crc32(file.data() + record_start, sizeof(uint8_t) + payload) !=
        crc) {
      segment.torn = true;
      break;
    }
    // Past the CRC the bytes are what the writer wrote, so a record
    // that does not decode is corruption, not a crash artefact.
    WalRecord record;
    record.kind = kind;
    switch (kind) {
      case WalRecord::Kind::kIngest: {
        const Status s = DecodeBehaviorLog(&body, &record.log);
        if (!s.ok()) {
          return Status::InvalidArgument(StrFormat(
              "%s: record %zu: %s", path.c_str(), segment.records.size(),
              s.message().c_str()));
        }
        break;
      }
      case WalRecord::Kind::kAdvance:
        record.advance_to = body.I64();
        break;
    }
    segment.records.push_back(record);
    segment.valid_bytes = file.size() - r.remaining();
  }
  return segment;
}

Status TruncateWalSegment(const std::string& path, size_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + " for truncate");
  }
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("truncate failed for " + path);
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace turbo::storage
