#include "storage/checkpoint_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>

#include "util/string_util.h"

namespace turbo::storage {

namespace {

constexpr char kMagic[8] = {'T', 'U', 'R', 'B', 'O', 'B', 'N', '2'};
constexpr uint32_t kFormatVersion = 2;

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table,
/// table[j] advances a byte through j more zero bytes, so eight input
/// bytes fold into the CRC with eight independent lookups per step.
std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int j = 1; j < 8; ++j) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// fsyncs the directory containing `path` so a just-renamed file's
/// directory entry is durable too.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Recovery CRCs every checkpoint section — tens to hundreds of MB on
  // the restart path — so this runs slicing-by-8 (~4x the plain table
  // loop) rather than byte-at-a-time. Same IEEE polynomial and check
  // values either way (little-endian word loads).
  static const std::array<std::array<uint32_t, 256>, 8> kT = MakeCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
        kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFFu] ^
        kT[2][(hi >> 8) & 0xFFu] ^ kT[1][(hi >> 16) & 0xFFu] ^
        kT[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = kT[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void EncodeBehaviorLog(const BehaviorLog& log, BinaryWriter* w) {
  w->U32(log.uid);
  w->U8(static_cast<uint8_t>(log.type));
  w->U64(log.value);
  w->I64(log.time);
}

Status DecodeBehaviorLog(BinaryReader* r, BehaviorLog* log) {
  log->uid = r->U32();
  const uint8_t type = r->U8();
  log->value = r->U64();
  log->time = r->I64();
  if (!r->ok()) return Status::InvalidArgument("truncated behavior log");
  if (type >= kNumBehaviorTypes) {
    return Status::InvalidArgument(
        StrFormat("behavior type %u out of range", type));
  }
  log->type = static_cast<BehaviorType>(type);
  return Status::OK();
}

void EncodeLogBatch(const BehaviorLogList& logs, BinaryWriter* w) {
  w->U64(logs.size());
  for (const BehaviorLog& log : logs) EncodeBehaviorLog(log, w);
}

Status DecodeLogBatch(BinaryReader* r, BehaviorLogList* logs) {
  const uint64_t n = r->U64();
  // Bound the count by the bytes present before reserving for it.
  if (!r->ok() || n > r->remaining() / kBehaviorLogBytes) {
    return Status::InvalidArgument("truncated log batch");
  }
  logs->clear();
  logs->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BehaviorLog log;
    TURBO_RETURN_IF_ERROR(DecodeBehaviorLog(r, &log));
    logs->push_back(log);
  }
  return Status::OK();
}

void CheckpointWriter::AddSection(const std::string& name,
                                  const BinaryWriter& payload) {
  TURBO_CHECK_MSG(!sections_.contains(name),
                  "duplicate checkpoint section '" << name << "'");
  sections_.emplace(name, payload.data());
}

void CheckpointWriter::SetChain(CheckpointKind kind, uint64_t covered_seq,
                                uint64_t parent_seq) {
  kind_ = kind;
  covered_seq_ = covered_seq;
  parent_seq_ = parent_seq;
}

size_t CheckpointWriter::TotalBytes() const {
  size_t n = sizeof(kMagic) + 2 * sizeof(uint32_t) + sizeof(uint8_t) +
             2 * sizeof(uint64_t);
  for (const auto& [name, payload] : sections_) {
    n += 2 * sizeof(uint64_t) + sizeof(uint32_t) + name.size() +
         payload.size();
  }
  return n;
}

Status CheckpointWriter::WriteFile(const std::string& path) const {
  BinaryWriter out;
  out.Bytes(kMagic, sizeof(kMagic));
  out.U32(kFormatVersion);
  out.U8(static_cast<uint8_t>(kind_));
  out.U64(covered_seq_);
  out.U64(parent_seq_);
  out.U32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    out.String(name);
    out.U64(payload.size());
    out.U32(Crc32(payload.data(), payload.size()));
    out.Bytes(payload.data(), payload.size());
  }
  return WriteFileAtomic(path, out.data());
}

Result<CheckpointReader> CheckpointReader::Open(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  CheckpointReader reader;
  reader.file_ = std::make_unique<std::string>(bytes.take());
  const std::string& file = *reader.file_;
  BinaryReader r(file);
  char magic[sizeof(kMagic)];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": bad checkpoint magic");
  }
  const uint32_t version = r.U32();
  if (version != kFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: unsupported checkpoint format version %u", path.c_str(),
        version));
  }
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(CheckpointKind::kDelta)) {
    return Status::InvalidArgument(StrFormat(
        "%s: unknown checkpoint kind %u", path.c_str(), kind));
  }
  reader.kind_ = static_cast<CheckpointKind>(kind);
  reader.covered_seq_ = r.U64();
  reader.parent_seq_ = r.U64();
  const uint32_t count = r.U32();
  for (uint32_t i = 0; i < count; ++i) {
    const std::string name = r.String();
    const uint64_t size = r.U64();
    const uint32_t crc = r.U32();
    if (!r.ok() || size > r.remaining()) {
      return Status::InvalidArgument(
          StrFormat("%s: truncated at section %u", path.c_str(), i));
    }
    // Validate in place and keep a view — copying sections out would
    // double the recovery path's memory traffic.
    const char* payload = r.Take(size);
    if (Crc32(payload, size) != crc) {
      return Status::InvalidArgument(StrFormat(
          "%s: CRC mismatch in section '%s'", path.c_str(), name.c_str()));
    }
    if (!reader.sections_.emplace(name, std::string_view(payload, size))
             .second) {
      return Status::InvalidArgument(StrFormat(
          "%s: repeated section '%s'", path.c_str(), name.c_str()));
    }
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument(path + ": trailing or missing bytes");
  }
  return reader;
}

std::string_view CheckpointReader::Find(const std::string& name) const {
  auto it = sections_.find(name);
  return it == sections_.end() ? std::string_view() : it->second;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  // One sized read, not istreambuf iteration — checkpoints are tens to
  // hundreds of MB and this sits on the recovery path.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) return Status::Internal("cannot stat " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (size > 0 && !in.read(bytes.data(), size)) {
    return Status::Internal("read failed for " + path);
  }
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal("cannot open " + tmp + " for write");
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal; retry
      ::close(fd);
      return Status::Internal("write failed for " + tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fsync failed for " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  SyncParentDir(path);
  return Status::OK();
}

}  // namespace turbo::storage
