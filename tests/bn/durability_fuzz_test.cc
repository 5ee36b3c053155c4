// Seeded fuzz of the durability decoders: the WAL segment reader, the
// checkpoint container, and the checkpoint section decoders of the edge
// store (full and delta), the log store, the bucket cache, the churn set
// and the snapshot (over no base and over a base). Every input must
// either decode or fail with a non-OK Status: a decoder may never crash
// or read out of bounds (the asan-ubsan job runs this file). Inputs are
// valid encodings of random states, their truncations, byte flips,
// random appended tails, and random bodies; a flipped WAL record gets
// its CRC recomputed, so the record decoder sees the damage rather than
// the CRC check. Failures print the seed and the input.
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bn/builder.h"
#include "bn/snapshot.h"
#include "storage/checkpoint_io.h"
#include "storage/edge_store.h"
#include "storage/log_store.h"
#include "storage/wal.h"
#include "util/rng.h"

namespace turbo::bn {
namespace {

using storage::BinaryReader;
using storage::BinaryWriter;

constexpr uint64_t kSeed = 0x5eed2402;
constexpr int kStates = 80;     // random states per decoder
constexpr int kMutations = 12;  // mutated inputs per state
constexpr UserId kUsers = 40;

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextUint(256));
  return out;
}

/// Flips 1-3 random bytes; returns the flipped positions.
std::vector<size_t> FlipBytes(Rng* rng, std::string* body) {
  std::vector<size_t> at;
  if (body->empty()) return at;
  const int flips = 1 + static_cast<int>(rng->NextUint(3));
  for (int f = 0; f < flips; ++f) {
    at.push_back(rng->NextUint(body->size()));
    (*body)[at.back()] ^= static_cast<char>(1 + rng->NextUint(255));
  }
  return at;
}

/// Encodes kStates random states with `make`, checks each valid
/// encoding decodes, then feeds `decode` kMutations mutations of it plus
/// one random body of similar length. `decode` returns the decoder's
/// Status; reaching the check at all is the test (no abort, no ASan
/// report). `after_flip` may repair what a flip broke besides the
/// decoder's input (the WAL's record CRCs).
void Fuzz(const char* name, const std::function<std::string(Rng*)>& make,
          const std::function<Status(const std::string&)>& decode,
          const std::function<void(const std::string&, std::string*,
                                   const std::vector<size_t>&)>&
              after_flip = nullptr) {
  Rng rng(kSeed);
  for (int m = 0; m < kStates; ++m) {
    const std::string valid = make(&rng);
    const std::string where = std::string(name) +
                              " seed=" + std::to_string(kSeed) + " state " +
                              std::to_string(m);
    {
      const Status s = decode(valid);
      ASSERT_TRUE(s.ok()) << where << ": valid input: " << s.ToString();
    }
    for (int k = 0; k < kMutations; ++k) {
      std::string body = valid;
      switch (rng.NextUint(3)) {
        case 0:  // truncation
          body.resize(rng.NextUint(body.size() + 1));
          break;
        case 1: {
          const std::vector<size_t> at = FlipBytes(&rng, &body);
          if (after_flip) after_flip(valid, &body, at);
          break;
        }
        default:  // trailing bytes
          body += RandomBytes(&rng, 1 + rng.NextUint(16));
          break;
      }
      decode(body);  // any Status; the input must not crash the decoder
      if (testing::Test::HasFailure()) {
        FAIL() << where << " mutation " << k;
      }
    }
    decode(RandomBytes(&rng, rng.NextUint(valid.size() + 32)));
    if (testing::Test::HasFailure()) FAIL() << where << " random body";
  }
}

storage::EdgeStore RandomEdges(Rng* rng, int max_edges) {
  storage::EdgeStore store;
  const int n = static_cast<int>(rng->NextUint(max_edges + 1));
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<UserId>(rng->NextUint(kUsers));
    const auto v = static_cast<UserId>(rng->NextUint(kUsers));
    if (u == v) continue;
    store.AddWeight(static_cast<int>(rng->NextUint(kNumEdgeTypes)), u, v,
                    0.25f * static_cast<float>(1 + rng->NextUint(8)),
                    static_cast<SimTime>(rng->NextUint(10 * kDay)));
  }
  return store;
}

BehaviorLog RandomLog(Rng* rng, SimTime span) {
  BehaviorLog log;
  log.uid = static_cast<UserId>(rng->NextUint(kUsers));
  log.type = static_cast<BehaviorType>(rng->NextUint(kNumBehaviorTypes));
  log.value = 1 + rng->NextUint(6);
  log.time = static_cast<SimTime>(rng->NextUint(span));
  return log;
}

BehaviorLogList RandomLogs(Rng* rng, int max_logs, SimTime span) {
  BehaviorLogList logs(rng->NextUint(max_logs + 1));
  for (BehaviorLog& log : logs) log = RandomLog(rng, span);
  return logs;
}

std::shared_ptr<const BnSnapshot> BuildSnapshot(
    const storage::EdgeStore& store, bool normalize, uint64_t version) {
  SnapshotOptions options;
  options.normalize = normalize;
  options.num_threads = 1;
  return BnSnapshot::Build(store, kUsers, options, version);
}

/// A segment's valid bytes and the [begin, end) byte span of each
/// record's CRC-covered body (kind + payload).
struct EncodedSegment {
  std::string bytes;
  std::vector<std::pair<size_t, size_t>> bodies;
};

TEST(DurabilityFuzzTest, WalSegment) {
  const std::string dir = testing::TempDir() + "/durability_fuzz_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = storage::WalSegmentPath(dir, 1);
  EncodedSegment current;
  const auto make = [&](Rng* rng) {
    storage::WalWriter writer;
    const std::string fingerprint = RandomBytes(rng, rng->NextUint(40));
    TURBO_CHECK(writer.Open(dir, 1, {}, fingerprint).ok());
    std::vector<size_t> payloads;
    const int n = static_cast<int>(rng->NextUint(12));
    for (int i = 0; i < n; ++i) {
      if (rng->NextUint(3) == 0) {
        const auto to = static_cast<SimTime>(rng->NextUint(kDay));
        TURBO_CHECK(writer.Append(storage::WalRecord::Advance(to)).ok());
        payloads.push_back(sizeof(int64_t));
      } else {
        TURBO_CHECK(writer
                        .Append(storage::WalRecord::Ingest(
                            RandomLog(rng, kDay)))
                        .ok());
        payloads.push_back(storage::kBehaviorLogBytes);
      }
    }
    TURBO_CHECK(writer.Close().ok());
    auto bytes = storage::ReadFileBytes(path);
    TURBO_CHECK(bytes.ok());
    current.bytes = bytes.value();
    current.bodies.clear();
    // Records follow the header back to back: u8 kind | payload | u32.
    size_t end = current.bytes.size();
    for (size_t i = payloads.size(); i-- > 0;) {
      const size_t begin = end - sizeof(uint32_t) - 1 - payloads[i];
      current.bodies.insert(current.bodies.begin(),
                            {begin, begin + 1 + payloads[i]});
      end = begin;
    }
    return current.bytes;
  };
  const auto decode = [&](const std::string& bytes) {
    TURBO_CHECK(storage::WriteFileAtomic(path, bytes).ok());
    auto segment_or = storage::ReadWalSegment(path);
    if (!segment_or.ok()) return segment_or.status();
    // What the reader accepts, replay may apply: every record it returns
    // must be one the codec would have written.
    for (const storage::WalRecord& record : segment_or.value().records) {
      if (record.kind == storage::WalRecord::Kind::kIngest) {
        EXPECT_LT(static_cast<int>(record.log.type), kNumBehaviorTypes);
      }
    }
    EXPECT_LE(segment_or.value().valid_bytes, bytes.size());
    return Status::OK();
  };
  // Recompute the CRC of every record whose body a flip hit, so the
  // damage reaches the record decoder instead of ending the segment.
  const auto recrc = [&](const std::string& valid, std::string* body,
                         const std::vector<size_t>& flipped) {
    ASSERT_EQ(valid, current.bytes);
    for (const auto& [begin, end] : current.bodies) {
      bool hit = false;
      for (size_t at : flipped) hit = hit || (at >= begin && at < end);
      if (!hit) continue;
      const uint32_t crc = storage::Crc32(body->data() + begin, end - begin);
      body->replace(end, sizeof(crc),
                    std::string(reinterpret_cast<const char*>(&crc),
                                sizeof(crc)));
    }
  };
  Fuzz("wal_segment", make, decode, recrc);
}

TEST(DurabilityFuzzTest, CheckpointContainer) {
  const std::string dir = testing::TempDir() + "/durability_fuzz_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint.bin";
  const char* const kNames[] = {"meta", "server", "edges", "logs", "churn"};
  Fuzz(
      "checkpoint",
      [&](Rng* rng) {
        storage::CheckpointWriter writer;
        writer.SetChain(static_cast<storage::CheckpointKind>(rng->NextUint(2)),
                        rng->Next(), rng->Next());
        for (const char* name : kNames) {
          if (rng->NextUint(2) == 0) continue;
          BinaryWriter payload;
          const std::string body = RandomBytes(rng, rng->NextUint(24));
          payload.Bytes(body.data(), body.size());
          writer.AddSection(name, payload);
        }
        TURBO_CHECK(writer.WriteFile(path).ok());
        auto bytes = storage::ReadFileBytes(path);
        TURBO_CHECK(bytes.ok());
        return bytes.value();
      },
      [&](const std::string& bytes) {
        TURBO_CHECK(storage::WriteFileAtomic(path, bytes).ok());
        auto reader_or = storage::CheckpointReader::Open(path);
        if (!reader_or.ok()) return reader_or.status();
        // What Open accepts lies inside the file.
        for (const char* name : kNames) {
          EXPECT_LE(reader_or.value().Find(name).size(), bytes.size());
        }
        return Status::OK();
      });
}

TEST(DurabilityFuzzTest, EdgeStoreSection) {
  // A full section: every row, applied to an empty store.
  Fuzz(
      "edges",
      [](Rng* rng) {
        const storage::EdgeStore store = RandomEdges(rng, 30);
        BinaryWriter w;
        store.SerializeTouched(store.AllRows(), &w);
        return w.data();
      },
      [](const std::string& bytes) {
        BinaryReader r(bytes);
        storage::EdgeStore store;
        return store.ApplyDeltaSection(&r, kUsers);
      });
}

TEST(DurabilityFuzzTest, EdgeStoreDeltaSection) {
  // The base each delta applies over; the writer's store is the base
  // plus random edges, and the churn names both endpoints of each.
  std::string base_bytes;
  Fuzz(
      "edges_delta",
      [&](Rng* rng) {
        storage::EdgeStore base = RandomEdges(rng, 20);
        BinaryWriter bw;
        base.SerializeTouched(base.AllRows(), &bw);
        base_bytes = bw.data();
        storage::EdgeChurn churn;
        const int n = static_cast<int>(rng->NextUint(10));
        for (int i = 0; i < n; ++i) {
          const auto u = static_cast<UserId>(rng->NextUint(kUsers));
          const auto v = static_cast<UserId>(rng->NextUint(kUsers));
          if (u == v) continue;
          const int t = static_cast<int>(rng->NextUint(kNumEdgeTypes));
          base.AddWeight(t, u, v, 0.5f, kDay);
          churn.Touch(t, u);
          churn.Touch(t, v);
        }
        BinaryWriter w;
        base.SerializeTouched(churn, &w);
        return w.data();
      },
      [&](const std::string& bytes) {
        storage::EdgeStore store;
        BinaryReader base(base_bytes);
        TURBO_CHECK(store.ApplyDeltaSection(&base, kUsers).ok());
        BinaryReader r(bytes);
        return store.ApplyDeltaSection(&r, kUsers);
      });
}

TEST(DurabilityFuzzTest, LogStoreSection) {
  Fuzz(
      "logs",
      [](Rng* rng) {
        storage::LogStore store;
        for (const BehaviorLog& log : RandomLogs(rng, 30, 3 * kDay)) {
          store.Append(log);
        }
        BinaryWriter w;
        store.Serialize(&w);
        return w.data();
      },
      [](const std::string& bytes) {
        BinaryReader r(bytes);
        storage::LogStore store;
        return store.Deserialize(&r, kUsers);
      });
}

TEST(DurabilityFuzzTest, BucketCacheSection) {
  BnConfig cfg;
  cfg.windows = {kHour, kDay};
  Fuzz(
      "buckets",
      [&](Rng* rng) {
        // A day and a half of logs: the hours of the unfinished day stay
        // cached for the day window that will merge them.
        storage::EdgeStore edges;
        BnBuilder builder(cfg, &edges);
        builder.BuildFromLogs(RandomLogs(rng, 60, kDay + kDay / 2));
        BinaryWriter w;
        builder.SerializeCacheSince(0, &w);
        return w.data();
      },
      [&](const std::string& bytes) {
        storage::EdgeStore edges;
        BnBuilder builder(cfg, &edges);
        BinaryReader r(bytes);
        return builder.DeserializeCacheDelta(&r, kUsers);
      });
}

TEST(DurabilityFuzzTest, ChurnSection) {
  Fuzz(
      "churn",
      [](Rng* rng) {
        storage::EdgeChurn churn;
        const int n = static_cast<int>(rng->NextUint(20));
        for (int i = 0; i < n; ++i) {
          churn.Touch(static_cast<int>(rng->NextUint(kNumEdgeTypes)),
                      static_cast<UserId>(rng->NextUint(kUsers)));
        }
        BinaryWriter w;
        churn.Serialize(&w);
        return w.data();
      },
      [](const std::string& bytes) {
        BinaryReader r(bytes);
        storage::EdgeChurn churn;
        return churn.Deserialize(&r, kUsers);
      });
}

TEST(DurabilityFuzzTest, SnapshotSection) {
  // Over no base: every group written, every group required.
  Fuzz(
      "snapshot",
      [](Rng* rng) {
        BinaryWriter w;
        BuildSnapshot(RandomEdges(rng, 30), rng->NextUint(2) == 0,
                      rng->Next())
            ->SerializeDiff(nullptr, &w);
        return w.data();
      },
      [](const std::string& bytes) {
        BinaryReader r(bytes);
        return BnSnapshot::DeserializePatched(nullptr, &r).status();
      });
}

TEST(DurabilityFuzzTest, SnapshotDiffSection) {
  // The diff of an incremental publish against the snapshot it patched.
  std::shared_ptr<const BnSnapshot> base;
  Fuzz(
      "snapshot_diff",
      [&](Rng* rng) {
        storage::EdgeStore store = RandomEdges(rng, 30);
        const bool normalize = rng->NextUint(2) == 0;
        base = BuildSnapshot(store, normalize, 1);
        storage::EdgeChurn churn;
        const int n = 1 + static_cast<int>(rng->NextUint(6));
        for (int i = 0; i < n; ++i) {
          const auto u = static_cast<UserId>(rng->NextUint(kUsers));
          const auto v = static_cast<UserId>((u + 1) % kUsers);
          const int t = static_cast<int>(rng->NextUint(kNumEdgeTypes));
          store.AddWeight(t, u, v, 1.0f, kDay);
          churn.Touch(t, u);
          churn.Touch(t, v);
        }
        SnapshotOptions options;
        options.normalize = normalize;
        options.num_threads = 1;
        const auto next =
            BnSnapshot::ApplyDeltas(base, store, churn, options, 2);
        BinaryWriter w;
        next->SerializeDiff(base.get(), &w);
        return w.data();
      },
      [&](const std::string& bytes) {
        BinaryReader r(bytes);
        return BnSnapshot::DeserializePatched(base, &r).status();
      });
}

}  // namespace
}  // namespace turbo::bn
