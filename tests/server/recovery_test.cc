// Crash-recovery contract of BnServer (DESIGN.md "Durability &
// recovery"): a server recovered from checkpoint + WAL must be
// bit-identical to one that never crashed — same clock, frontiers, edge
// weight bits, snapshot version — and must stay identical under
// identical future traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "server/bn_server.h"
#include "storage/checkpoint_io.h"
#include "storage/wal.h"

namespace turbo::server {
namespace {

constexpr BehaviorType kIp = BehaviorType::kIpv4;
const int kIpIdx = EdgeTypeIndex(kIp);

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

BnServerConfig SmallConfig(const std::string& wal_dir = "") {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = 64;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.wal_dir = wal_dir;
  return cfg;
}

BehaviorLog L(UserId u, ValueId v, SimTime t) {
  return BehaviorLog{u, kIp, v, t};
}

/// Deterministic mixed-type traffic in [t0, t1).
BehaviorLogList Traffic(SimTime t0, SimTime t1, int n) {
  BehaviorLogList logs;
  for (int i = 0; i < n; ++i) {
    const SimTime t = t0 + (i * 977 * kMinute) % (t1 - t0);
    logs.push_back(L(static_cast<UserId>(i * 13 % 64), 1 + i % 9, t));
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 7 % 64),
                               BehaviorType::kWifiMac,
                               static_cast<ValueId>(100 + i % 5), t});
  }
  return logs;
}

TEST(RecoveryTest, CheckpointPlusWalTailIsBitIdentical) {
  const std::string dir = FreshDir("rec_ckpt_wal");
  BnServer reference(SmallConfig());  // never crashes, no WAL
  BnServer writer(SmallConfig(dir));
  // Phase 1: traffic, advance, checkpoint.
  for (const auto& log : Traffic(0, kDay, 120)) {
    reference.Ingest(log);
    writer.Ingest(log);
  }
  reference.AdvanceTo(kDay);
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());
  // Phase 2: more traffic after the checkpoint — the WAL tail.
  for (const auto& log : Traffic(kDay, kDay + 5 * kHour, 60)) {
    reference.Ingest(log);
    writer.Ingest(log);
  }
  reference.AdvanceTo(kDay + 5 * kHour);
  writer.AdvanceTo(kDay + 5 * kHour);  // flushes the WAL
  ASSERT_GT(storage::ListWalSegments(dir).size(), 0u);

  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(recovered), "");
  EXPECT_EQ(writer.FirstDifference(recovered), "");

  // Determinism must survive recovery: identical future traffic keeps
  // the recovered server identical to the uncrashed one.
  for (const auto& log : Traffic(kDay + 5 * kHour, 2 * kDay, 60)) {
    reference.Ingest(log);
    recovered.Ingest(log);
  }
  reference.AdvanceTo(2 * kDay);
  recovered.AdvanceTo(2 * kDay);
  EXPECT_EQ(reference.FirstDifference(recovered), "");
}

TEST(RecoveryTest, WalOnlyRecoverWithoutCheckpoint) {
  const std::string dir = FreshDir("rec_wal_only");
  BnServer reference(SmallConfig());
  {
    BnServer writer(SmallConfig(dir));
    for (const auto& log : Traffic(0, 3 * kHour, 50)) {
      reference.Ingest(log);
      writer.Ingest(log);
    }
    reference.AdvanceTo(3 * kHour);
    writer.AdvanceTo(3 * kHour);
  }
  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(recovered), "");
}

TEST(RecoveryTest, CheckpointOnlyRecoverWithWalDisabled) {
  const std::string dir = FreshDir("rec_ckpt_only");
  BnServer writer(SmallConfig());  // WAL disabled
  writer.IngestBatch(Traffic(0, kDay, 80));
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());
  BnServer recovered(SmallConfig());
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(writer.FirstDifference(recovered), "");
}

TEST(RecoveryTest, RecoverOnEmptyDirIsAFreshStart) {
  const std::string dir = FreshDir("rec_empty");
  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(recovered.now(), 0);
  EXPECT_EQ(recovered.jobs_run(), 0u);
  // The server is usable afterwards.
  recovered.Ingest(L(1, 42, 10 * kMinute));
  recovered.Ingest(L(2, 42, 20 * kMinute));
  recovered.AdvanceTo(kHour);
  EXPECT_GT(recovered.edges().Weight(kIpIdx, 1, 2), 0.0f);
}

TEST(RecoveryTest, EmptyWalSegmentRecovers) {
  const std::string dir = FreshDir("rec_empty_wal");
  {
    BnServer writer(SmallConfig(dir));
    writer.AdvanceTo(0);  // opens the WAL, logs a single advance at t=0
  }
  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(recovered.now(), 0);
  EXPECT_EQ(recovered.jobs_run(), 0u);
}

TEST(RecoveryTest, ReplayAcrossEpochBoundaryAtTimeZero) {
  // Logs at exactly t = 0 sit on the first epoch boundary; replaying
  // them must run the same t=0-inclusive window jobs as the original.
  const std::string dir = FreshDir("rec_t0");
  BnServer reference(SmallConfig());
  BnServer writer(SmallConfig(dir));
  for (UserId u : {0u, 1u, 2u}) {
    reference.Ingest(L(u, 7, 0));
    writer.Ingest(L(u, 7, 0));
  }
  reference.AdvanceTo(0);
  writer.AdvanceTo(0);
  reference.AdvanceTo(kHour);
  writer.AdvanceTo(kHour);
  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(recovered), "");
}

TEST(RecoveryTest, TornFinalRecordRecoversTheDurablePrefix) {
  const std::string dir = FreshDir("rec_torn");
  {
    BnServer writer(SmallConfig(dir));
    writer.Ingest(L(1, 42, 10 * kMinute));
    writer.Ingest(L(2, 42, 20 * kMinute));
    writer.AdvanceTo(kHour);
    writer.Ingest(L(3, 99, kHour + kMinute));  // will be torn off
    // Destructor leaves the segment; flush so the tail is in the file.
  }
  // Tear the final record mid-payload, as a crash mid-write would.
  const auto seqs = storage::ListWalSegments(dir);
  ASSERT_EQ(seqs.size(), 1u);
  const std::string path = storage::WalSegmentPath(dir, seqs[0]);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(storage::WriteFileAtomic(
                  path, std::string_view(bytes.value())
                            .substr(0, bytes.value().size() - 5))
                  .ok());

  BnServer reference(SmallConfig());
  reference.Ingest(L(1, 42, 10 * kMinute));
  reference.Ingest(L(2, 42, 20 * kMinute));
  reference.AdvanceTo(kHour);

  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(recovered), "");
  // Post-recovery writes go to a fresh segment, never the torn one.
  recovered.Ingest(L(4, 5, kHour + 2 * kMinute));
  recovered.AdvanceTo(2 * kHour);
  EXPECT_GT(storage::ListWalSegments(dir).back(), seqs[0]);
}

TEST(RecoveryTest, RestartAfterTornTailRecoveryStillRecovers) {
  // Regression: recovering past a torn final segment used to leave the
  // torn file on disk and open a new segment after it; on the next
  // restart the torn segment was no longer the last one, so Recover()
  // refused ("torn tail but is not the last segment") even though the
  // state was fully reconstructible. Recover() now truncates the torn
  // tail, so any number of crash/recover cycles replay cleanly.
  const std::string dir = FreshDir("rec_torn_restart");
  {
    BnServer writer(SmallConfig(dir));
    writer.Ingest(L(1, 42, 10 * kMinute));
    writer.Ingest(L(2, 42, 20 * kMinute));
    writer.AdvanceTo(kHour);
    writer.Ingest(L(3, 99, kHour + kMinute));  // will be torn off
  }
  const auto seqs = storage::ListWalSegments(dir);
  ASSERT_EQ(seqs.size(), 1u);
  const std::string path = storage::WalSegmentPath(dir, seqs[0]);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(storage::WriteFileAtomic(
                  path, std::string_view(bytes.value())
                            .substr(0, bytes.value().size() - 5))
                  .ok());

  BnServer reference(SmallConfig());
  reference.Ingest(L(1, 42, 10 * kMinute));
  reference.Ingest(L(2, 42, 20 * kMinute));
  reference.AdvanceTo(kHour);
  {
    // First recovery replays the valid prefix and writes to a fresh
    // segment after the (now truncated) torn one.
    BnServer recovered(SmallConfig(dir));
    ASSERT_TRUE(recovered.Recover(dir).ok());
    EXPECT_EQ(reference.FirstDifference(recovered), "");
    recovered.Ingest(L(4, 5, kHour + 2 * kMinute));
    recovered.AdvanceTo(2 * kHour);  // flushes the new segment
    reference.Ingest(L(4, 5, kHour + 2 * kMinute));
    reference.AdvanceTo(2 * kHour);
    ASSERT_GT(storage::ListWalSegments(dir).size(), 1u);
  }
  // Second restart: the once-torn segment is now a non-final segment and
  // must replay as a clean one.
  BnServer again(SmallConfig(dir));
  ASSERT_TRUE(again.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(again), "");
}

TEST(RecoveryTest, SnapshotNodeCountMismatchIsRejected) {
  // A CRC-valid checkpoint whose snapshot section claims a different
  // node count than the (matching) meta section can only be corruption;
  // it must fail cleanly, not publish a wrong-sized serving graph.
  const std::string dir = FreshDir("rec_snap_nodes");
  BnServer writer(SmallConfig(dir));
  writer.IngestBatch(Traffic(0, kDay, 40));
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());

  const std::string path = dir + "/checkpoint.bin";
  auto reader_or = storage::CheckpointReader::Open(path);
  ASSERT_TRUE(reader_or.ok());
  storage::CheckpointWriter rewriter;
  for (const char* name :
       {"meta", "server", "edges", "logs", "buckets", "churn"}) {
    storage::BinaryWriter section;
    const std::string_view payload = reader_or.value().Find(name);
    section.Bytes(payload.data(), payload.size());
    rewriter.AddSection(name, section);
  }
  storage::BinaryWriter snap;
  snap.U8(1);
  storage::EdgeStore tiny;
  tiny.AddWeight(0, 1, 2, 1.0f, 0);
  bn::BnSnapshot::Build(tiny, /*num_nodes=*/32, {}, 1)->Serialize(&snap);
  rewriter.AddSection("snapshot", snap);
  ASSERT_TRUE(rewriter.WriteFile(path).ok());

  BnServer recovered(SmallConfig(dir));
  const Status s = recovered.Recover(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, OutOfRangeEdgeEndpointInCheckpointIsRejected) {
  // Same section-swap attack on "edges": an endpoint beyond num_users
  // must be a clean error, not a multi-billion-row adjacency resize.
  const std::string dir = FreshDir("rec_edge_bound");
  BnServer writer(SmallConfig(dir));
  writer.IngestBatch(Traffic(0, kDay, 40));
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());

  const std::string path = dir + "/checkpoint.bin";
  auto reader_or = storage::CheckpointReader::Open(path);
  ASSERT_TRUE(reader_or.ok());
  storage::CheckpointWriter rewriter;
  for (const char* name :
       {"meta", "server", "logs", "buckets", "snapshot", "churn"}) {
    storage::BinaryWriter section;
    const std::string_view payload = reader_or.value().Find(name);
    section.Bytes(payload.data(), payload.size());
    rewriter.AddSection(name, section);
  }
  storage::BinaryWriter edges;
  edges.U64(1);  // type 0: one edge with a uid far past num_users
  edges.U32(3000000000u);
  edges.U32(1);
  edges.F64(1.0);
  edges.I64(0);
  for (int t = 1; t < kNumEdgeTypes; ++t) edges.U64(0);
  rewriter.AddSection("edges", edges);
  ASSERT_TRUE(rewriter.WriteFile(path).ok());

  BnServer recovered(SmallConfig(dir));
  const Status s = recovered.Recover(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, ConfigMismatchIsRejected) {
  const std::string dir = FreshDir("rec_cfg");
  BnServer writer(SmallConfig(dir));
  writer.IngestBatch(Traffic(0, kHour, 20));
  writer.AdvanceTo(kHour);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());

  BnServerConfig other = SmallConfig(dir);
  other.bn.windows = {kHour, 2 * kDay};  // different engine schedule
  BnServer recovered(other);
  const Status s = recovered.Recover(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, ShardTopologyMismatchIsRejected) {
  // The shard topology is part of the checkpoint's config fingerprint:
  // state written under one cluster layout must not be recovered into
  // another, which would silently build a skewed graph (each shard's
  // window-job key filter depends on count + seeds).
  const std::string dir = FreshDir("rec_topo");
  BnServerConfig writer_cfg = SmallConfig(dir);
  writer_cfg.bn.topology.shard_count = 2;
  writer_cfg.bn.topology.shard_index = 1;
  BnServer writer(writer_cfg);
  writer.IngestBatch(Traffic(0, kHour, 20));
  writer.AdvanceTo(kHour);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());

  const auto expect_rejected = [&](BnServerConfig cfg) {
    BnServer recovered(std::move(cfg));
    const Status s = recovered.Recover(dir);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  };
  BnServerConfig wrong_count = writer_cfg;
  wrong_count.bn.topology.shard_count = 4;
  expect_rejected(wrong_count);
  BnServerConfig wrong_index = writer_cfg;
  wrong_index.bn.topology.shard_index = 0;
  expect_rejected(wrong_index);
  BnServerConfig wrong_user_seed = writer_cfg;
  wrong_user_seed.bn.topology.user_seed ^= 1;
  expect_rejected(wrong_user_seed);
  BnServerConfig wrong_value_seed = writer_cfg;
  wrong_value_seed.bn.topology.value_seed ^= 1;
  expect_rejected(wrong_value_seed);

  // The matching layout still recovers.
  BnServer recovered(writer_cfg);
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(writer.FirstDifference(recovered), "");
}

TEST(RecoveryTest, CorruptCheckpointIsRejected) {
  const std::string dir = FreshDir("rec_corrupt");
  BnServer writer(SmallConfig(dir));
  writer.IngestBatch(Traffic(0, kHour, 20));
  writer.AdvanceTo(kHour);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());

  const std::string path = dir + "/checkpoint.bin";
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() / 2] ^= 0x10;
  ASSERT_TRUE(storage::WriteFileAtomic(path, corrupted).ok());

  BnServer recovered(SmallConfig(dir));
  ASSERT_FALSE(recovered.Recover(dir).ok());
}

TEST(RecoveryTest, MissingWalSegmentIsRejected) {
  const std::string dir = FreshDir("rec_gap");
  {
    BnServer writer(SmallConfig(dir));
    writer.IngestBatch(Traffic(0, kHour, 20));
    writer.AdvanceTo(kHour);
    ASSERT_TRUE(writer.Checkpoint(dir).ok());  // rotates to segment 2
    writer.Ingest(L(1, 1, kHour + kMinute));
    writer.AdvanceTo(2 * kHour);
  }
  // Delete the checkpoint: replay must now start at segment 1, but that
  // segment was dropped by the rotation — recovery has to refuse rather
  // than silently skip the missing records.
  std::filesystem::remove(dir + "/checkpoint.bin");
  const auto seqs = storage::ListWalSegments(dir);
  ASSERT_EQ(seqs, (std::vector<uint64_t>{2}));
  BnServer recovered(SmallConfig(dir));
  const Status s = recovered.Recover(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(RecoveryTest, SamplersRunConcurrentlyWithCheckpoint) {
  // Checkpoint is a writer-side operation: lock-free SampleSubgraph
  // readers may keep running while it serializes state (TSan-checked in
  // the sanitizers workflow).
  const std::string dir = FreshDir("rec_conc_ckpt");
  BnServer server(SmallConfig(dir));
  server.IngestBatch(Traffic(0, kDay, 100));
  server.AdvanceTo(kDay);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&server, &stop, i] {
      UserId uid = static_cast<UserId>(i);
      while (!stop.load(std::memory_order_relaxed)) {
        bn::Subgraph sg = server.SampleSubgraph(uid);
        (void)sg;
        uid = (uid + 7) % 64;
      }
    });
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Checkpoint(dir).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
}

TEST(RecoveryTest, PinnedViewsSurviveRecoveryOfAReplacementServer) {
  // Readers holding views of the crashed incarnation keep serving their
  // pinned snapshot while (and after) a replacement server recovers.
  const std::string dir = FreshDir("rec_conc_recover");
  auto old_server = std::make_unique<BnServer>(SmallConfig(dir));
  old_server->IngestBatch(Traffic(0, kDay, 100));
  old_server->AdvanceTo(kDay);
  bn::GraphView pinned = old_server->view();
  const uint64_t pinned_version = pinned.version();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&pinned, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t degree_sum = 0;
        for (UserId u = 0; u < 64; ++u) {
          degree_sum += pinned.UnionDegree(u);
        }
        (void)degree_sum;
      }
    });
  }
  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  // The old incarnation can even be destroyed: views pin the snapshot.
  old_server.reset();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.version(), pinned_version);
  EXPECT_EQ(recovered.snapshot_version(), pinned_version);
}

TEST(RecoveryTest, DeltaChainRecoveryIsBitIdentical) {
  // Full base + two delta checkpoints + WAL tail must recover to the
  // same bits as a server that never crashed — and keep matching it
  // under identical future traffic (so the recovered chain trackers and
  // churn set are right, not just the recovered arrays).
  const std::string dir = FreshDir("rec_delta_chain");
  BnServer reference(SmallConfig());
  BnServer writer(SmallConfig(dir));
  for (const auto& log : Traffic(0, kDay, 200)) {
    reference.Ingest(log);
    writer.Ingest(log);
  }
  reference.AdvanceTo(kDay);
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());  // full base
  ASSERT_TRUE(storage::ListCheckpointDeltas(dir).empty());

  for (int phase = 1; phase <= 2; ++phase) {
    const SimTime t0 = kDay + (phase - 1) * kHour;
    for (const auto& log : Traffic(t0, t0 + kHour, 5)) {
      reference.Ingest(log);
      writer.Ingest(log);
    }
    reference.AdvanceTo(t0 + kHour);
    writer.AdvanceTo(t0 + kHour);
    ASSERT_TRUE(writer.Checkpoint(dir).ok());
    ASSERT_EQ(storage::ListCheckpointDeltas(dir).size(),
              static_cast<size_t>(phase))
        << "small-churn checkpoint " << phase << " should be a delta";
  }
  // The whole point: each link is much smaller than the base.
  const auto base_bytes =
      std::filesystem::file_size(dir + "/checkpoint.bin");
  for (uint64_t seq : storage::ListCheckpointDeltas(dir)) {
    EXPECT_LT(std::filesystem::file_size(
                  storage::CheckpointDeltaPath(dir, seq)),
              base_bytes);
  }
  // WAL tail past the last delta.
  for (const auto& log : Traffic(kDay + 2 * kHour, kDay + 3 * kHour, 7)) {
    reference.Ingest(log);
    writer.Ingest(log);
  }
  reference.AdvanceTo(kDay + 3 * kHour);
  writer.AdvanceTo(kDay + 3 * kHour);

  BnServer recovered(SmallConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(recovered), "");
  EXPECT_EQ(writer.FirstDifference(recovered), "");

  // Future traffic: exercises the recovered snapshot churn (incremental
  // publishes off the recovered snapshot) and the recovered chain
  // trackers (the next checkpoint extends the chain).
  for (const auto& log : Traffic(kDay + 3 * kHour, kDay + 4 * kHour, 6)) {
    reference.Ingest(log);
    recovered.Ingest(log);
  }
  reference.AdvanceTo(kDay + 4 * kHour);
  recovered.AdvanceTo(kDay + 4 * kHour);
  EXPECT_EQ(reference.FirstDifference(recovered), "");
  const size_t deltas_before = storage::ListCheckpointDeltas(dir).size();
  ASSERT_TRUE(recovered.Checkpoint(dir).ok());
  EXPECT_EQ(storage::ListCheckpointDeltas(dir).size(), deltas_before + 1)
      << "post-recovery checkpoint should extend the delta chain";
}

TEST(RecoveryTest, BrokenDeltaChainIsRejected) {
  // Deleting an intermediate link breaks the parent sequence; recovery
  // must fail loudly instead of silently applying a gapped chain.
  const std::string dir = FreshDir("rec_delta_broken");
  BnServer writer(SmallConfig(dir));
  writer.IngestBatch(Traffic(0, kDay, 200));
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());
  for (int phase = 1; phase <= 2; ++phase) {
    const SimTime t0 = kDay + (phase - 1) * kHour;
    writer.IngestBatch(Traffic(t0, t0 + kHour, 5));
    writer.AdvanceTo(t0 + kHour);
    ASSERT_TRUE(writer.Checkpoint(dir).ok());
  }
  std::vector<uint64_t> deltas = storage::ListCheckpointDeltas(dir);
  ASSERT_EQ(deltas.size(), 2u);
  std::filesystem::remove(storage::CheckpointDeltaPath(dir, deltas[0]));

  BnServer recovered(SmallConfig(dir));
  const Status s = recovered.Recover(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("broken delta chain"), std::string::npos)
      << s.ToString();
}

TEST(RecoveryTest, StaleDeltasFromBeforeAFullCheckpointAreSkipped) {
  // Crash window: a full checkpoint is durable but the process dies
  // before deleting the now-superseded delta files. Recovery must skip
  // them (covered_seq at or below the base's) and still match the
  // reference.
  const std::string dir = FreshDir("rec_delta_stale");
  BnServerConfig cfg = SmallConfig(dir);
  cfg.max_delta_chain = 1;  // the checkpoint after one delta goes full
  BnServer reference(SmallConfig());
  BnServer writer(cfg);
  auto feed = [&](SimTime t0, SimTime t1, int n) {
    for (const auto& log : Traffic(t0, t1, n)) {
      reference.Ingest(log);
      writer.Ingest(log);
    }
    reference.AdvanceTo(t1);
    writer.AdvanceTo(t1);
  };
  feed(0, kDay, 200);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());  // full base
  feed(kDay, kDay + kHour, 5);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());  // delta
  std::vector<uint64_t> deltas = storage::ListCheckpointDeltas(dir);
  ASSERT_EQ(deltas.size(), 1u);
  const std::string stale_path =
      storage::CheckpointDeltaPath(dir, deltas[0]);
  auto stale_bytes = storage::ReadFileBytes(stale_path);
  ASSERT_TRUE(stale_bytes.ok());

  feed(kDay + kHour, kDay + 2 * kHour, 5);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());  // chain cap -> full again
  ASSERT_TRUE(storage::ListCheckpointDeltas(dir).empty());
  // Resurrect the superseded delta, as a crash before cleanup would.
  ASSERT_TRUE(
      storage::WriteFileAtomic(stale_path, stale_bytes.value()).ok());

  BnServerConfig rcfg = SmallConfig(dir);
  rcfg.max_delta_chain = 1;
  BnServer recovered(rcfg);
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_EQ(reference.FirstDifference(recovered), "");
}

TEST(RecoveryTest, DeltaCheckpointsDisabledAlwaysWritesFull) {
  const std::string dir = FreshDir("rec_delta_off");
  BnServerConfig cfg = SmallConfig(dir);
  cfg.delta_checkpoints = false;
  BnServer writer(cfg);
  writer.IngestBatch(Traffic(0, kDay, 100));
  writer.AdvanceTo(kDay);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());
  writer.IngestBatch(Traffic(kDay, kDay + kHour, 5));
  writer.AdvanceTo(kDay + kHour);
  ASSERT_TRUE(writer.Checkpoint(dir).ok());
  EXPECT_TRUE(storage::ListCheckpointDeltas(dir).empty());
}

}  // namespace
}  // namespace turbo::server
