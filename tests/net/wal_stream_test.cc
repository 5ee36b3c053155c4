// Streaming WAL ship over RPC (DESIGN.md §15): ShipWalOverRpc into a
// WalSinkService must be byte-equivalent to the local ShipWalDir, the
// receiver's offset-checked appends must turn client retries into
// verified no-ops and divergence into loud failures, and a connection
// killed mid-ship must leave exactly the torn-but-resumable tail shape
// the standby replay protocol already tolerates. The end-to-end test
// drives a real primary + WarmStandby through catch-up, a mid-ship
// kill, a checkpoint-rotation gap, Rebootstrap, and Promote.
#include "net/wal_stream.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/rpc.h"
#include "server/bn_server.h"
#include "server/warm_standby.h"
#include "storage/wal.h"
#include "storage/wal_ship.h"
#include "util/time_util.h"

namespace turbo::net {
namespace {

namespace fs = std::filesystem;

constexpr int kUsers = 64;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

storage::WalOptions NoFsync() {
  storage::WalOptions o;
  o.fsync = storage::WalOptions::Fsync::kNever;
  o.group_commit_records = 1;
  return o;
}

/// Writes `n` ingest records into segment `seq` of `dir` and closes it.
void WriteSegment(const std::string& dir, uint64_t seq, int n) {
  storage::WalWriter w;
  ASSERT_TRUE(w.Open(dir, seq, NoFsync()).ok());
  for (int i = 0; i < n; ++i) {
    const BehaviorLog log{static_cast<UserId>(i), BehaviorType::kIpv4,
                          static_cast<ValueId>(100 + i), i * kMinute};
    ASSERT_TRUE(w.Append(storage::WalRecord::Ingest(log)).ok());
  }
  ASSERT_TRUE(w.Close().ok());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Every regular file of `dir`, as name -> bytes.
std::vector<std::pair<std::string, std::string>> DirContents(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files.emplace_back(entry.path().filename().string(),
                       ReadBytes(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::unique_ptr<WalSinkService> StartSink(const std::string& replica_dir) {
  WalSinkServiceConfig cfg;
  cfg.endpoint.port = 0;
  cfg.replica_dir = replica_dir;
  auto service_or = WalSinkService::Start(cfg);
  EXPECT_TRUE(service_or.ok()) << service_or.status().ToString();
  return service_or.take();
}

RpcClientConfig SinkClientConfig(const WalSinkService& service,
                                 obs::MetricsRegistry* metrics = nullptr) {
  RpcClientConfig cfg;
  cfg.endpoint = service.endpoint();
  cfg.metrics = metrics;
  cfg.backoff_initial_ms = 1;
  cfg.backoff_max_ms = 10;
  return cfg;
}

/// Chaos sink: forwards to an RpcWalShipSink but hard-kills the
/// service's connections immediately before append number `kill_at`.
class KillingSink final : public storage::WalShipSink {
 public:
  KillingSink(RpcClient* client, WalSinkService* service, int kill_at)
      : inner_(client), service_(service), kill_at_(kill_at) {}

  Result<storage::WalShipFileStat> Stat(const std::string& name,
                                        bool want_crc) override {
    return inner_.Stat(name, want_crc);
  }
  Status AppendAt(const std::string& name, uint64_t offset,
                  std::string_view bytes) override {
    if (appends_++ == kill_at_) service_->CloseConnections();
    return inner_.AppendAt(name, offset, bytes);
  }
  Status WriteAtomic(const std::string& name,
                     std::string_view bytes) override {
    return inner_.WriteAtomic(name, bytes);
  }
  Status Delete(const std::string& name) override {
    return inner_.Delete(name);
  }
  Result<std::vector<std::string>> ListFiles() override {
    return inner_.ListFiles();
  }

  int appends() const { return appends_; }

 private:
  RpcWalShipSink inner_;
  WalSinkService* service_;
  int kill_at_;
  int appends_ = 0;
};

TEST(NetWalStreamTest, RemoteShipMatchesLocalShipByteForByte) {
  const std::string src = FreshDir("netship_src");
  const std::string remote = FreshDir("netship_remote");
  const std::string local = FreshDir("netship_local");
  WriteSegment(src, 1, 5);
  WriteSegment(src, 2, 3);
  WriteBytes(src + "/checkpoint.bin", "fake-checkpoint-bytes");

  auto service = StartSink(remote);
  RpcClient client(SinkClientConfig(*service));
  auto remote_or = ShipWalOverRpc(src, &client);
  ASSERT_TRUE(remote_or.ok()) << remote_or.status().ToString();
  auto local_or = storage::ShipWalDir(src, local);
  ASSERT_TRUE(local_or.ok());

  // Identical stats and identical replica bytes.
  EXPECT_EQ(remote_or.value().segments_created,
            local_or.value().segments_created);
  EXPECT_EQ(remote_or.value().segment_bytes_appended,
            local_or.value().segment_bytes_appended);
  EXPECT_EQ(remote_or.value().checkpoint_files_copied,
            local_or.value().checkpoint_files_copied);
  EXPECT_EQ(remote_or.value().max_segment_seq,
            local_or.value().max_segment_seq);
  EXPECT_EQ(DirContents(remote), DirContents(local));
  EXPECT_EQ(DirContents(remote), DirContents(src));
}

TEST(NetWalStreamTest, ReshipOverRpcIsANoOp) {
  const std::string src = FreshDir("netship_noop_src");
  const std::string remote = FreshDir("netship_noop_remote");
  WriteSegment(src, 1, 4);
  WriteBytes(src + "/checkpoint.bin", "ckpt");

  auto service = StartSink(remote);
  RpcClient client(SinkClientConfig(*service));
  ASSERT_TRUE(ShipWalOverRpc(src, &client).ok());
  auto again_or = ShipWalOverRpc(src, &client);
  ASSERT_TRUE(again_or.ok());
  EXPECT_EQ(again_or.value().segments_created, 0u);
  EXPECT_EQ(again_or.value().segment_bytes_appended, 0u);
  EXPECT_EQ(again_or.value().checkpoint_files_copied, 0u);
  EXPECT_EQ(again_or.value().files_deleted, 0u);
}

TEST(NetWalStreamTest, GrowingTailShipsOnlyTheAppendedBytes) {
  const std::string src = FreshDir("netship_grow_src");
  const std::string remote = FreshDir("netship_grow_remote");
  WriteSegment(src, 1, 5);
  auto service = StartSink(remote);
  RpcClient client(SinkClientConfig(*service));
  ASSERT_TRUE(ShipWalOverRpc(src, &client).ok());

  // The primary appends more bytes to the live segment.
  const std::string seg = storage::WalSegmentPath(src, 1);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    out.write("tail-bytes", 10);
  }
  auto stats_or = ShipWalOverRpc(src, &client);
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().segments_created, 0u);
  EXPECT_EQ(stats_or.value().segment_bytes_appended, 10u);
  EXPECT_EQ(ReadBytes(storage::WalSegmentPath(remote, 1)), ReadBytes(seg));
}

TEST(NetWalStreamTest, ReceiverVerifiesAppendOffsetsAndTails) {
  const std::string remote = FreshDir("netship_verify_remote");
  auto service = StartSink(remote);
  RpcClient client(SinkClientConfig(*service));
  RpcWalShipSink sink(&client);

  const std::string name = "wal-00000001.log";
  ASSERT_TRUE(sink.AppendAt(name, 0, "abc").ok());
  // Replayed duplicate (client retry after a lost response): verified
  // no-op, the file does not double.
  ASSERT_TRUE(sink.AppendAt(name, 0, "abc").ok());
  EXPECT_EQ(ReadBytes(remote + "/" + name), "abc");
  // A gap is refused...
  EXPECT_EQ(sink.AppendAt(name, 5, "zz").code(),
            StatusCode::kFailedPrecondition);
  // ...and so is a same-length divergent tail.
  EXPECT_EQ(sink.AppendAt(name, 0, "abd").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ReadBytes(remote + "/" + name), "abc");
  // In-order continuation lands.
  ASSERT_TRUE(sink.AppendAt(name, 3, "def").ok());
  EXPECT_EQ(ReadBytes(remote + "/" + name), "abcdef");
}

TEST(NetWalStreamTest, PathEscapingNamesAreRejected) {
  const std::string remote = FreshDir("netship_names_remote");
  auto service = StartSink(remote);
  RpcClient client(SinkClientConfig(*service));
  RpcWalShipSink sink(&client);
  for (const std::string& name :
       {std::string("../evil"), std::string("a/b"), std::string("")}) {
    EXPECT_FALSE(sink.AppendAt(name, 0, "x").ok()) << name;
    EXPECT_FALSE(sink.WriteAtomic(name, "x").ok()) << name;
    EXPECT_FALSE(sink.Stat(name, false).ok()) << name;
    EXPECT_FALSE(sink.Delete(name).ok()) << name;
  }
  EXPECT_TRUE(DirContents(remote).empty());
  EXPECT_FALSE(fs::exists(testing::TempDir() + "/evil"));
}

TEST(NetWalStreamTest, KillMidShipLeavesResumableTailThenConverges) {
  const std::string src = FreshDir("netship_kill_src");
  const std::string remote = FreshDir("netship_kill_remote");
  WriteSegment(src, 1, 200);
  const size_t src_size =
      static_cast<size_t>(fs::file_size(storage::WalSegmentPath(src, 1)));

  auto service = StartSink(remote);
  storage::WalShipOptions options;
  options.append_chunk_bytes = 64;  // many chunks per segment

  {
    // No retries: the kill before the 4th append aborts this round.
    RpcClientConfig cfg = SinkClientConfig(*service);
    cfg.max_retries = 0;
    RpcClient client(cfg);
    KillingSink sink(&client, service.get(), /*kill_at=*/3);
    auto stats_or = storage::ShipWal(src, &sink, options);
    ASSERT_FALSE(stats_or.ok());
    EXPECT_TRUE(stats_or.status().IsUnavailable())
        << stats_or.status().ToString();
  }
  // Some prefix landed; the rest did not.
  const std::string replica_seg = storage::WalSegmentPath(remote, 1);
  ASSERT_TRUE(fs::exists(replica_seg));
  const size_t partial = static_cast<size_t>(fs::file_size(replica_seg));
  EXPECT_GT(partial, 0u);
  EXPECT_LT(partial, src_size);

  // The next round re-stats the replica and resumes at its true size.
  obs::MetricsRegistry metrics;
  RpcClient client(SinkClientConfig(*service, &metrics));
  auto stats_or = ShipWalOverRpc(src, &client, options);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or.value().segments_created, 0u);
  EXPECT_EQ(stats_or.value().segment_bytes_appended, src_size - partial);
  EXPECT_EQ(ReadBytes(replica_seg),
            ReadBytes(storage::WalSegmentPath(src, 1)));
}

// --- End-to-end: primary -> RPC ship -> standby ----------------------

server::BnServerConfig SmallConfig(const std::string& wal_dir = "") {
  server::BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = kUsers;
  cfg.snapshot_refresh = kHour;
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.wal_dir = wal_dir;
  return cfg;
}

BehaviorLogList Traffic(SimTime t0, SimTime t1, int n) {
  BehaviorLogList logs;
  for (int i = 0; i < n; ++i) {
    const SimTime t = t0 + (i * 977 * kMinute) % (t1 - t0);
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 13 % kUsers),
                               BehaviorType::kIpv4,
                               static_cast<ValueId>(1 + i % 9), t});
    logs.push_back(BehaviorLog{static_cast<UserId>(i * 7 % kUsers),
                               BehaviorType::kWifiMac,
                               static_cast<ValueId>(100 + i % 5), t});
  }
  return logs;
}

TEST(NetWalStreamTest, StandbyTracksKilledShipsAndRebootstrapsOnGap) {
  const std::string primary_dir = FreshDir("netship_e2e_primary");
  const std::string replica_dir = FreshDir("netship_e2e_replica");
  auto primary = std::make_unique<server::BnServer>(SmallConfig(primary_dir));
  auto service = StartSink(replica_dir);
  server::WarmStandbyConfig scfg;
  scfg.server = SmallConfig();
  scfg.replica_dir = replica_dir;
  server::WarmStandby standby(scfg);

  // Round 1: plain RPC ship bootstraps the standby bit-identically.
  primary->IngestBatch(Traffic(0, kDay, 120));
  primary->AdvanceTo(kDay);
  obs::MetricsRegistry metrics;
  RpcClient client(SinkClientConfig(*service, &metrics));
  ASSERT_TRUE(ShipWalOverRpc(primary_dir, &client).ok());
  ASSERT_TRUE(standby.CatchUp().ok());
  ASSERT_TRUE(standby.bootstrapped());
  EXPECT_EQ(primary->FirstDifference(*standby.server()), "");

  // Round 2: the connection dies mid-ship; the client's retry loop
  // reconnects (every sink op is receiver-side idempotent) and the
  // standby still lands bit-identical.
  primary->IngestBatch(Traffic(kDay, kDay + 5 * kHour, 60));
  primary->AdvanceTo(kDay + 5 * kHour);
  storage::WalShipOptions options;
  options.append_chunk_bytes = 128;
  KillingSink sink(&client, service.get(), /*kill_at=*/1);
  auto stats_or = storage::ShipWal(primary_dir, &sink, options);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_GE(metrics.GetCounter("net_reconnects_total")->value(), 1u);
  ASSERT_TRUE(standby.CatchUp().ok());
  EXPECT_EQ(primary->FirstDifference(*standby.server()), "");

  // Round 3: checkpoint rotation on the primary; the mirror-delete ship
  // removes the segments this standby was consuming. CatchUp detects
  // the gap; Rebootstrap rebuilds from the shipped checkpoint.
  primary->IngestBatch(Traffic(kDay + 5 * kHour, kDay + 8 * kHour, 40));
  primary->AdvanceTo(kDay + 8 * kHour);
  ASSERT_TRUE(primary->Checkpoint(primary_dir).ok());
  primary->IngestBatch(Traffic(kDay + 8 * kHour, kDay + 11 * kHour, 40));
  primary->AdvanceTo(kDay + 11 * kHour);
  ASSERT_TRUE(ShipWalOverRpc(primary_dir, &client).ok());
  const Status gap = standby.CatchUp();
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.message().find("replication gap"), std::string::npos)
      << gap.message();
  ASSERT_TRUE(standby.Rebootstrap().ok());
  EXPECT_EQ(primary->FirstDifference(*standby.server()), "");

  // Round 4: the primary dies; the standby promotes into a durable
  // primary over the RPC-shipped replica directory.
  primary.reset();
  auto promoted_or = standby.Promote();
  ASSERT_TRUE(promoted_or.ok()) << promoted_or.status().message();
  server::BnServer* promoted = promoted_or.value();
  promoted->IngestBatch(Traffic(kDay + 11 * kHour, kDay + 14 * kHour, 30));
  promoted->AdvanceTo(kDay + 14 * kHour);
  server::BnServer recovered(SmallConfig(replica_dir));
  ASSERT_TRUE(recovered.Recover(replica_dir).ok());
  EXPECT_EQ(promoted->FirstDifference(recovered), "");
}

}  // namespace
}  // namespace turbo::net
