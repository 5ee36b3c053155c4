// SIGKILL fault injection (the CI `recovery` job): a child process
// ingests through the WAL with per-append fsync, the parent kills it
// mid-stream with no chance to clean up, then recovers from the
// directory and checks the recovered state against a clean server fed
// the independently decoded durable WAL prefix.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "server/bn_server.h"
#include "storage/wal.h"

namespace turbo::server {
namespace {

BnServerConfig CrashConfig(const std::string& wal_dir) {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = 64;
  cfg.snapshot_refresh = kHour;
  // Serial engine: the forked child must not depend on threads that
  // fork() does not carry over, and determinism holds at any count.
  cfg.window_job_threads = 1;
  cfg.snapshot_build_threads = 1;
  cfg.wal_dir = wal_dir;
  // Every append is durable before the in-memory apply, so whatever the
  // child managed to do is exactly what the WAL holds.
  cfg.wal.fsync = storage::WalOptions::Fsync::kEveryAppend;
  return cfg;
}

/// The child's traffic: endless deterministic stream, one log per step,
/// an AdvanceTo on every hour boundary. Never returns.
[[noreturn]] void RunDoomedChild(const std::string& dir) {
  BnServer server(CrashConfig(dir));
  uint64_t i = 0;
  for (SimTime t = 0;; t += 5 * kMinute, ++i) {
    server.Ingest(BehaviorLog{static_cast<UserId>(i * 13 % 64),
                              BehaviorType::kIpv4, 1 + i % 9, t});
    server.Ingest(BehaviorLog{static_cast<UserId>(i * 7 % 64),
                              BehaviorType::kWifiMac, 100 + i % 5, t});
    if (t % kHour == 0) server.AdvanceTo(t);
  }
}

size_t DurableWalBytes(const std::string& dir) {
  size_t total = 0;
  for (uint64_t seq : storage::ListWalSegments(dir)) {
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(storage::WalSegmentPath(dir, seq), ec);
    if (!ec) total += size;
  }
  return total;
}

TEST(RecoveryCrashTest, SigkillMidIngestRecoversTheDurablePrefix) {
  const std::string dir = testing::TempDir() + "/crash_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    RunDoomedChild(dir);  // never returns; dies by SIGKILL
  }
  // Wait until the child has durably logged a meaningful stream (well
  // past several AdvanceTo consistency points), then kill it with no
  // warning — SIGKILL cannot be caught, so no destructor runs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (DurableWalBytes(dir) < 16 * 1024 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(DurableWalBytes(dir), 16u * 1024u) << "child made no progress";
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Independently decode the durable records (the last one may be torn
  // — a crash mid-append loses only that record) and feed them to a
  // clean WAL-less server: the ground truth for what recovery must
  // reproduce.
  BnServer reference(CrashConfig(""));
  size_t durable_records = 0;
  const auto seqs = storage::ListWalSegments(dir);
  ASSERT_FALSE(seqs.empty());
  for (size_t i = 0; i < seqs.size(); ++i) {
    auto segment_or =
        storage::ReadWalSegment(storage::WalSegmentPath(dir, seqs[i]));
    ASSERT_TRUE(segment_or.ok()) << segment_or.status().ToString();
    for (const auto& record : segment_or.value().records) {
      if (record.kind == storage::WalRecord::Kind::kIngest) {
        reference.Ingest(record.log);
      } else {
        reference.AdvanceTo(record.advance_to);
      }
      ++durable_records;
    }
  }
  ASSERT_GT(durable_records, 100u);

  BnServer recovered(CrashConfig(dir));
  ASSERT_TRUE(recovered.Recover(dir).ok());

  // Bit-identical to the ground-truth replay.
  EXPECT_EQ(recovered.FirstDifference(reference), "");

  // The recovered server keeps working and keeps logging.
  const SimTime next_hour = ((recovered.now() / kHour) + 1) * kHour;
  recovered.Ingest(
      BehaviorLog{1, BehaviorType::kIpv4, 4242, recovered.now()});
  recovered.AdvanceTo(next_hour);
  EXPECT_GT(recovered.jobs_run(), reference.jobs_run());
}

}  // namespace
}  // namespace turbo::server
