// Durability study (DESIGN.md "Durability & recovery"): what does a BN
// server restart cost with checkpoints + WAL versus rebuilding from the
// raw log stream?
//
//   cold rebuild    fresh server re-ingests every log and re-runs the
//                   full window-job schedule — the only option before
//                   durable state existed.
//   recovery        load checkpoint.bin (exact CSR/weight bits, no
//                   jobs) + replay the ~1h WAL tail through the engine.
//
// The recovered server is CHECKed bit-identical to the writer before
// any number is reported. The headline acceptance number: recovery must
// be >= 10x faster than the cold rebuild — the checkpoint load is
// O(state), not O(history), and the WAL tail is one window of traffic.
//
// Writes BENCH_recovery.json; the run fails (exit 1) below the 10x bar.
//
//   ./bench_recovery [--users=N] [--logs=K] [--days=D] [--rounds=R]
//                    [--dir=STATE_DIR] [--out=BENCH_recovery.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "server/bn_server.h"
#include "storage/wal.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace turbo::benchx {
namespace {

/// Community-structured co-occurrence traffic (the bench_window_jobs
/// shape), sorted by time so the driver can interleave hourly advances.
BehaviorLogList MakeLogs(uint64_t seed, int users, size_t n,
                         SimTime span) {
  const BehaviorType types[] = {BehaviorType::kIpv4, BehaviorType::kImei,
                                BehaviorType::kWifiMac};
  constexpr int kCommunity = 4;
  constexpr ValueId kNoiseValues = 65536;
  Rng rng(seed);
  BehaviorLogList logs;
  logs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BehaviorLog log;
    log.uid = static_cast<UserId>(rng.NextUint(users));
    log.type = types[rng.NextUint(3)];
    log.value = rng.NextBool(0.999)
                    ? kNoiseValues + log.uid / kCommunity
                    : rng.NextZipf(kNoiseValues, 0.5);
    log.time =
        static_cast<SimTime>(rng.NextUint(static_cast<uint64_t>(span)));
    logs.push_back(log);
  }
  std::sort(logs.begin(), logs.end(),
            [](const BehaviorLog& a, const BehaviorLog& b) {
              return a.time < b.time;
            });
  return logs;
}

server::BnServerConfig MakeConfig(int users, const std::string& wal_dir) {
  server::BnServerConfig cfg;
  cfg.num_users = users;
  cfg.snapshot_refresh = kHour;
  cfg.wal_dir = wal_dir;
  return cfg;
}

/// Drives `server` through [from, to): ingest each hour's logs, then
/// advance to the hour boundary — the live-server loop.
void Drive(server::BnServer* server, const BehaviorLogList& logs,
           SimTime from, SimTime to) {
  size_t i = 0;
  while (i < logs.size() && logs[i].time < from) ++i;
  for (SimTime h = from + kHour; h <= to; h += kHour) {
    while (i < logs.size() && logs[i].time < h) {
      server->Ingest(logs[i]);
      ++i;
    }
    server->AdvanceTo(h);
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int users = flags.GetInt("users", 20000);
  const size_t num_logs =
      static_cast<size_t>(flags.GetInt("logs", 4000000));
  const int days = flags.GetInt("days", 4);
  const int rounds = flags.GetInt("rounds", 2);
  const std::string out = flags.GetString("out", "BENCH_recovery.json");
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "bench_recovery_wal")
              .string();
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  const SimTime span = days * kDay;
  const SimTime checkpoint_at = span - kHour;  // WAL tail = final hour

  std::printf("== durable state: checkpoint + WAL tail vs cold rebuild ==\n");
  std::printf("users=%d, logs=%zu over %dd, tail=1h, %d hardware threads\n\n",
              users, num_logs, days, hw);

  const BehaviorLogList logs = MakeLogs(0x3ec0ULL, users, num_logs, span);

  // The writer: live traffic with the WAL on, checkpoint one hour
  // before the end, then the tail hour that only the WAL captures.
  std::filesystem::remove_all(dir);
  server::BnServer writer(MakeConfig(users, dir));
  Drive(&writer, logs, 0, checkpoint_at);
  Stopwatch ckpt_sw;
  const Status ckpt = writer.Checkpoint(dir);
  const double checkpoint_write_s = ckpt_sw.ElapsedSeconds();
  TURBO_CHECK_MSG(ckpt.ok(), "checkpoint failed: " << ckpt.ToString());
  Drive(&writer, logs, checkpoint_at, span);
  const size_t checkpoint_bytes =
      std::filesystem::file_size(dir + "/checkpoint.bin");

  // Cold rebuild: what a restart costs without durable state.
  double cold_s = 1e30;
  std::unique_ptr<server::BnServer> cold;
  for (int r = 0; r < rounds; ++r) {
    cold = std::make_unique<server::BnServer>(MakeConfig(users, ""));
    Stopwatch sw;
    Drive(cold.get(), logs, 0, span);
    cold_s = std::min(cold_s, sw.ElapsedSeconds());
  }
  const std::string cold_diff = writer.FirstDifference(*cold);
  TURBO_CHECK_MSG(cold_diff.empty(), "cold rebuild diverged: " << cold_diff);

  // Recovery: checkpoint load + WAL-tail replay, bit-identical again.
  double recovery_s = 1e30;
  uint64_t replayed = 0;
  // One registry per round (fresh counters); declared before the server
  // so it outlives the resolved metric handles the server keeps.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::unique_ptr<server::BnServer> recovered;
  for (int r = 0; r < rounds; ++r) {
    registries.push_back(std::make_unique<obs::MetricsRegistry>());
    server::BnServerConfig cfg = MakeConfig(users, dir);
    cfg.metrics = registries.back().get();
    recovered = std::make_unique<server::BnServer>(cfg);
    Stopwatch sw;
    const Status s = recovered->Recover(dir);
    recovery_s = std::min(recovery_s, sw.ElapsedSeconds());
    TURBO_CHECK_MSG(s.ok(), "recovery failed: " << s.ToString());
    replayed = registries.back()
                   ->GetCounter("bn_wal_replayed_records_total")
                   ->value();
  }
  const std::string recovered_diff = writer.FirstDifference(*recovered);
  TURBO_CHECK_MSG(recovered_diff.empty(),
                  "recovered state diverged: " << recovered_diff);

  const double speedup = cold_s / std::max(recovery_s, 1e-9);
  const double replay_rate = replayed / std::max(recovery_s, 1e-9);

  TablePrinter table({"path", "seconds", "notes"});
  table.AddRow({"cold rebuild", StrFormat("%.3f", cold_s),
                StrFormat("%zu logs, full job schedule", num_logs)});
  table.AddRow({"checkpoint write", StrFormat("%.3f", checkpoint_write_s),
                StrFormat("%.1f MB", checkpoint_bytes / 1e6)});
  table.AddRow({"recovery", StrFormat("%.3f", recovery_s),
                StrFormat("load + %llu-record WAL tail",
                          static_cast<unsigned long long>(replayed))});
  table.Print();
  std::printf("\nrecovered state bit-identical to the uncrashed writer\n");
  std::printf("recovery speedup vs cold rebuild: %.1fx (target >= 10x)\n",
              speedup);

  std::ofstream f(out);
  f << "{\n"
    << "  \"bench\": \"recovery\",\n"
    << "  \"users\": " << users << ",\n"
    << "  \"logs\": " << num_logs << ",\n"
    << "  \"days\": " << days << ",\n"
    << "  \"hardware_threads\": " << hw << ",\n"
    << "  \"checkpoint_bytes\": " << checkpoint_bytes << ",\n"
    << "  \"checkpoint_write_s\": " << checkpoint_write_s << ",\n"
    << "  \"wal_tail_records\": " << replayed << ",\n"
    << "  \"cold_rebuild_s\": " << cold_s << ",\n"
    << "  \"recovery_s\": " << recovery_s << ",\n"
    << "  \"wal_replay_records_per_s\": " << replay_rate << ",\n"
    << "  \"recovery_speedup\": " << speedup << "\n"
    << "}\n";
  std::printf("wrote %s\n", out.c_str());
  std::filesystem::remove_all(dir);
  return speedup >= 10.0 ? 0 : 1;
}

}  // namespace
}  // namespace turbo::benchx

int main(int argc, char** argv) { return turbo::benchx::Main(argc, argv); }
