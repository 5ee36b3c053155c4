// Cluster study (DESIGN.md §14): what does sharding the BN server buy,
// and what does failover cost once a warm standby is replaying?
//
//   ingest scale-out   the same hourly traffic driven through a
//                      BnCluster at 1/2/4 shards (advance_threads =
//                      shards). Dual delivery means an N-shard cluster
//                      does strictly more raw work than one server —
//                      the win is that the work is parallel.
//   failover           primary with a WAL, standby continuously
//                      catching up over storage::ShipWalDir. At the
//                      "crash": final ship, then
//                        cold   fresh server replays the whole WAL dir
//                        warm   standby applies the last tail + Promote
//                      Both are CHECKed bit-identical to the primary
//                      before any number is reported.
//
// catchup_speedup (cold / warm) is a machine-independent ratio; the run
// fails (exit 1) unless it is above 1.
//
// Writes BENCH_cluster.json.
//
//   ./bench_cluster [--users=N] [--logs=K] [--days=D]
//                   [--ship_every_hours=H] [--dir=STATE_DIR]
//                   [--out=BENCH_cluster.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "server/bn_cluster.h"
#include "server/warm_standby.h"
#include "storage/wal.h"
#include "storage/wal_ship.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace turbo::benchx {
namespace {

/// Community-structured co-occurrence traffic (the bench_recovery
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

server::BnServerConfig ShardConfig(int users) {
  server::BnServerConfig cfg;
  cfg.num_users = users;
  cfg.snapshot_refresh = kHour;
  return cfg;
}

/// Hour-by-hour cluster driver: ingest each hour's logs, then cross the
/// epoch barrier — the live-cluster loop.
double DriveCluster(server::BnCluster* cluster,
                    const BehaviorLogList& logs, SimTime span) {
  Stopwatch sw;
  size_t i = 0;
  for (SimTime h = kHour; h <= span; h += kHour) {
    while (i < logs.size() && logs[i].time < h) {
      cluster->Ingest(logs[i]);
      ++i;
    }
    cluster->AdvanceTo(h);
  }
  return sw.ElapsedSeconds();
}

struct IngestCell {
  int shards = 1;
  double events_per_second = 0.0;
};

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int users = flags.GetInt("users", 8000);
  const size_t num_logs =
      static_cast<size_t>(flags.GetInt("logs", 800000));
  const int days = flags.GetInt("days", 2);
  const int ship_every = flags.GetInt("ship_every_hours", 4);
  const std::string out = flags.GetString("out", "BENCH_cluster.json");
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "bench_cluster_wal")
              .string();
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  const SimTime span = days * kDay;
  std::printf("== BN cluster: ingest scale-out + warm-standby failover ==\n");
  std::printf("users=%d, logs=%zu over %dd, %d hardware threads\n\n", users,
              num_logs, days, hw);

  const BehaviorLogList logs = MakeLogs(0xc105ULL, users, num_logs, span);

  // --- Ingest scale-out: the same stream at 1, 2, and 4 shards. ------
  std::vector<IngestCell> cells;
  TablePrinter ingest_table({"shards", "seconds", "events/s", "notes"});
  for (int shards : {1, 2, 4}) {
    server::BnClusterConfig ccfg;
    ccfg.shard = ShardConfig(users);
    ccfg.num_shards = shards;
    ccfg.advance_threads = shards;
    server::BnCluster cluster(ccfg);
    const double secs = DriveCluster(&cluster, logs, span);
    const double eps = num_logs / std::max(secs, 1e-9);
    cells.push_back({shards, eps});
    uint64_t total_edges = 0;
    for (int s = 0; s < shards; ++s) {
      total_edges += cluster.shard(s).edges().TotalEdges();
    }
    ingest_table.AddRow(
        {StrFormat("%d", shards), StrFormat("%.3f", secs),
         StrFormat("%.0f", eps),
         StrFormat("%llu edge entries",
                   static_cast<unsigned long long>(total_edges))});
  }
  ingest_table.Print();

  // --- Failover: warm standby vs cold WAL rebuild. -------------------
  // No checkpoint on purpose: the cold path must replay the entire WAL,
  // which is exactly the history the standby has already absorbed.
  std::filesystem::remove_all(dir);
  const std::string primary_dir = dir + "/primary";
  const std::string replica_dir = dir + "/replica";
  std::filesystem::create_directories(primary_dir);
  std::filesystem::create_directories(replica_dir);

  server::BnServerConfig pcfg = ShardConfig(users);
  pcfg.wal_dir = primary_dir;
  server::BnServer primary(pcfg);

  server::WarmStandbyConfig scfg;
  scfg.server = ShardConfig(users);
  scfg.replica_dir = replica_dir;
  server::WarmStandby standby(scfg);

  // Live loop with continuous replication: every `ship_every` hours the
  // shipper mirrors the primary's WAL and the standby replays it.
  {
    size_t i = 0;
    for (SimTime h = kHour; h <= span; h += kHour) {
      while (i < logs.size() && logs[i].time < h) {
        primary.Ingest(logs[i]);
        ++i;
      }
      primary.AdvanceTo(h);
      if ((h / kHour) % ship_every == 0) {
        TURBO_CHECK(
            storage::ShipWalDir(primary_dir, replica_dir).ok());
        const Status s = standby.CatchUp();
        TURBO_CHECK_MSG(s.ok(), "catch-up failed: " << s.ToString());
      }
    }
  }
  TURBO_CHECK(standby.bootstrapped());

  // "Crash": the primary stops here. Final ship carries the last tail.
  TURBO_CHECK(storage::ShipWalDir(primary_dir, replica_dir).ok());

  // Cold path: a fresh server replays the whole durable history.
  server::BnServerConfig cold_cfg = ShardConfig(users);
  cold_cfg.wal_dir = primary_dir;
  auto cold = std::make_unique<server::BnServer>(cold_cfg);
  Stopwatch cold_sw;
  const Status cold_status = cold->Recover(primary_dir);
  const double cold_s = cold_sw.ElapsedSeconds();
  TURBO_CHECK_MSG(cold_status.ok(),
                  "cold rebuild failed: " << cold_status.ToString());
  const std::string cold_diff = primary.FirstDifference(*cold);
  TURBO_CHECK_MSG(cold_diff.empty(), "cold rebuild diverged: " << cold_diff);
  cold.reset();  // release the WAL dir before reporting

  // Warm path: the standby applies only the final tail, then promotes.
  Stopwatch warm_sw;
  const Status tail = standby.CatchUp();
  TURBO_CHECK_MSG(tail.ok(), "final catch-up failed: " << tail.ToString());
  auto promoted_or = standby.Promote();
  const double warm_s = warm_sw.ElapsedSeconds();
  TURBO_CHECK_MSG(promoted_or.ok(),
                  "promote failed: " << promoted_or.status().ToString());
  const std::string promoted_diff =
      primary.FirstDifference(*promoted_or.value());
  TURBO_CHECK_MSG(promoted_diff.empty(),
                  "promoted standby diverged: " << promoted_diff);

  const double speedup = cold_s / std::max(warm_s, 1e-9);
  TablePrinter failover_table({"path", "seconds", "notes"});
  failover_table.AddRow(
      {"cold WAL rebuild", StrFormat("%.3f", cold_s),
       StrFormat("full replay of %llu records",
                 static_cast<unsigned long long>(
                     standby.records_applied_total()))});
  failover_table.AddRow({"warm catch-up + promote",
                         StrFormat("%.4f", warm_s),
                         StrFormat("tail shipped every %dh", ship_every)});
  failover_table.Print();
  std::printf("\npromoted standby bit-identical to the primary\n");
  std::printf("failover speedup vs cold rebuild: %.1fx\n", speedup);

  std::ofstream f(out);
  f << "{\n"
    << "  \"bench\": \"cluster\",\n"
    << "  \"users\": " << users << ",\n"
    << "  \"logs\": " << num_logs << ",\n"
    << "  \"days\": " << days << ",\n"
    << "  \"ship_every_hours\": " << ship_every << ",\n"
    << "  \"hardware_threads\": " << hw << ",\n"
    << "  \"runs\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    f << "    {\"shards\": " << cells[i].shards
      << ", \"threads\": " << cells[i].shards
      << ", \"events_per_second\": " << cells[i].events_per_second << "}"
      << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  f << "  ],\n"
    << "  \"cold_rebuild_s\": " << cold_s << ",\n"
    << "  \"warm_failover_s\": " << warm_s << ",\n"
    << "  \"catchup_speedup\": " << speedup << "\n"
    << "}\n";
  std::printf("wrote %s\n", out.c_str());
  std::filesystem::remove_all(dir);
  return speedup > 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace turbo::benchx

int main(int argc, char** argv) { return turbo::benchx::Main(argc, argv); }
