// Incremental-publish study (DESIGN.md "Incremental snapshots & delta
// checkpoints"): does snapshot publication and checkpoint persistence
// cost scale with per-epoch churn instead of graph size?
//
// One writer server runs with incremental snapshots + delta checkpoints
// (the production configuration, WAL on); an ablation server replays
// the identical traffic with both disabled, so every epoch yields a
// full-rebuild publish time and the published snapshots can be CHECKed
// bit-identical between the two paths. After a seed phase populates the
// whole graph and a full checkpoint is written, each subsequent hour
// confines its traffic to a cohort of co-occurrence communities
// covering a chosen fraction of the user base (the eBay observation the
// refactor exploits: per-window active users are a small correlated
// cohort, not a uniform resample of the whole graph), then publishes
// and checkpoints. Because the hierarchical windows (1..12h + 1d) fire
// at multiples of their length and re-touch multi-hour unions, only
// "clean" hours — where nothing but the base 1-hour window fires, so
// the publish sees exactly one cohort of churn — count as measurement
// points for a fraction; all hours are still driven, checkpointed, and
// reported in the JSON sweep.
//
// Headline acceptance numbers at the 5% churn row: incremental publish
// >= 5x faster than the full rebuild AND the delta checkpoint >= 5x
// smaller than the full checkpoint. The run ends by recovering from
// base + delta chain + WAL tail and CHECKing the result bit-identical
// to the uncrashed writer.
//
// Writes BENCH_incremental.json; the run fails (exit 1) when either
// acceptance number misses its bar.
//
//   ./bench_incremental [--users=N] [--seed_logs=K] [--seed_days=D]
//                       [--epochs=E] [--cohort=block|spread]
//                       [--dir=STATE_DIR] [--out=BENCH_incremental.json]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "server/bn_server.h"
#include "storage/wal.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace turbo::benchx {
namespace {

constexpr int kCommunity = 4;
constexpr ValueId kNoiseValues = 65536;
constexpr int kLogsPerActiveUser = 40;

BehaviorLog CommunityLog(Rng* rng, UserId uid, SimTime time) {
  const BehaviorType types[] = {BehaviorType::kIpv4, BehaviorType::kImei,
                                BehaviorType::kWifiMac};
  BehaviorLog log;
  log.uid = uid;
  log.type = types[rng->NextUint(3)];
  log.value = rng->NextBool(0.999)
                  ? kNoiseValues + uid / kCommunity
                  : rng->NextZipf(kNoiseValues, 0.5);
  log.time = time;
  return log;
}

/// Seed traffic: the bench_recovery community workload — every user
/// active, so the seed phase populates rows across the whole id space.
BehaviorLogList MakeSeedLogs(uint64_t seed, int users, size_t n,
                             SimTime span) {
  Rng rng(seed);
  BehaviorLogList logs;
  logs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    logs.push_back(CommunityLog(
        &rng, static_cast<UserId>(rng.NextUint(users)),
        static_cast<SimTime>(rng.NextUint(static_cast<uint64_t>(span)))));
  }
  std::sort(logs.begin(), logs.end(),
            [](const BehaviorLog& a, const BehaviorLog& b) {
              return a.time < b.time;
            });
  return logs;
}

/// One hour of cohort traffic in [from, to): the active cohort is
/// `fraction` of the communities — a contiguous block at a rotating
/// start ("block", correlated cohorts as in real diurnal traffic) or a
/// uniform random subset ("spread", the adversarial layout where churn
/// dirties the maximum number of row groups).
BehaviorLogList MakeChurnLogs(uint64_t seed, int users, double fraction,
                              bool block, SimTime from, SimTime to) {
  const int num_comms = users / kCommunity;
  const int active = std::max(
      1, static_cast<int>(static_cast<double>(num_comms) * fraction));
  Rng rng(seed);
  std::vector<int> comms;
  comms.reserve(active);
  if (block) {
    const int start = static_cast<int>(rng.NextUint(num_comms));
    for (int i = 0; i < active; ++i) comms.push_back((start + i) % num_comms);
  } else {
    std::unordered_set<int> seen;
    while (static_cast<int>(comms.size()) < active) {
      const int c = static_cast<int>(rng.NextUint(num_comms));
      if (seen.insert(c).second) comms.push_back(c);
    }
  }
  const size_t n = static_cast<size_t>(active) * kCommunity *
                   kLogsPerActiveUser;
  BehaviorLogList logs;
  logs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int c = comms[rng.NextUint(comms.size())];
    const UserId uid = static_cast<UserId>(
        c * kCommunity + static_cast<int>(rng.NextUint(kCommunity)));
    logs.push_back(CommunityLog(
        &rng, uid,
        from + static_cast<SimTime>(rng.NextUint(
                   static_cast<uint64_t>(to - from)))));
  }
  std::sort(logs.begin(), logs.end(),
            [](const BehaviorLog& a, const BehaviorLog& b) {
              return a.time < b.time;
            });
  return logs;
}

/// True when the only window job firing at hour boundary `h` is the
/// base 1-hour window, so the publish at `h` sees exactly the preceding
/// hour's cohort churn. The hierarchical windows (1..12h + 1d) fire at
/// multiples of their length and re-touch every node active inside
/// them; hours whose index has a divisor in [2, 12] therefore carry
/// multi-hour churn unions and are driven but not used as measurement
/// points. (Every multiple of 24 is also a multiple of 12.)
bool CleanHour(int64_t h) {
  for (int64_t w = 2; w <= 12; ++w) {
    if (h % w == 0) return false;
  }
  return true;
}

server::BnServerConfig MakeConfig(int users, const std::string& wal_dir,
                                  bool incremental) {
  server::BnServerConfig cfg;
  cfg.num_users = users;
  cfg.snapshot_refresh = kHour;
  cfg.wal_dir = wal_dir;
  cfg.incremental_snapshots = incremental;
  cfg.delta_checkpoints = incremental;
  return cfg;
}

/// Ingests `logs` into both servers and advances both to each hour
/// boundary in (from, to] — the live-server loop, in lockstep.
void DriveBoth(server::BnServer* a, server::BnServer* b,
               const BehaviorLogList& logs, SimTime from, SimTime to) {
  size_t i = 0;
  while (i < logs.size() && logs[i].time < from) ++i;
  for (SimTime h = from + kHour; h <= to; h += kHour) {
    while (i < logs.size() && logs[i].time < h) {
      a->Ingest(logs[i]);
      b->Ingest(logs[i]);
      ++i;
    }
    a->AdvanceTo(h);
    b->AdvanceTo(h);
  }
}

struct EpochRow {
  double fraction = 0.0;
  int64_t hour = 0;
  bool clean = false;
  uint64_t touched_rows = 0;
  bool incremental_path = false;
  double incremental_ms = 0.0;
  double full_ms = 0.0;
  uint64_t checkpoint_bytes = 0;
  uint64_t full_checkpoint_bytes = 0;
  bool delta = false;
};

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int users = flags.GetInt("users", 20000);
  const size_t seed_logs =
      static_cast<size_t>(flags.GetInt("seed_logs", 2000000));
  const int seed_days = flags.GetInt("seed_days", 2);
  const int epochs = flags.GetInt("epochs", 3);
  const bool block = flags.GetString("cohort", "block") != "spread";
  const std::string out =
      flags.GetString("out", "BENCH_incremental.json");
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "bench_incremental_wal")
              .string();
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<double> fractions = {0.01, 0.05, 0.10, 0.25};
  constexpr double kHeadlineFraction = 0.05;

  std::printf("== incremental publish + delta checkpoints vs full ==\n");
  std::printf(
      "users=%d, seed=%zu logs over %dd, %d epochs/fraction, %s cohorts, "
      "%d hardware threads\n\n",
      users, seed_logs, seed_days, epochs, block ? "block" : "spread", hw);

  // Seed phase: identical traffic through the writer (incremental +
  // delta checkpoints + WAL) and the full-rebuild ablation server.
  std::filesystem::remove_all(dir);
  obs::MetricsRegistry writer_registry, ablation_registry;
  server::BnServerConfig writer_cfg =
      MakeConfig(users, dir, /*incremental=*/true);
  writer_cfg.metrics = &writer_registry;
  server::BnServerConfig ablation_cfg =
      MakeConfig(users, "", /*incremental=*/false);
  ablation_cfg.metrics = &ablation_registry;
  server::BnServer writer(writer_cfg);
  server::BnServer ablation(ablation_cfg);
  const SimTime seed_span = seed_days * kDay;
  DriveBoth(&writer, &ablation,
            MakeSeedLogs(0x1ac5ULL, users, seed_logs, seed_span), 0,
            seed_span);
  const std::string seed_diff = writer.FirstDifference(ablation);
  TURBO_CHECK_MSG(seed_diff.empty(),
                  "incremental publish diverged: " << seed_diff);

  // The full base checkpoint every delta is measured against.
  Stopwatch full_sw;
  TURBO_CHECK(writer.Checkpoint(dir).ok());
  const double full_checkpoint_s = full_sw.ElapsedSeconds();
  const uint64_t full_bytes = static_cast<uint64_t>(
      std::filesystem::file_size(dir + "/checkpoint.bin"));

  const obs::Histogram* inc_ms =
      writer_registry.GetHistogram("bn_snapshot_incremental_ms");
  const obs::Histogram* inc_build_ms =
      writer_registry.GetHistogram("bn_snapshot_build_ms");
  const obs::Gauge* touched_g =
      writer_registry.GetGauge("bn_snapshot_touched_nodes");
  const obs::Histogram* full_ms =
      ablation_registry.GetHistogram("bn_snapshot_build_ms");
  const obs::Counter* incrementals =
      writer_registry.GetCounter("bn_snapshot_incremental_total");

  // Measured epochs: every hour drives one hour of cohort traffic,
  // publishes on the boundary, and checkpoints; each fraction runs
  // until `epochs` of its hours were clean measurement points. The
  // writer's publish cost per hour is the sum-delta of its two publish
  // histograms, so a fallback full rebuild (expected whenever a large
  // window re-touches a multi-hour union) is charged honestly to the
  // incremental column.
  std::vector<EpochRow> rows;
  SimTime now = seed_span;
  uint64_t seed = 0xc0ffeeULL;
  for (double fraction : fractions) {
    int driven = 0;
    for (int clean_seen = 0; clean_seen < epochs;) {
      // Chain-cap and size-heuristic fulls are normal (every
      // max_delta_chain-th checkpoint is a full); a fraction only needs
      // `epochs` hours that published incrementally AND wrote a delta.
      TURBO_CHECK_MSG(++driven <= 200,
                      "no measurable hours at fraction " << fraction);
      const double inc_before = inc_ms->Sum() + inc_build_ms->Sum();
      const double full_before = full_ms->Sum();
      const uint64_t incrementals_before = incrementals->value();
      const auto deltas_before = storage::ListCheckpointDeltas(dir);
      DriveBoth(&writer, &ablation,
                MakeChurnLogs(++seed, users, fraction, block, now,
                              now + kHour),
                now, now + kHour);
      now += kHour;
      const std::string diff = writer.FirstDifference(ablation);
      TURBO_CHECK_MSG(diff.empty(), "incremental publish diverged: " << diff);

      EpochRow row;
      row.fraction = fraction;
      row.hour = now / kHour;
      row.clean = CleanHour(row.hour);
      row.incremental_path = incrementals->value() > incrementals_before;
      row.touched_rows = static_cast<uint64_t>(touched_g->value());
      row.incremental_ms = inc_ms->Sum() + inc_build_ms->Sum() - inc_before;
      row.full_ms = full_ms->Sum() - full_before;
      TURBO_CHECK(writer.Checkpoint(dir).ok());
      const auto deltas_after = storage::ListCheckpointDeltas(dir);
      row.delta = deltas_after.size() > deltas_before.size();
      row.checkpoint_bytes = static_cast<uint64_t>(
          row.delta ? std::filesystem::file_size(storage::CheckpointDeltaPath(
                          dir, deltas_after.back()))
                    : std::filesystem::file_size(dir + "/checkpoint.bin"));
      row.full_checkpoint_bytes = static_cast<uint64_t>(
          std::filesystem::file_size(dir + "/checkpoint.bin"));
      rows.push_back(row);
      if (row.clean && row.delta && row.incremental_path) ++clean_seen;
    }
  }

  // One more cohort hour left only in the WAL, then recover through
  // base + delta chain + tail and demand the writer's exact bits.
  DriveBoth(&writer, &ablation,
            MakeChurnLogs(++seed, users, kHeadlineFraction, block, now,
                          now + kHour),
            now, now + kHour);
  now += kHour;
  server::BnServer recovered(MakeConfig(users, dir, /*incremental=*/true));
  const Status rec = recovered.Recover(dir);
  TURBO_CHECK_MSG(rec.ok(), "recovery failed: " << rec.ToString());
  const std::string recovered_diff = writer.FirstDifference(recovered);
  TURBO_CHECK_MSG(recovered_diff.empty(),
                  "recovered state diverged: " << recovered_diff);

  // The printed table shows the clean measurement points; the JSON
  // carries every driven hour, including the multi-window union hours.
  TablePrinter table({"churn", "hour", "path", "touched rows",
                      "incremental ms", "full ms", "speedup", "checkpoint",
                      "bytes"});
  double head_inc_ms = 1e30, head_full_ms = 1e30;
  double checkpoint_shrink = 1e30;
  for (const EpochRow& row : rows) {
    if (!row.clean) continue;
    table.AddRow({StrFormat("%.0f%%", row.fraction * 100),
                  StrFormat("%lld", static_cast<long long>(row.hour)),
                  row.incremental_path ? "patch" : "rebuild",
                  StrFormat("%llu",
                            static_cast<unsigned long long>(row.touched_rows)),
                  StrFormat("%.2f", row.incremental_ms),
                  StrFormat("%.2f", row.full_ms),
                  StrFormat("%.1fx", row.full_ms /
                                         std::max(row.incremental_ms, 1e-9)),
                  row.delta ? "delta" : "full",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        row.checkpoint_bytes))});
    if (row.fraction == kHeadlineFraction && row.delta &&
        row.incremental_path) {
      head_inc_ms = std::min(head_inc_ms, row.incremental_ms);
      head_full_ms = std::min(head_full_ms, row.full_ms);
      checkpoint_shrink = std::min(
          checkpoint_shrink,
          static_cast<double>(row.full_checkpoint_bytes) /
              static_cast<double>(std::max<uint64_t>(row.checkpoint_bytes,
                                                     1)));
    }
  }
  table.Print();

  const double publish_speedup =
      head_full_ms / std::max(head_inc_ms, 1e-9);
  std::printf("\nall published snapshots bit-identical to full rebuilds; "
              "recovered state bit-identical to the writer\n");
  std::printf("full checkpoint: %.1f MB in %.3fs\n", full_bytes / 1e6,
              full_checkpoint_s);
  std::printf("at %.0f%% churn: publish %.1fx faster, delta checkpoint "
              "%.1fx smaller (targets >= 5x)\n",
              kHeadlineFraction * 100, publish_speedup, checkpoint_shrink);

  std::ofstream f(out);
  f << "{\n"
    << "  \"bench\": \"incremental\",\n"
    << "  \"users\": " << users << ",\n"
    << "  \"seed_logs\": " << seed_logs << ",\n"
    << "  \"seed_days\": " << seed_days << ",\n"
    << "  \"epochs_per_fraction\": " << epochs << ",\n"
    << "  \"cohort\": \"" << (block ? "block" : "spread") << "\",\n"
    << "  \"hardware_threads\": " << hw << ",\n"
    << "  \"full_checkpoint_bytes\": " << full_bytes << ",\n"
    << "  \"full_checkpoint_s\": " << full_checkpoint_s << ",\n"
    << "  \"sweep\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const EpochRow& row = rows[i];
    f << "    {\"churn_fraction\": " << row.fraction << ", \"hour\": "
      << row.hour << ", \"clean\": " << (row.clean ? "true" : "false")
      << ", \"path\": \"" << (row.incremental_path ? "patch" : "rebuild")
      << "\", \"touched_rows\": " << row.touched_rows
      << ", \"incremental_ms\": " << row.incremental_ms
      << ", \"full_ms\": " << row.full_ms << ", \"checkpoint_kind\": \""
      << (row.delta ? "delta" : "full")
      << "\", \"checkpoint_bytes\": " << row.checkpoint_bytes
      << ", \"full_checkpoint_bytes\": " << row.full_checkpoint_bytes
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ],\n"
    << "  \"publish_speedup\": " << publish_speedup << ",\n"
    << "  \"checkpoint_shrink\": " << checkpoint_shrink << "\n"
    << "}\n";
  std::printf("wrote %s\n", out.c_str());
  std::filesystem::remove_all(dir);
  return publish_speedup >= 5.0 && checkpoint_shrink >= 5.0 ? 0 : 1;
}

}  // namespace
}  // namespace turbo::benchx

int main(int argc, char** argv) { return turbo::benchx::Main(argc, argv); }
