// Wire-transport microbench (DESIGN.md §15): what does the framed RPC
// layer cost on loopback, and how fast does the streaming WAL ship
// move bytes end to end?
//
//   rpc small     round-trips/s of a 64-byte echo call — per-call
//                 overhead of framing + CRC + syscalls.
//   rpc large     MB/s of 256 KiB echo payloads — the streaming floor
//                 of the codec itself.
//   wal ship      MB/s of ShipWalOverRpc pushing a fresh multi-segment
//                 WAL directory into a WalSinkService; the replica is
//                 CHECKed byte-identical before the number is reported.
//   reship no-op  cursor rounds/s over an already-converged replica —
//                 the steady-state cost of the Stat-based ack protocol.
//
// Writes BENCH_net.json.
//
//   ./bench_net [--small_calls=N] [--large_calls=N] [--ship_mb=M]
//               [--dir=STATE_DIR] [--out=BENCH_net.json]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "net/rpc.h"
#include "net/wal_stream.h"
#include "storage/wal.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/time_util.h"

namespace turbo::benchx {
namespace {

namespace fs = std::filesystem;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Fills `dir` with closed WAL segments totalling ~`target_bytes`.
size_t FillWalDir(const std::string& dir, size_t target_bytes) {
  size_t total = 0;
  storage::WalOptions options;
  options.fsync = storage::WalOptions::Fsync::kNever;
  options.group_commit_records = 256;
  for (uint64_t seq = 1; total < target_bytes; ++seq) {
    storage::WalWriter w;
    TURBO_CHECK(w.Open(dir, seq, options).ok());
    for (int i = 0; i < 20000; ++i) {
      const BehaviorLog log{static_cast<UserId>(i % 4096),
                            BehaviorType::kIpv4,
                            static_cast<ValueId>(i % 9973),
                            static_cast<SimTime>(i) * kMinute};
      TURBO_CHECK(w.Append(storage::WalRecord::Ingest(log)).ok());
    }
    TURBO_CHECK(w.Close().ok());
    total += static_cast<size_t>(
        fs::file_size(storage::WalSegmentPath(dir, seq)));
  }
  return total;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int small_calls = flags.GetInt("small_calls", 20000);
  const int large_calls = flags.GetInt("large_calls", 200);
  const size_t ship_mb =
      static_cast<size_t>(flags.GetInt("ship_mb", 32));
  const std::string out = flags.GetString("out", "BENCH_net.json");
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    dir = (fs::temp_directory_path() / "bench_net_state").string();
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("== wire transport: loopback RPC + streaming WAL ship ==\n");
  std::printf("%d small calls, %d large calls, %zu MiB ship, "
              "%d hardware threads\n\n",
              small_calls, large_calls, ship_mb, hw);

  // --- RPC round-trips over a loopback echo server. ------------------
  net::RpcServerConfig scfg;
  scfg.endpoint.port = 0;
  auto server_or = net::RpcServer::Start(
      scfg, [](uint8_t, std::string_view body) -> Result<std::string> {
        return std::string(body);
      });
  TURBO_CHECK_MSG(server_or.ok(), server_or.status().ToString());
  auto server = server_or.take();
  net::RpcClientConfig ccfg;
  ccfg.endpoint = server->endpoint();
  net::RpcClient client(ccfg);

  const std::string small(64, 'a');
  TURBO_CHECK(client.Call(1, small).ok());  // connect outside the clock
  Stopwatch small_sw;
  for (int i = 0; i < small_calls; ++i) {
    auto r = client.Call(1, small);
    TURBO_CHECK(r.ok() && r.value().size() == small.size());
  }
  const double small_s = small_sw.ElapsedSeconds();
  const double small_rps = small_calls / std::max(small_s, 1e-9);

  const std::string large(256 * 1024, 'b');
  Stopwatch large_sw;
  for (int i = 0; i < large_calls; ++i) {
    auto r = client.Call(1, large);
    TURBO_CHECK(r.ok() && r.value().size() == large.size());
  }
  const double large_s = large_sw.ElapsedSeconds();
  // Payload crosses the loopback twice per echo (request + response).
  const double large_mbps = 2.0 * large_calls * large.size() /
                            (1024.0 * 1024.0) / std::max(large_s, 1e-9);

  // --- Streaming WAL ship into a WalSinkService. ---------------------
  fs::remove_all(dir);
  const std::string src = dir + "/primary";
  const std::string replica = dir + "/replica";
  fs::create_directories(src);
  const size_t wal_bytes = FillWalDir(src, ship_mb << 20);

  net::WalSinkServiceConfig wcfg;
  wcfg.endpoint.port = 0;
  wcfg.replica_dir = replica;
  auto sink_or = net::WalSinkService::Start(wcfg);
  TURBO_CHECK_MSG(sink_or.ok(), sink_or.status().ToString());
  auto sink = sink_or.take();
  net::RpcClientConfig scc;
  scc.endpoint = sink->endpoint();
  net::RpcClient ship_client(scc);

  Stopwatch ship_sw;
  auto stats_or = net::ShipWalOverRpc(src, &ship_client);
  const double ship_s = ship_sw.ElapsedSeconds();
  TURBO_CHECK_MSG(stats_or.ok(), stats_or.status().ToString());
  const double ship_mbps =
      wal_bytes / (1024.0 * 1024.0) / std::max(ship_s, 1e-9);
  // The number only counts if the replica is byte-identical.
  for (uint64_t seq : storage::ListWalSegments(src)) {
    TURBO_CHECK_MSG(ReadBytes(storage::WalSegmentPath(replica, seq)) ==
                        ReadBytes(storage::WalSegmentPath(src, seq)),
                    "replica diverged on segment " << seq);
  }

  // Steady state: the cursor protocol re-stats every file and moves
  // nothing. This is what a standby costs per ship period when idle.
  const int noop_rounds = 50;
  Stopwatch noop_sw;
  for (int i = 0; i < noop_rounds; ++i) {
    auto r = net::ShipWalOverRpc(src, &ship_client);
    TURBO_CHECK(r.ok() && r.value().segment_bytes_appended == 0);
  }
  const double noop_s = noop_sw.ElapsedSeconds();
  const double noop_rps = noop_rounds / std::max(noop_s, 1e-9);

  TablePrinter table({"cell", "value", "notes"});
  table.AddRow({"rpc 64B round-trips/s", StrFormat("%.0f", small_rps),
                StrFormat("%.1f us/call", 1e6 / small_rps)});
  table.AddRow({"rpc 256KiB echo MB/s", StrFormat("%.0f", large_mbps),
                StrFormat("%d calls", large_calls)});
  table.AddRow({"wal ship MB/s", StrFormat("%.0f", ship_mbps),
                StrFormat("%zu bytes, replica verified", wal_bytes)});
  table.AddRow({"re-ship no-op rounds/s", StrFormat("%.0f", noop_rps),
                "cursor stat-only"});
  table.Print();

  std::ofstream f(out);
  f << "{\n"
    << "  \"bench\": \"net\",\n"
    << "  \"hardware_threads\": " << hw << ",\n"
    << "  \"small_calls\": " << small_calls << ",\n"
    << "  \"large_calls\": " << large_calls << ",\n"
    << "  \"wal_bytes\": " << wal_bytes << ",\n"
    << "  \"rpc_small_roundtrips_per_s\": " << small_rps << ",\n"
    << "  \"rpc_large_mb_per_s\": " << large_mbps << ",\n"
    << "  \"wal_ship_mb_per_s\": " << ship_mbps << ",\n"
    << "  \"reship_noop_rounds_per_s\": " << noop_rps << "\n"
    << "}\n";
  std::printf("\nwrote %s\n", out.c_str());
  fs::remove_all(dir);
  return 0;
}

}  // namespace
}  // namespace turbo::benchx

int main(int argc, char** argv) { return turbo::benchx::Main(argc, argv); }
