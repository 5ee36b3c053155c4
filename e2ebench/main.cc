// Turbo end-to-end benchmark. One process runs one workload:
//
//   turbo_e2e --workload <stream_replay|audit_burst|socket_cluster>
//             --seed <n> --seconds <s> --trace <0|1>
//
// It prints the run's make-up (nproc, ISA, build type, seed, thread
// counts), per-kind operation counts and the metrics, writes a run record
// (and, traced, the spans) under .bench_run/, and ends stdout with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "la/cpu_features.h"
#include "util/string_util.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE ""
#endif

namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"ingest_events_per_s", "1/s"},
    {"publish_p50_ms", "ms"}, {"publish_p99_ms", "ms"},
    {"audit_rps", "1/s"},     {"audit_p50_ms", "ms"},
    {"audit_p99_ms", "ms"},   {"audit_auc", "auc"},
    {"recover_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.prepare_s", "s"},
    {"core.train_s", "s"},
    {"storage.ingest_us_per_event", "us"},
    {"storage.wal_bytes_per_event", "B"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.checkpoint_bytes", "B"},
    {"storage.checkpoints_full", "count"},
    {"storage.checkpoints_delta", "count"},
    {"storage.replayed_records", "count"},
    {"bn.window_job_ms_per_hour", "ms"},
    {"bn.publish_build_ms_per_hour", "ms"},
    {"bn.window_jobs", "count"},
    {"bn.edge_updates", "count"},
    {"bn.publish_incremental", "count"},
    {"bn.publish_full_rebuilds", "count"},
    {"bn.sample_us", "us"},
    {"bn.subgraph_nodes", "count"},
    {"bn.subgraph_edges", "count"},
    {"bn.snapshot_bytes", "B"},
    {"features.get_us_per_node", "us"},
    {"features.cache_hit_ratio", "ratio"},
    {"features.rows_scanned_per_audit", "count"},
    {"features.modeled_ms_per_audit", "ms"},
    {"gnn.batch_build_us", "us"},
    {"gnn.forward_us", "us"},
    {"server.self_us", "us"},
    {"server.forwarded_per_event", "ratio"},
    {"net.ingest_rpc_us", "us"},
    {"net.advance_rpc_ms", "ms"},
    {"net.predict_rpc_us", "us"},
    {"net.rpcs_per_event", "ratio"},
    {"net.bytes_per_event", "B"},
    {"net.retries", "count"},
};

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Same rule as the program's bench gate (benchx::RequireReleaseBuild):
// numbers from an unoptimized or non-Release build are refused.
bool ReleaseBuild() {
  const std::string type = E2E_BUILD_TYPE;
  return kOptimized && (type == "Release" || type == "RelWithDebInfo");
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.10g", v);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: turbo_e2e --workload <stream_replay|audit_burst|"
                 "socket_cluster> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (!ReleaseBuild()) {
    std::fprintf(stderr,
                 "refusing to measure: built as \"%s\" (optimization %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 E2E_BUILD_TYPE, kOptimized ? "on" : "off");
    return 3;
  }
  std::filesystem::create_directories(opt.out_dir);

  RunResult result;
  result.Info("workload", opt.workload);
  result.Info("seed", std::to_string(opt.seed));
  result.Info("seconds", opt.seconds);
  result.Info("trace", opt.trace ? "1" : "0");
  result.Info("nproc", std::to_string(Nproc()));
  result.Info("isa", la::IsaName(la::BestIsa()));
  result.Info("build_type", E2E_BUILD_TYPE);
  // The references are checked on hand-worked inputs every run.
  const std::string self = SelfCheckReferences();
  result.Check(self.empty(), "reference self-check: " + self);

  if (opt.workload == "stream_replay") {
    RunStreamReplay(opt, &result);
  } else if (opt.workload == "audit_burst") {
    RunAuditBurst(opt, &result);
  } else if (opt.workload == "socket_cluster") {
    RunSocketCluster(opt, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, c] : result.ops) {
    attempted += c.attempted;
    failed += c.failed;
  }
  const auto& defs = opt.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& d : defs) {
    if (result.metrics.count(d.name) == 0) {
      result.Check(false, std::string("metric not measured: ") + d.name);
    }
  }

  // Human-readable summary and the run record.
  for (const auto& [k, v] : result.info) std::printf("%s=%s\n", k.c_str(), v.c_str());
  for (const auto& [kind, c] : result.ops) {
    std::printf("ops.%s attempted=%llu failed=%llu\n", kind.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  for (const MetricDef& d : kEndToEnd) {
    if (result.metrics.count(d.name)) {
      std::printf("%-32s %14.6g %s\n", d.name, result.metrics[d.name], d.unit);
    }
  }
  for (const MetricDef& d : kPerLayer) {
    if (result.metrics.count(d.name)) {
      std::printf("%-32s %14.6g %s\n", d.name, result.metrics[d.name], d.unit);
    }
  }
  std::string metrics_json;
  for (const MetricDef& d : defs) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                              d.name, Num(result.metrics[d.name]).c_str(),
                              d.unit);
  }
  const std::string line = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json.c_str());
  {
    std::ofstream rec(StrFormat("%s/%s-seed%llu-trace%d.json",
                                opt.out_dir.c_str(), opt.workload.c_str(),
                                static_cast<unsigned long long>(opt.seed),
                                opt.trace ? 1 : 0));
    rec << "{\"info\": {";
    bool first = true;
    for (const auto& [k, v] : result.info) {
      rec << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
      first = false;
    }
    rec << "}, \"ops\": {";
    first = true;
    for (const auto& [kind, c] : result.ops) {
      rec << (first ? "" : ", ") << "\"" << kind << "\": {\"attempted\": "
          << c.attempted << ", \"failed\": " << c.failed << "}";
      first = false;
    }
    rec << "}, \"all_metrics\": {";
    first = true;
    for (const auto& [k, v] : result.metrics) {
      rec << (first ? "" : ", ") << "\"" << k << "\": " << Num(v);
      first = false;
    }
    rec << "}, \"result\": " << line << "}\n";
  }
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
