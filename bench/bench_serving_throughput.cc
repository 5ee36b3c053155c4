// Serving-throughput study for the batched tape-free inference path:
// requests/s and per-call p99 as a function of client-thread count and
// batch size, with an autograd-forward ablation and a cache-enabled run.
//
// Every server run gets a fresh PredictionServer with a private registry
// (so p99 comes from that run's predict_total_ms histogram) but shares
// one trained HAG, one BnServer snapshot, and one warm FeatureStore — the
// production shape: a pinned snapshot serving many concurrent clients.
// The server runs only HAG's tape-free forward, so the autograd rows
// replay its request path in the bench instead (RunAutograd) and report
// only their total time.
//
// Writes BENCH_serving.json. The run fails (exit 1) unless the tape-free
// batched path at batch >= 8 clears 3x the single-request
// autograd-forward throughput and, on a host whose active kernel ISA is
// not scalar, the dispatched inference t1/b8 cell keeps at least 0.8x
// the throughput of the forced-scalar one. One pass of a t1/b8 cell
// lasts a few milliseconds, so one scheduler stall can move it; the SIMD
// floor compares the medians of kSimdPasses interleaved passes of the
// two cells.
//
//   ./bench_serving_throughput [--users=N] [--requests=K] [--epochs=E]
//                              [--out=BENCH_serving.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "gnn/trainer.h"
#include "la/cpu_features.h"
#include "obs/metrics.h"
#include "server/prediction_server.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace turbo::benchx {
namespace {

/// Interleaved passes of each SIMD-floor cell (odd: the median is one
/// pass).
constexpr int kSimdPasses = 7;

struct ServingStack {
  std::unique_ptr<core::PreparedData> data;
  std::unique_ptr<core::Hag> model;
  std::unique_ptr<server::BnServer> bn;
  std::unique_ptr<features::FeatureStore> features;
  std::vector<UserId> pool;  // request targets, cycled by every run
};

ServingStack BuildStack(int users, const BenchScale& scale) {
  ServingStack s;
  core::PipelineConfig pipeline;
  // Coarser windows than the fig8 latency bench: throughput is measured
  // against ONE pinned snapshot at the end of the stream, so the recent
  // cohort must still have live (un-decayed) edges at that point.
  pipeline.bn.windows = {kDay, 7 * kDay, 30 * kDay};
  s.data = core::PrepareData(
      datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(users)),
      pipeline);
  s.model = std::make_unique<core::Hag>(MakeHagConfig(scale, 42));
  core::TrainAndScoreGnn(s.model.get(), *s.data, bn::SamplerConfig{},
                         MakeTrainConfig(scale, 42));

  server::BnServerConfig bcfg;
  bcfg.bn = pipeline.bn;
  bcfg.num_users = users;
  s.bn = std::make_unique<server::BnServer>(bcfg);
  s.bn->IngestBatch(s.data->dataset.logs);
  // Pin one snapshot covering the whole stream: throughput is measured
  // against a stable published version, as in steady-state serving.
  SimTime horizon = 0;
  for (const auto& u : s.data->dataset.users) {
    horizon = std::max(horizon, u.application_time);
  }
  s.bn->AdvanceTo(horizon + kHour);

  s.features = std::make_unique<features::FeatureStore>(
      features::FeatureStoreConfig{}, &s.bn->logs());
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    const float* row = s.data->dataset.profile_features.row(u);
    s.features->PutProfile(
        u, std::vector<float>(
               row, row + s.data->dataset.profile_features.cols()));
  }
  // Warm the statistical-feature cache at the pinned as_of so every run
  // (autograd and inference alike) measures serving, not first-touch
  // feature computation.
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    s.features->GetFeatures(u, s.bn->now());
  }
  // Audit requests target the recently-active cohort (the production
  // shape: applications are scored at application time, so the target's
  // behavior edges are live in the current snapshot).
  for (UserId u : s.data->test_uids) {
    if (s.data->dataset.users[u].application_time + 14 * kDay >= horizon) {
      s.pool.push_back(u);
    }
  }
  if (s.pool.size() < 8) s.pool = s.data->test_uids;
  TURBO_CHECK_GT(s.pool.size(), 0u);
  return s;
}

struct RunResult {
  // "autograd" | "inference" | "inference[scalar]" | "inference+cache"
  std::string mode;
  /// False for the autograd rows, which time only the whole run: their
  /// call and stage columns are not measured.
  bool staged = true;
  int threads = 0;
  int batch = 0;
  size_t requests = 0;
  double seconds = 0.0;
  double requests_per_second = 0.0;
  double mean_call_ms = 0.0;  // per HandleBatch call, modeled cost incl.
  double p99_call_ms = 0.0;
  double sample_ms = 0.0;  // per-call stage means, same caveat
  double feature_ms = 0.0;
  double inference_ms = 0.0;
  double subgraph_nodes = 0.0;  // mean merged-subgraph size
  uint64_t cache_hits = 0;
  double speedup = 1.0;  // vs the single-request autograd baseline
};

/// One measurement: `threads` client threads drain a shared work queue
/// of HandleBatch calls against a fresh server. `pool` is cycled so
/// every run touches the same targets.
RunResult RunOne(ServingStack* s, const std::string& mode, int threads,
                 int batch, size_t total_requests, size_t cache_capacity,
                 const std::vector<UserId>& pool) {
  obs::MetricsRegistry reg;
  server::PredictionConfig pcfg;
  pcfg.metrics = &reg;
  pcfg.cache_capacity = cache_capacity;
  // "inference[scalar]" ablates the SIMD tiers (dispatch forced to the
  // scalar kernels).
  std::unique_ptr<la::ScopedKernelIsa> forced_scalar;
  if (mode == "inference[scalar]") {
    forced_scalar =
        std::make_unique<la::ScopedKernelIsa>(la::KernelIsa::kScalar);
  }
  server::PredictionServer srv(pcfg, s->bn.get(), s->features.get(),
                               s->model.get(), &s->data->scaler);

  const size_t total_batches =
      (total_requests + static_cast<size_t>(batch) - 1) / batch;
  std::atomic<size_t> next{0};
  Stopwatch sw;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const size_t bi = next.fetch_add(1);
        if (bi >= total_batches) return;
        std::vector<UserId> uids(batch);
        for (int j = 0; j < batch; ++j) {
          uids[j] = pool[(bi * batch + j) % pool.size()];
        }
        const auto resps = srv.HandleBatch(uids);
        TURBO_CHECK_EQ(resps.size(), uids.size());
      }
    });
  }
  for (auto& w : workers) w.join();

  RunResult r;
  r.mode = mode;
  r.threads = threads;
  r.batch = batch;
  r.seconds = sw.ElapsedSeconds();
  r.requests = total_batches * static_cast<size_t>(batch);
  r.requests_per_second = r.requests / std::max(r.seconds, 1e-9);
  const obs::Histogram& total = *reg.GetHistogram("predict_total_ms");
  r.mean_call_ms = total.Mean();
  r.p99_call_ms = total.Percentile(0.99);
  r.sample_ms = reg.GetHistogram("predict_sample_ms")->Mean();
  r.feature_ms = reg.GetHistogram("predict_feature_ms")->Mean();
  r.inference_ms = reg.GetHistogram("predict_inference_ms")->Mean();
  r.subgraph_nodes = reg.GetHistogram("predict_subgraph_nodes")->Mean();
  r.cache_hits = reg.GetCounter("predict_cache_hits_total")->value();
  return r;
}

/// The pass with the median throughput.
RunResult MedianPass(std::vector<RunResult> passes) {
  std::sort(passes.begin(), passes.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.requests_per_second < b.requests_per_second;
            });
  return passes[passes.size() / 2];
}

/// One client thread runs HandleBatch's work through the public calls it
/// makes — sample, build the one adjacency view HAG reads, fetch and
/// scale the features of Hag::InputRows — then the autograd forward over
/// every row (GnnTrainer::PredictTargets) instead of the served tape-free
/// one. No cache, no stage spans, no modeled storage cost.
RunResult RunAutograd(ServingStack* s, int batch, size_t total_requests,
                      const std::vector<UserId>& pool) {
  const size_t total_batches =
      (total_requests + static_cast<size_t>(batch) - 1) / batch;
  const size_t dims = s->data->scaler.mean().size();
  double nodes = 0.0;
  Stopwatch sw;
  for (size_t bi = 0; bi < total_batches; ++bi) {
    std::vector<UserId> uids(batch);
    for (int j = 0; j < batch; ++j) {
      uids[j] = pool[(bi * batch + j) % pool.size()];
    }
    const bn::Subgraph sg = s->bn->SampleSubgraph(uids);
    gnn::GraphBatch gb = gnn::MakeGraphBatch(
        sg, la::Matrix(sg.nodes.size(), dims), s->model->adjacency());
    const std::vector<uint32_t> rows = s->model->InputRows(gb);
    la::Matrix raw(rows.size(), dims);
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto row = s->features->GetFeatures(sg.nodes[rows[i]],
                                                s->bn->now());
      TURBO_CHECK_EQ(row.size(), dims);
      std::copy(row.begin(), row.end(), raw.row(i));
    }
    const la::Matrix scaled = s->data->scaler.Transform(raw);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::copy(scaled.row(i), scaled.row(i) + dims,
                gb.features.row(rows[i]));
    }
    const auto probs = gnn::GnnTrainer::PredictTargets(s->model.get(), gb);
    TURBO_CHECK_EQ(probs.size(), sg.num_targets);
    nodes += static_cast<double>(sg.nodes.size());
  }

  RunResult r;
  r.mode = "autograd";
  r.staged = false;
  r.threads = 1;
  r.batch = batch;
  r.seconds = sw.ElapsedSeconds();
  r.requests = total_batches * static_cast<size_t>(batch);
  r.requests_per_second = r.requests / std::max(r.seconds, 1e-9);
  r.subgraph_nodes = nodes / static_cast<double>(total_batches);
  return r;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto scale = BenchScale::FromFlags(flags);
  // Throughput does not need a converged model; keep training short
  // unless --epochs says otherwise.
  scale.epochs = flags.GetInt("epochs", 10);
  const int users = flags.GetInt("users", 1200);
  const size_t requests =
      static_cast<size_t>(flags.GetInt("requests", 192));
  const std::string out = flags.GetString("out", "BENCH_serving.json");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("== serving throughput: batched tape-free inference ==\n");
  std::printf("users=%d, %zu requests per run, %d hardware threads\n\n",
              users, requests, hw);
  ServingStack stack = BuildStack(users, scale);

  std::vector<RunResult> runs;
  // Baseline: one client, one request per call, autograd forward — the
  // pre-optimization serving path.
  runs.push_back(RunAutograd(&stack, 1, requests, stack.pool));
  const double baseline_rps = runs.front().requests_per_second;
  // Ablation: batching alone (autograd forward on merged batches)
  // separates the merged-subgraph win from the tape-free win.
  runs.push_back(RunAutograd(&stack, 8, requests, stack.pool));
  // SIMD ablation at the t1/b8 cell (the smallest gated batched cell):
  // the scalar run isolates what the dispatched kernels buy end-to-end.
  // Each cell runs kSimdPasses times, alternating, and reports its median
  // pass, so a stall in one pass moves neither side of the floor.
  std::vector<RunResult> dispatched_passes, scalar_passes;
  for (int pass = 0; pass < kSimdPasses; ++pass) {
    dispatched_passes.push_back(
        RunOne(&stack, "inference", 1, 8, requests, 0, stack.pool));
    scalar_passes.push_back(
        RunOne(&stack, "inference[scalar]", 1, 8, requests, 0, stack.pool));
  }
  const RunResult dispatched = MedianPass(dispatched_passes);
  const RunResult scalar = MedianPass(scalar_passes);
  // Grid: tape-free path over thread count x batch size.
  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 8, 16, 32}) {
      runs.push_back(threads == 1 && batch == 8
                         ? dispatched
                         : RunOne(&stack, "inference", threads, batch,
                                  requests, 0, stack.pool));
    }
  }
  runs.push_back(scalar);
  // Snapshot-versioned cache: a small hot set cycled repeatedly, so the
  // second and later passes are served from the cache.
  std::vector<UserId> hot(stack.pool.begin(),
                          stack.pool.begin() +
                              std::min<size_t>(stack.pool.size(), 64));
  runs.push_back(
      RunOne(&stack, "inference+cache", 4, 8, requests, 1024, hot));

  double acceptance = 0.0;  // best inference speedup at batch>=8
  TablePrinter table({"mode", "threads", "batch", "req/s", "speedup",
                      "p99 call (ms)", "sample/feat/infer (ms)", "nodes",
                      "cache hits"});
  for (auto& r : runs) {
    r.speedup = r.requests_per_second / std::max(baseline_rps, 1e-9);
    if (r.mode == "inference" && r.batch >= 8) {
      acceptance = std::max(acceptance, r.speedup);
    }
    table.AddRow({r.mode, std::to_string(r.threads),
                  std::to_string(r.batch),
                  StrFormat("%.1f", r.requests_per_second),
                  StrFormat("%.2fx", r.speedup),
                  r.staged ? StrFormat("%.2f", r.p99_call_ms) : "-",
                  r.staged ? StrFormat("%.2f/%.2f/%.2f", r.sample_ms,
                                       r.feature_ms, r.inference_ms)
                           : "-",
                  StrFormat("%.0f", r.subgraph_nodes),
                  std::to_string(r.cache_hits)});
  }
  table.Print();
  std::printf("\nbest tape-free batched speedup (batch >= 8): %.2fx "
              "(target >= 3x over single-request autograd)\n",
              acceptance);
  // Serving is sampling- and feature-bound, so the SIMD floor is
  // "no slower than scalar" within a 20% noise margin, not a speedup.
  const la::KernelIsa isa = la::ActiveIsa();
  bool simd_ok = true;
  if (isa == la::KernelIsa::kScalar) {
    std::printf("active ISA is scalar: SIMD floor skipped\n");
  } else {
    const double ratio = dispatched.requests_per_second /
                         std::max(scalar.requests_per_second, 1e-9);
    simd_ok = ratio >= 0.8;
    std::printf("SIMD floor [%s] inference/t1/b8 vs inference[scalar]/t1/b8, "
                "medians of %d passes: %.2fx (floor 0.8x) [%s]\n",
                la::IsaName(isa), kSimdPasses, ratio,
                simd_ok ? "ok" : "BELOW FLOOR");
  }

  std::ofstream f(out);
  f << "{\n"
    << "  \"bench\": \"serving_throughput\",\n"
    << "  \"users\": " << users << ",\n"
    << "  \"requests_per_run\": " << requests << ",\n"
    << "  \"hardware_threads\": " << hw << ",\n"
    << "  \"kernel_isa\": \"" << la::IsaName(isa) << "\",\n"
    << "  \"baseline_requests_per_second\": " << baseline_rps << ",\n"
    << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    f << "    {\"mode\": \"" << r.mode << "\", \"threads\": " << r.threads
      << ", \"batch\": " << r.batch << ", \"requests\": " << r.requests
      << ", \"seconds\": " << r.seconds
      << ", \"requests_per_second\": " << r.requests_per_second;
    if (r.staged) {
      f << ", \"mean_call_ms\": " << r.mean_call_ms
        << ", \"p99_call_ms\": " << r.p99_call_ms
        << ", \"sample_ms\": " << r.sample_ms
        << ", \"feature_ms\": " << r.feature_ms
        << ", \"inference_ms\": " << r.inference_ms;
    }
    f << ", \"subgraph_nodes\": " << r.subgraph_nodes
      << ", \"cache_hits\": " << r.cache_hits
      << ", \"speedup_vs_baseline\": " << r.speedup << "}"
      << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  f << "  ],\n"
    << "  \"batched_inference_speedup\": " << acceptance << "\n"
    << "}\n";
  std::printf("wrote %s\n", out.c_str());
  return acceptance >= 3.0 && simd_ok ? 0 : 1;
}

}  // namespace
}  // namespace turbo::benchx

int main(int argc, char** argv) { return turbo::benchx::Main(argc, argv); }
