// Google-benchmark microbenchmarks for the kernels the system is built
// on: dense/sparse linear algebra, BN construction throughput, subgraph
// sampling, statistical-feature computation, HAG forward pass, and GBDT
// training.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bn/builder.h"
#include "features/stat_features.h"
#include "la/kernel_dispatch.h"

using namespace turbo;

namespace {

// The pre-optimization GEMM, kept verbatim as the "before" number for
// the blocked scalar kernel (la/kernels_scalar.cc): serial ikj with a
// zero-skip branch in the hot loop (a data-dependent branch that costs
// more than the multiplies it saves on dense inputs).
la::Matrix MatMulZeroSkipReference(const la::Matrix& a,
                                   const la::Matrix& b) {
  la::Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(p, j);
    }
  }
  return c;
}

void BM_MatMulReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    auto c = MatMulZeroSkipReference(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulReference)->Arg(64)->Arg(256);

void BM_MatMulTransB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    auto c = la::MatMulTransB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(64)->Arg(256);

// The SIMD floor cells run their kernels on the calling thread, as the
// serving path does: on the shared pool, wake-ups on a busy host enter
// the real time and the floor ratio then measures the scheduler.
class OneKernelThread {
 public:
  OneKernelThread() { la::SetKernelThreads(1); }
  ~OneKernelThread() { la::SetKernelThreads(0); }
};

// SIMD dispatch cells: the same GEMM through la::dispatch on the active
// tier vs forced scalar. main() fails the run when dispatch/256 is
// under 3x scalar/256 on a host with a SIMD tier (kSimdFloors); it
// registers the n=256 cells itself, in interleaved passes.
void BM_MatMulDispatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  OneKernelThread one_thread;
  for (auto _ : state) {
    auto c = la::dispatch::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(la::IsaName(la::ActiveIsa()));
}
BENCHMARK(BM_MatMulDispatch)->Arg(64);

void BM_MatMulScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  auto a = la::Matrix::Randn(n, n, &rng);
  auto b = la::Matrix::Randn(n, n, &rng);
  la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
  OneKernelThread one_thread;
  for (auto _ : state) {
    auto c = la::dispatch::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulScalar)->Arg(64);

/// CSR fixture shared by the dispatched SpMM cells.
const la::SparseMatrix& SharedSparse() {
  static const la::SparseMatrix adj = [] {
    const size_t n = 20000, nnz = 200000;
    Rng rng(2);
    std::vector<la::Triplet> trips;
    trips.reserve(nnz);
    for (size_t i = 0; i < nnz; ++i) {
      trips.push_back({static_cast<uint32_t>(rng.NextUint(n)),
                       static_cast<uint32_t>(rng.NextUint(n)), 1.0f});
    }
    return la::SparseMatrix::FromTriplets(n, n, trips);
  }();
  return adj;
}

// Dispatched SpMM, best tier vs forced scalar; main() fails the run when
// dispatch is under 2x scalar on a host with a SIMD tier (kSimdFloors),
// and registers both cells itself, in interleaved passes.
void BM_SpMMDispatch(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  OneKernelThread one_thread;
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
  state.SetLabel(la::IsaName(la::ActiveIsa()));
}

void BM_SpMMScalar(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
  OneKernelThread one_thread;
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
}

// Fused act(S*X + addend) epilogue vs the unfused three-pass compose —
// the win the reassociated inference forwards bank on.
void BM_SpMMBiasActFused(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  auto addend = la::Matrix::Randn(adj.rows(), d, &rng);
  for (auto _ : state) {
    auto y = la::dispatch::SpmmBiasAct(adj, x, &addend, la::Act::kRelu);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
  state.SetLabel(la::IsaName(la::ActiveIsa()));
}
BENCHMARK(BM_SpMMBiasActFused);

void BM_SpMMBiasActUnfused(benchmark::State& state) {
  const size_t d = 32;
  const auto& adj = SharedSparse();
  Rng rng(3);
  auto x = la::Matrix::Randn(adj.cols(), d, &rng);
  auto addend = la::Matrix::Randn(adj.rows(), d, &rng);
  for (auto _ : state) {
    auto y = la::dispatch::Spmm(adj, x);
    y.Add(addend, 1.0f);
    y = la::dispatch::MapAct(y, la::Act::kRelu);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * d);
}
BENCHMARK(BM_SpMMBiasActUnfused);

// Shared dataset fixture (generated once).
const datagen::Dataset& SharedDataset() {
  static const datagen::Dataset ds =
      datagen::GenerateScenario(datagen::ScenarioConfig::D1Like(2000));
  return ds;
}

void BM_ScenarioGeneration(benchmark::State& state) {
  auto cfg = datagen::ScenarioConfig::D1Like(
      static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto ds = datagen::GenerateScenario(cfg);
    benchmark::DoNotOptimize(ds.logs.data());
    state.counters["logs"] = static_cast<double>(ds.logs.size());
  }
}
BENCHMARK(BM_ScenarioGeneration)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_BnConstruction(benchmark::State& state) {
  const auto& ds = SharedDataset();
  for (auto _ : state) {
    storage::EdgeStore edges;
    bn::BnBuilder builder(bn::BnConfig{}, &edges);
    builder.BuildFromLogs(ds.logs);
    benchmark::DoNotOptimize(edges.TotalEdges());
  }
  state.SetItemsProcessed(state.iterations() * ds.logs.size());
}
BENCHMARK(BM_BnConstruction)->Unit(benchmark::kMillisecond);

const storage::EdgeStore& SharedEdges() {
  static const storage::EdgeStore* edges = [] {
    auto* e = new storage::EdgeStore();
    bn::BnBuilder(bn::BnConfig{}, e).BuildFromLogs(SharedDataset().logs);
    return e;
  }();
  return *edges;
}

void BM_SnapshotBuild(benchmark::State& state) {
  const auto& ds = SharedDataset();
  const auto& edges = SharedEdges();
  bn::SnapshotOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto snap = bn::BnSnapshot::Build(
        edges, static_cast<int>(ds.users.size()), options);
    benchmark::DoNotOptimize(snap->TotalEdges());
    state.counters["bytes"] = static_cast<double>(snap->MemoryBytes());
  }
}
BENCHMARK(BM_SnapshotBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SubgraphSampling(benchmark::State& state) {
  const auto& ds = SharedDataset();
  bn::GraphView net(bn::BnSnapshot::Build(
      SharedEdges(), static_cast<int>(ds.users.size())));
  bn::SubgraphSampler sampler(net, bn::SamplerConfig{});
  UserId uid = 0;
  for (auto _ : state) {
    auto sg = sampler.SampleOne(uid);
    benchmark::DoNotOptimize(sg.nodes.data());
    uid = (uid + 17) % ds.users.size();
  }
}
BENCHMARK(BM_SubgraphSampling);

void BM_StatFeatures(benchmark::State& state) {
  const auto& ds = SharedDataset();
  static storage::LogStore store;
  if (store.size() == 0) store.AppendBatch(ds.logs);
  UserId uid = 0;
  for (auto _ : state) {
    auto f = features::ComputeStatFeatures(
        store, uid, ds.users[uid].application_time + kDay);
    benchmark::DoNotOptimize(f.data());
    uid = (uid + 13) % ds.users.size();
  }
}
BENCHMARK(BM_StatFeatures);

// SharedDataset() through the offline pipeline (prepared once).
const core::PreparedData& SharedPreparedData() {
  static const std::unique_ptr<core::PreparedData> data =
      core::PrepareData(datagen::Dataset(SharedDataset()),
                        core::PipelineConfig{});
  return *data;
}

void BM_HagForward(benchmark::State& state) {
  const core::PreparedData& data = SharedPreparedData();
  benchx::BenchScale scale;
  core::Hag model(benchx::MakeHagConfig(scale, 1));
  model.Init(static_cast<int>(data.features.cols()));
  auto batch = core::MakeBatch(data, data.test_uids, bn::SamplerConfig{});
  for (auto _ : state) {
    auto logits = model.Logits(batch, /*training=*/false, nullptr);
    benchmark::DoNotOptimize(logits->value.data());
  }
  state.counters["batch_nodes"] = static_cast<double>(batch.num_nodes());
}
BENCHMARK(BM_HagForward)->Unit(benchmark::kMillisecond);

// Tape-free counterpart of BM_HagForward: same trained weights, same
// batch, but EmbedInference/LogitsInference on raw matrices (no Node
// allocation, no backward closures). The ratio of the two is the
// autograd-tape overhead the serving path saves.
void BM_HagForwardInference(benchmark::State& state) {
  const core::PreparedData& data = SharedPreparedData();
  benchx::BenchScale scale;
  core::Hag model(benchx::MakeHagConfig(scale, 1));
  model.Init(static_cast<int>(data.features.cols()));
  auto batch = core::MakeBatch(data, data.test_uids, bn::SamplerConfig{});
  for (auto _ : state) {
    auto logits = model.LogitsInference(batch);
    benchmark::DoNotOptimize(logits.data());
  }
  state.counters["batch_nodes"] = static_cast<double>(batch.num_nodes());
}
BENCHMARK(BM_HagForwardInference)->Unit(benchmark::kMillisecond);

// The serving shape: HandleBatch's forward (Hag::TargetLogitsInference)
// over single-target sampled subgraphs, as a one-uid audit serves them.
// These batches are small (about a dozen nodes), so per-matrix overhead
// rather than arithmetic sets their cost; BM_HagForwardInference's
// batch of every test target is compute-bound.
void BM_HagTargetLogitsInference(benchmark::State& state) {
  const core::PreparedData& data = SharedPreparedData();
  benchx::BenchScale scale;
  core::Hag model(benchx::MakeHagConfig(scale, 1));
  model.Init(static_cast<int>(data.features.cols()));
  std::vector<gnn::GraphBatch> batches;
  double nodes = 0.0, input_rows = 0.0;
  for (size_t i = 0; i < std::min<size_t>(64, data.test_uids.size()); ++i) {
    batches.push_back(
        core::MakeBatch(data, {data.test_uids[i]}, bn::SamplerConfig{}));
    nodes += static_cast<double>(batches.back().num_nodes());
    input_rows += static_cast<double>(model.InputRows(batches.back()).size());
  }
  size_t next = 0;
  for (auto _ : state) {
    auto logits = model.TargetLogitsInference(batches[next]);
    benchmark::DoNotOptimize(logits.data());
    next = (next + 1) % batches.size();
  }
  state.counters["batch_nodes"] = nodes / static_cast<double>(batches.size());
  state.counters["input_rows"] =
      input_rows / static_cast<double>(batches.size());
}
BENCHMARK(BM_HagTargetLogitsInference);

void BM_GbdtFit(benchmark::State& state) {
  Rng rng(3);
  const int n = 4000, d = 30;
  la::Matrix x = la::Matrix::Randn(n, d, &rng);
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) y[i] = x(i, 0) + x(i, 1) > 0.5f;
  ml::GbdtConfig cfg;
  cfg.num_trees = 30;
  for (auto _ : state) {
    ml::Gbdt model(cfg);
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.num_trees());
  }
  state.SetItemsProcessed(state.iterations() * n * d * cfg.num_trees);
}
BENCHMARK(BM_GbdtFit)->Unit(benchmark::kMillisecond);

// Within-run SIMD floors: the median dispatched pass must be at least
// `floor` times faster than the median forced-scalar pass of the same
// run. A single pass of each cell missed the GEMM floor about one run
// in ten on a shared host (2.84x-2.87x), so main() registers each pair
// kFloorPasses times, alternating, and the floor compares medians.
struct SimdFloor {
  const char* simd;    // benchmark function name of the dispatched cell
  const char* scalar;  // ... and of the forced-scalar cell
  void (*simd_fn)(benchmark::State&);
  void (*scalar_fn)(benchmark::State&);
  int64_t arg;  // the cells' Arg(), or -1 for none
  double floor;
};
const SimdFloor kSimdFloors[] = {
    {"BM_MatMulDispatch", "BM_MatMulScalar", BM_MatMulDispatch,
     BM_MatMulScalar, 256, 3.0},
    {"BM_SpMMDispatch", "BM_SpMMScalar", BM_SpMMDispatch, BM_SpMMScalar, -1,
     2.0},
};
/// Interleaved passes of each floor cell (odd: the median is one pass).
constexpr int kFloorPasses = 5;

/// The name the cell registered as `fn_name` with `arg` runs under.
std::string CellName(const char* fn_name, int64_t arg) {
  return arg < 0 ? fn_name : std::string(fn_name) + "/" + std::to_string(arg);
}

void RegisterFloorCell(const char* fn_name, void (*fn)(benchmark::State&),
                       int64_t arg) {
  auto* cell = benchmark::RegisterBenchmark(fn_name, fn);
  if (arg >= 0) cell->Arg(arg);
}

// Display reporter that forwards to the one the --benchmark_format and
// --benchmark_color flags select, keeping every pass's real time per
// iteration, in seconds, for the floors.
class RealTimeReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && run.iterations > 0) {
        real_s_[run.benchmark_name()].push_back(
            run.real_accumulated_time / static_cast<double>(run.iterations));
      }
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  /// Median pass of `name`, or a negative value when it did not run.
  double MedianRealS(const std::string& name) const {
    const auto it = real_s_.find(name);
    if (it == real_s_.end()) return -1.0;
    std::vector<double> passes = it->second;
    std::sort(passes.begin(), passes.end());
    return passes[passes.size() / 2];
  }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_{
      benchmark::CreateDefaultDisplayReporter()};
  std::map<std::string, std::vector<double>> real_s_;
};

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the run is Release-gated
// like every other bench and the exit code carries the SIMD floors. The
// floor cells run last, in kFloorPasses interleaved passes. The floors
// are skipped on hosts whose best ISA is scalar (nothing to vectorize
// with) and for cells a --benchmark_filter left out, but not when
// TURBO_KERNEL_ISA forces scalar on a SIMD host: that run fails. Each
// verdict names the tier the dispatched cells ran on, and goes to
// stderr, so a --benchmark_format=json stdout stays JSON.
int main(int argc, char** argv) {
  turbo::benchx::RequireReleaseBuild();
  for (int pass = 0; pass < kFloorPasses; ++pass) {
    for (const SimdFloor& f : kSimdFloors) {
      RegisterFloorCell(f.simd, f.simd_fn, f.arg);
      RegisterFloorCell(f.scalar, f.scalar_fn, f.arg);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RealTimeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::fflush(stdout);
  if (la::BestIsa() == la::KernelIsa::kScalar) {
    std::fprintf(stderr, "best ISA is scalar: SIMD floors skipped\n");
    return 0;
  }
  bool ok = true;
  for (const SimdFloor& f : kSimdFloors) {
    const std::string simd = CellName(f.simd, f.arg);
    const std::string scalar = CellName(f.scalar, f.arg);
    const double simd_s = reporter.MedianRealS(simd);
    const double scalar_s = reporter.MedianRealS(scalar);
    if (simd_s < 0 || scalar_s < 0) continue;
    const double speedup = scalar_s / simd_s;
    const bool pass = speedup >= f.floor;
    std::fprintf(stderr,
                 "SIMD floor [%s] %s vs %s, medians of %d passes: %.2fx "
                 "(floor %.1fx) [%s]\n",
                 la::IsaName(la::ActiveIsa()), simd.c_str(), scalar.c_str(),
                 kFloorPasses, speedup, f.floor,
                 pass ? "ok" : "BELOW FLOOR");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}
