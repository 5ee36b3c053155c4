// The three workloads. Each sets up the system through the public API,
// draws its traffic from the seed, measures for the requested time in
// whole rounds of identical work, stops its timers, and then checks the
// outputs against references computed apart from the program.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <numeric>
#include <thread>
#include <sched.h>
#include <unistd.h>

#include "bench.h"
#include "gnn/graph_batch.h"
#include "gnn/trainer.h"
#include "la/matrix.h"
#include "net/remote_shard.h"
#include "net/shard_service.h"
#include "server/bn_cluster.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/time_util.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

// --- Inputs ------------------------------------------------------------
// One population and one trained model serve every workload and seed. On
// 1,000 users the fraud rings a scenario seed draws moved audit_burst's
// throughput by 34% and its AUC by 37% (interquartile range over five
// seeds, as a share of the median), more than any bound <= 25% absorbs;
// so --seed draws the traffic over this fixed population instead: the
// order of each hour's audits, the batch lists, the users checked.
constexpr uint64_t kScenarioSeed = 20210415;  // datagen's default
constexpr uint64_t kSplitSeed = 7;            // PipelineConfig's default
// A D1-like population compressed into 75 days so that one replay from
// empty is a few seconds of work, passes the 60-day edge TTL, and spreads
// applications and fraud campaigns over the whole stream. Leases last 25
// days with 12 sessions on average, about D1's sessions per day. The
// fraud rate is raised from D1's 1.4% so the audited test split holds
// enough positives for a defined, steady AUC.
constexpr int kUsers = 1000;
constexpr double kFraudRate = 0.12;
constexpr SimTime kHorizon = 75 * kDay;
constexpr SimTime kLeasePeriod = 25 * kDay;
constexpr double kSessionsPerLease = 12.0;
constexpr int kHours = static_cast<int>(kHorizon / kHour);
constexpr double kTestFraction = 0.3;
const std::vector<SimTime> kWindows = {kHour, 6 * kHour, kDay};
/// Daily checkpoints at noon, so every recovery also replays a WAL tail.
constexpr int kCheckpointHour = 12;
/// Set-up is repeated and its median reported.
constexpr int kSetupReps = 3;
/// Recoveries after each stream_replay round (median reported).
constexpr int kRecoveriesPerRound = 3;

// audit_burst: bulk-load to day 30; then each hour the clients drain the
// next 6 batches of a fixed cyclic list of batch-8 calls over the
// previous 14 days' applicants. Short audit phases let a run cover the
// 1,000 hours its publish p99 needs. Every midnight a fresh server
// recovers a copy of the durability directory (12 hours after the last
// checkpoint), so recoveries are spread over the run.
constexpr SimTime kBurstStart = 30 * kDay;
constexpr SimTime kBurstRecent = 14 * kDay;
constexpr int kBurstBatch = 8;
constexpr int kBurstBatchesPerHour = 6;
constexpr int kBurstClients = 3;

// socket_cluster: warm start to day 30, then replay 480 hours per round.
// The known partial-graph fault makes some audits fail; with the fixed
// population their count does not depend on the seed.
constexpr int kSocketShards = 2;
constexpr SimTime kSocketWarm = 30 * kDay;
constexpr int kSocketHours = 480;

/// Minimum work per run: enough hours and audit calls for a p99, and
/// enough rounds for each operation's median over them.
constexpr int kMinHours = 1000;
constexpr int kMinAudits = 1000;
constexpr int kMinRounds = 3;

// --- Thread counts (each one the program exposes is set explicitly) ---
// The writer side runs on its own thread: with worker pools, every hour
// hands work to pool threads, and on a shared 4-core VM those wake-ups
// put scheduler noise into the publish tail (the cluster barrier's p99
// spread over 10 runs was 45% with 2 advance threads, 8% with 1).
constexpr int kTrainKernelThreads = 4;  // la kernels while training
constexpr int kServeKernelThreads = 1;  // la kernels on the request path
constexpr int kWindowJobThreads = 1;    // every server and shard
constexpr int kSnapshotBuildThreads = 1;
constexpr int kAdvanceThreads = 1;  // cluster barrier

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

datagen::ScenarioConfig Scenario() {
  datagen::ScenarioConfig cfg = datagen::ScenarioConfig::D1Like(kUsers);
  cfg.seed = kScenarioSeed;
  cfg.fraud_rate = kFraudRate;
  cfg.horizon = kHorizon;
  cfg.lease_period = kLeasePeriod;
  cfg.normal_events_mean = kSessionsPerLease;
  return cfg;
}

struct Model {
  std::unique_ptr<core::PreparedData> data;
  std::unique_ptr<core::Hag> hag;
  double prepare_s = 0.0;
  double train_s = 0.0;
};

Model BuildModel() {
  Model m;
  Stopwatch sw;
  core::PipelineConfig pipeline;
  pipeline.bn.windows = kWindows;
  pipeline.test_fraction = kTestFraction;
  pipeline.split_seed = kSplitSeed;
  m.data = core::PrepareData(datagen::GenerateScenario(Scenario()),
                             pipeline);
  m.prepare_s = sw.ElapsedSeconds();
  sw.Reset();
  core::HagConfig hc;
  hc.hidden = {32, 16};
  hc.attention_dim = 16;
  hc.mlp_hidden = 16;
  hc.seed = 42;
  m.hag = std::make_unique<core::Hag>(hc);
  gnn::TrainConfig tc;
  tc.epochs = 20;
  tc.lr = 1e-3f;
  tc.seed = 42;
  la::SetKernelThreads(kTrainKernelThreads);
  core::TrainAndScoreGnn(m.hag.get(), *m.data, bn::SamplerConfig{}, tc);
  la::SetKernelThreads(kServeKernelThreads);
  m.train_s = sw.ElapsedSeconds();
  return m;
}

server::BnServerConfig ServerConfig(const std::string& wal_dir,
                                    obs::MetricsRegistry* metrics) {
  server::BnServerConfig c;
  c.bn.windows = kWindows;
  c.num_users = kUsers;
  c.window_job_threads = kWindowJobThreads;
  c.snapshot_build_threads = kSnapshotBuildThreads;
  c.wal_dir = wal_dir;
  // The WAL is written but not fsynced. On a shared 4-vCPU VM an fsync
  // takes about 0.1 ms and drifts by 20% with the host's disk load; with
  // one per 64-record group commit and one per hour it was about 45% of
  // stream_replay's hourly loop and 60% of its AdvanceTo p50, so the
  // replay timed the disk more than the program. Checkpoints still fsync.
  c.wal.fsync = storage::WalOptions::Fsync::kNever;
  c.metrics = metrics;
  return c;
}

/// The serving configuration: tape-free forward, float weights, no
/// prediction cache.
server::PredictionConfig ServingConfig() {
  server::PredictionConfig p;
  p.use_inference_path = true;
  p.quantized_inference = false;
  p.cache_capacity = 0;
  return p;
}

std::unique_ptr<features::FeatureStore> MakeFeatures(
    const server::BnServer& bn, const core::PreparedData& data) {
  auto store = std::make_unique<features::FeatureStore>(
      features::FeatureStoreConfig{}, &bn.logs());
  const la::Matrix& profiles = data.dataset.profile_features;
  for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
    store->PutProfile(u, std::vector<float>(profiles.row(u),
                                            profiles.row(u) + profiles.cols()));
  }
  return store;
}

/// The run's inputs and thread counts, printed and recorded.
void RecordMakeup(RunResult* out, int clients) {
  out->Info("input.scenario_seed", std::to_string(kScenarioSeed));
  out->Info("input.split_seed", std::to_string(kSplitSeed));
  out->Info("input.users", std::to_string(kUsers));
  out->Info("input.fraud_rate", kFraudRate);
  out->Info("input.horizon_days", static_cast<double>(kHorizon / kDay));
  out->Info("threads.train_kernels", std::to_string(kTrainKernelThreads));
  out->Info("threads.serve_kernels", std::to_string(kServeKernelThreads));
  out->Info("threads.audit_clients", std::to_string(clients));
  out->Info("threads.window_jobs", std::to_string(kWindowJobThreads));
  out->Info("threads.snapshot_build", std::to_string(kSnapshotBuildThreads));
}

/// Index of the first log of each hour: hour h (1-based) holds the logs
/// with time in ((h-1)H, hH], hour 1 also time 0.
std::vector<size_t> HourStarts(const BehaviorLogList& logs, int hours) {
  std::vector<size_t> starts(hours + 2, logs.size());
  size_t i = 0;
  for (int h = 1; h <= hours + 1; ++h) {
    starts[h] = i;
    while (i < logs.size() && logs[i].time <= h * kHour) ++i;
  }
  return starts;
}

/// Applications by the hour their 24 h audit delay ends (paper §VI).
std::vector<std::vector<UserId>> AuditSchedule(const datagen::Dataset& ds,
                                               int hours) {
  std::vector<std::vector<UserId>> at(hours + 1);
  for (const auto& u : ds.users) {
    const SimTime due = u.application_time + kDay;
    const int h = std::max<int>(1, static_cast<int>((due + kHour - 1) / kHour));
    if (h <= hours) at[h].push_back(u.uid);
  }
  return at;
}

// --- The traced request path --------------------------------------------
// The same public calls PredictionServer::HandleBatch makes, each under a
// span, so the per-layer split comes from the benchmark's own files.

struct PathStats {
  uint64_t calls = 0;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  int64_t rows = 0;
  double modeled_ms = 0.0;
  void Add(const PathStats& o) {
    calls += o.calls;
    nodes += o.nodes;
    edges += o.edges;
    rows += o.rows;
    modeled_ms += o.modeled_ms;
  }
};

struct ServingRefs {
  const server::BnServer* bn;
  features::FeatureStore* features;
  const ml::StandardScaler* scaler;
  core::Hag* hag;
};

struct PreparedBatch {
  bn::Subgraph sg;
  gnn::GraphBatch batch;
};

PreparedBatch PrepareBatch(const ServingRefs& s,
                           const std::vector<UserId>& uids, Tracer* tr,
                           uint64_t parent, uint64_t key, PathStats* st) {
  PreparedBatch p;
  const SimTime as_of = s.bn->now();
  {
    Tracer::Scope span(tr, "bn.sample", parent, key);
    p.sg = s.bn->SampleSubgraph(uids);
  }
  la::Matrix raw;
  storage::SimClock clock;
  {
    Tracer::Scope span(tr, "features.get", parent, key);
    for (size_t i = 0; i < p.sg.nodes.size(); ++i) {
      const std::vector<float> row =
          s.features->GetFeatures(p.sg.nodes[i], as_of, &clock);
      TURBO_CHECK_MSG(!row.empty(), "no profile row for " << p.sg.nodes[i]);
      if (raw.empty()) raw = la::Matrix(p.sg.nodes.size(), row.size());
      std::copy(row.begin(), row.end(), raw.row(i));
    }
  }
  la::Matrix scaled;
  {
    Tracer::Scope span(tr, "features.scale", parent, key);
    scaled = s.scaler->Transform(raw);
  }
  {
    Tracer::Scope span(tr, "gnn.batch_build", parent, key);
    bn::Subgraph local = p.sg;
    for (size_t i = 0; i < local.nodes.size(); ++i) {
      local.nodes[i] = static_cast<UserId>(i);
    }
    p.batch = gnn::MakeGraphBatch(local, scaled);
    p.batch.global_ids = p.sg.nodes;
  }
  if (st != nullptr) {
    ++st->calls;
    st->nodes += p.sg.nodes.size();
    st->edges += p.sg.NumEdges();
    st->rows += clock.rows();
    st->modeled_ms += clock.ElapsedMillis();
  }
  return p;
}

std::vector<double> PerRequest(const bn::Subgraph& sg,
                               const std::vector<double>& target_probs,
                               const std::vector<UserId>& uids) {
  std::vector<double> out(uids.size());
  for (size_t j = 0; j < uids.size(); ++j) out[j] = target_probs[sg.local.at(uids[j])];
  return out;
}

std::vector<double> TracedPredict(const ServingRefs& s,
                                  const std::vector<UserId>& uids,
                                  Tracer* tr, uint64_t parent, uint64_t key,
                                  PathStats* st) {
  PreparedBatch p = PrepareBatch(s, uids, tr, parent, key, st);
  std::vector<double> probs;
  {
    Tracer::Scope span(tr, "gnn.forward", parent, key);
    probs = gnn::GnnTrainer::PredictTargetsInference(*s.hag, p.batch);
  }
  return PerRequest(p.sg, probs, uids);
}

/// The autograd forward over the same rebuilt batch (reference for the
/// tape-free path).
std::vector<double> AutogradPredict(const ServingRefs& s,
                                    const std::vector<UserId>& uids) {
  Tracer off(false);
  PreparedBatch p = PrepareBatch(s, uids, &off, 0, 0, nullptr);
  return PerRequest(p.sg, gnn::GnnTrainer::PredictTargets(s.hag, p.batch),
                    uids);
}

/// One audit call as a client issues it. Untraced: HandleBatch. Traced:
/// the rebuilt path under spans; every `check_every`-th call also runs
/// HandleBatch on the same batch (probabilities must match bit for bit)
/// and times it against the rebuilt path with both on a warm feature
/// cache, which gives the server's own overhead.
struct AuditCaller {
  AuditCaller(server::PredictionServer* p, ServingRefs r, Tracer* t, int every)
      : prediction(p), refs(r), tracer(t), check_every(every) {}

  server::PredictionServer* prediction;
  ServingRefs refs;
  Tracer* tracer;
  int check_every;
  // Per-caller state (one caller per client thread).
  uint64_t calls = 0;
  uint64_t mismatches = 0;
  PathStats stats;
  std::vector<double> self_us;

  std::vector<double> Call(const std::vector<UserId>& uids, uint64_t key) {
    if (!tracer->enabled()) {
      auto resp = prediction->HandleBatch(uids);
      std::vector<double> out(resp.size());
      for (size_t i = 0; i < resp.size(); ++i) out[i] = resp[i].fraud_probability;
      return out;
    }
    std::vector<double> probs;
    {
      Tracer::Scope root(tracer, "server.audit", 0, key);
      probs = TracedPredict(refs, uids, tracer, root.id(), key, &stats);
    }
    if (calls++ % check_every == 0) {
      Stopwatch hb_sw;
      auto resp = prediction->HandleBatch(uids);
      const double hb_us = hb_sw.ElapsedMicros();
      Tracer off(false);
      Stopwatch path_sw;
      TracedPredict(refs, uids, &off, 0, 0, nullptr);
      self_us.push_back(hb_us - path_sw.ElapsedMicros());
      for (size_t i = 0; i < resp.size(); ++i) {
        if (resp[i].fraud_probability != probs[i]) ++mismatches;
      }
    }
    return probs;
  }
};

bool ValidProbability(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

/// Reads a counter/gauge/histogram sum by name from a registry.
double Counter(obs::MetricsRegistry* r, const char* name) {
  return static_cast<double>(r->GetCounter(name)->value());
}
double Gauge(obs::MetricsRegistry* r, const char* name) {
  return r->GetGauge(name)->value();
}
double HistSum(obs::MetricsRegistry* r, const char* name) {
  return r->GetHistogram(name)->Sum();
}

/// Writer/audit hand-off for one hourly replay: the writer posts an hour
/// after publishing it; the audit thread serves that hour's audits while
/// the writer ingests the next hour, and the writer waits for them before
/// its next AdvanceTo. Both sides spin instead of sleeping, yielding the
/// CPU to any other runnable thread: a futex wake-up of an idle vCPU on a
/// shared VM costs tens of microseconds that vary with the host's load,
/// twice an hour, and that cost is the harness's, not the program's.
class HourChannel {
 public:
  void Post(int hour) { posted_.store(hour, std::memory_order_release); }
  void WaitDone(int hour) {
    while (done_.load(std::memory_order_acquire) < hour) CpuRelax();
  }
  /// Audit side: the next posted hour, or -1 once closed and drained.
  int Next(int last) {
    for (;;) {
      const int posted = posted_.load(std::memory_order_acquire);
      if (posted > last) return posted;
      if (closed_.load(std::memory_order_acquire)) return -1;
      CpuRelax();
    }
  }
  void Done(int hour) { done_.store(hour, std::memory_order_release); }
  void Close() { closed_.store(true, std::memory_order_release); }

 private:
  static void CpuRelax() { std::this_thread::yield(); }

  std::atomic<int> posted_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> closed_{false};
};

/// Times of the writer's hourly loop in one replay, hour by hour.
struct ReplayTimes {
  std::vector<double> hour_ms;     // each hour's whole loop iteration
  std::vector<double> publish_ms;  // each hour's AdvanceTo
  std::vector<double> checkpoint_ms;
  double ingest_us = 0.0;
};

/// The audits of one replay in schedule order.
struct AuditLog {
  std::vector<UserId> uids;
  std::vector<double> probs;
  std::vector<double> latency_ms;
};

/// Runs the hourly schedule: `ingest(h)`, wait for hour h-1's audits,
/// `advance(h)` (timed), hand hour h to the audit thread, `after(h)`.
/// `audit(uid)` serves one audit on the audit thread.
void HourlyReplay(int hours, const std::vector<std::vector<UserId>>& schedule,
                  Tracer* tr, const std::function<void(int)>& ingest,
                  const std::function<void(int, uint64_t)>& advance,
                  const std::function<void(int)>& after,
                  const std::function<double(UserId, uint64_t)>& audit,
                  ReplayTimes* times, AuditLog* audits) {
  HourChannel channel;
  std::thread auditor([&] {
    int last = 0;
    for (int h; (h = channel.Next(last)) > 0; last = h) {
      for (UserId uid : schedule[h]) {
        const uint64_t key = audits->uids.size();
        const auto t0 = Clock::now();
        const double p = audit(uid, key);
        const double dt = SecondsSince(t0);
        audits->uids.push_back(uid);
        audits->probs.push_back(p);
        audits->latency_ms.push_back(dt * 1e3);
      }
      channel.Done(h);
    }
  });
  auto hour_start = Clock::now();
  for (int h = 1; h <= hours; ++h) {
    Tracer::Scope hour(tr, "writer.hour", 0, h);
    {
      Tracer::Scope span(tr, "storage.ingest", hour.id(), h);
      const auto t0 = Clock::now();
      ingest(h);
      times->ingest_us += SecondsSince(t0) * 1e6;
    }
    {
      Tracer::Scope span(tr, "writer.wait_audits", hour.id(), h);
      channel.WaitDone(h - 1);
    }
    {
      Tracer::Scope span(tr, "bn.advance", hour.id(), h);
      const auto t0 = Clock::now();
      advance(h, span.id());
      times->publish_ms.push_back(SecondsSince(t0) * 1e3);
    }
    if (schedule[h].empty()) {
      channel.Done(h);
    } else {
      channel.Post(h);
    }
    if (h % 24 == kCheckpointHour) {
      Tracer::Scope span(tr, "storage.checkpoint", hour.id(), h);
      const auto t0 = Clock::now();
      after(h);
      times->checkpoint_ms.push_back(SecondsSince(t0) * 1e3);
    }
    // The last hour also waits for its own audits.
    if (h == hours) channel.WaitDone(hours);
    const auto hour_end = Clock::now();
    times->hour_ms.push_back(
        std::chrono::duration<double, std::milli>(hour_end - hour_start).count());
    hour_start = hour_end;
  }
  channel.Close();
  auditor.join();
}

std::vector<UserId> SampleUsers(uint64_t seed, int n) {
  Rng rng(MixSeeds(seed, 0xa1a1));
  std::vector<UserId> out;
  for (size_t i : rng.SampleWithoutReplacement(kUsers, n)) {
    out.push_back(static_cast<UserId>(i));
  }
  return out;
}

/// Checks the streamed EdgeStore against the independent Algorithm 1
/// computation for a seeded sample of users.
void CheckAlgorithm1(const server::BnServer& bn, const BehaviorLogList& logs,
                     uint64_t seed, RunResult* out) {
  const std::vector<UserId> sample = SampleUsers(seed, 40);
  int max_bucket = 0;
  const bn::BnConfig cfg = ServerConfig("", nullptr).bn;
  const auto ref = ReferenceEdges(logs, cfg.windows, cfg.edge_ttl,
                                  cfg.max_bucket_users, bn.now(), sample,
                                  &max_bucket);
  size_t expected_per_user = 0, bad = 0;
  double max_rel = 0.0;
  for (const RefEdge& e : ref) {
    const auto& row = bn.edges().Neighbors(e.edge_type, e.u);
    auto it = row.find(e.v);
    if (it == row.end()) {
      ++bad;
      continue;
    }
    const double rel = std::fabs(it->second.weight - e.weight) / e.weight;
    max_rel = std::max(max_rel, rel);
    if (rel > 1e-9 || it->second.last_update != e.last_update) ++bad;
  }
  for (UserId u : sample) {
    for (int t = 0; t < kNumEdgeTypes; ++t) {
      expected_per_user += bn.edges().Neighbors(t, u).size();
    }
  }
  out->Info("check.alg1_edges", static_cast<double>(ref.size()));
  out->Info("check.alg1_max_rel_err", max_rel);
  out->Info("check.alg1_max_bucket", static_cast<double>(max_bucket));
  out->Check(bad == 0 && expected_per_user == ref.size(),
             StrFormat("Algorithm 1 reference: %zu of %zu edges differ, "
                       "store holds %zu", bad, ref.size(), expected_per_user));
}

double AucForTest(const core::PreparedData& data,
                  const std::vector<UserId>& uids,
                  const std::vector<double>& probs, int* positives) {
  std::vector<char> in_test(kUsers, 0);
  for (UserId u : data.test_uids) in_test[u] = 1;
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<char> seen(kUsers, 0);
  for (size_t i = 0; i < uids.size(); ++i) {
    const UserId u = uids[i];
    if (!in_test[u] || seen[u] || !std::isfinite(probs[i])) continue;
    seen[u] = 1;
    scores.push_back(probs[i]);
    labels.push_back(data.labels[u]);
  }
  *positives = static_cast<int>(std::count(labels.begin(), labels.end(), 1));
  return PairCountAuc(scores, labels);
}

std::string RunDir(const Options& opt) {
  return StrFormat("%s/%s-%d", opt.out_dir.c_str(), opt.workload.c_str(),
                   static_cast<int>(getpid()));
}

void FinishTrace(const Options& opt, const Tracer& tracer, RunResult* out) {
  if (!tracer.enabled()) return;
  const std::string path =
      StrFormat("%s/%s-seed%llu-spans.jsonl", opt.out_dir.c_str(),
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed));
  out->Check(tracer.WriteJsonl(path), "could not write " + path);
  out->Info("trace.spans", static_cast<double>(tracer.size()));
  out->Info("trace.file", path);
  PrintLayerTable(tracer);
}

/// Per-layer metrics of the traced request path, shared by workloads.
void SetPathLayers(const Tracer& tr, const PathStats& st,
                   const std::vector<double>& self_us, double hit_ratio,
                   RunResult* out) {
  const double calls = std::max<double>(1, st.calls);
  out->Set("bn.sample_us", Percentile(tr.Durations("bn.sample"), 0.5));
  out->Set("bn.subgraph_nodes", st.nodes / calls);
  out->Set("bn.subgraph_edges", st.edges / calls);
  out->Set("features.get_us_per_node",
           tr.TotalUs("features.get") / std::max<double>(1, st.nodes));
  out->Set("features.cache_hit_ratio", hit_ratio);
  out->Set("features.rows_scanned_per_audit", st.rows / calls);
  out->Set("features.modeled_ms_per_audit", st.modeled_ms / calls);
  out->Set("gnn.batch_build_us", Percentile(tr.Durations("gnn.batch_build"), 0.5));
  out->Set("gnn.forward_us", Percentile(tr.Durations("gnn.forward"), 0.5));
  out->Set("server.self_us", Median(self_us));
}

/// Per-layer metrics no in-process workload has: zero RPCs, no routing.
void SetNoNetLayers(RunResult* out) {
  for (const char* name :
       {"server.forwarded_per_event", "net.ingest_rpc_us", "net.advance_rpc_ms",
        "net.predict_rpc_us", "net.rpcs_per_event", "net.bytes_per_event",
        "net.retries"}) {
    out->Set(name, 0.0);
  }
}

/// Registry-sourced BN and storage layers of one in-process server.
struct ServerLayers {
  double window_job_ms = 0.0, publish_build_ms = 0.0;
  double window_jobs = 0.0, edge_updates = 0.0;
  double incremental = 0.0, full_rebuilds = 0.0;
  double checkpoints = 0.0, checkpoints_delta = 0.0;
  double snapshot_bytes = 0.0;

  void Read(obs::MetricsRegistry* r) {
    window_job_ms = HistSum(r, "bn_window_job_ms");
    publish_build_ms = HistSum(r, "bn_snapshot_incremental_ms") +
                       HistSum(r, "bn_snapshot_build_ms");
    window_jobs = Counter(r, "bn_window_jobs_total");
    edge_updates = Counter(r, "bn_window_edge_updates_total");
    incremental = Counter(r, "bn_snapshot_incremental_total");
    full_rebuilds = Counter(r, "bn_snapshot_full_rebuilds_total");
    checkpoints = Counter(r, "bn_checkpoints_total");
    checkpoints_delta = Counter(r, "bn_checkpoints_delta_total");
    snapshot_bytes = Gauge(r, "bn_snapshot_memory_bytes");
  }
  /// The counts accrued since `before` (gauges keep their last value).
  void Subtract(const ServerLayers& before) {
    window_job_ms -= before.window_job_ms;
    publish_build_ms -= before.publish_build_ms;
    window_jobs -= before.window_jobs;
    edge_updates -= before.edge_updates;
    incremental -= before.incremental;
    full_rebuilds -= before.full_rebuilds;
    checkpoints -= before.checkpoints;
    checkpoints_delta -= before.checkpoints_delta;
  }
};

/// Each operation's median time over the rounds. Every round repeats the
/// same operations in the same order on the same state, so an operation's
/// median over its repetitions is its cost with the shared host's
/// passing interference filtered out; pooled samples keep that
/// interference in the tail, and it moves whole runs.
std::vector<double> MedianOfRounds(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> median(rounds.front().size());
  std::vector<double> reps(rounds.size());
  for (size_t i = 0; i < median.size(); ++i) {
    for (size_t r = 0; r < rounds.size(); ++r) {
      TURBO_CHECK_MSG(rounds[r].size() == median.size(), "rounds differ in operations");
      reps[r] = rounds[r][i];
    }
    median[i] = Median(reps);
  }
  return median;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// The end-to-end metrics of an hourly replay from its rounds: the
/// writer's hourly loop, its AdvanceTo and each audit, each at its median
/// over the rounds.
void SetReplayMetrics(uint64_t events_per_round, const std::vector<ReplayTimes>& times,
                      const std::vector<AuditLog>& audits,
                      const std::vector<double>& recover_s, RunResult* out) {
  std::vector<std::vector<double>> hour_ms, publish_ms, audit_ms;
  for (const ReplayTimes& t : times) {
    hour_ms.push_back(t.hour_ms);
    publish_ms.push_back(t.publish_ms);
  }
  for (const AuditLog& a : audits) audit_ms.push_back(a.latency_ms);
  const std::vector<double> hour = MedianOfRounds(hour_ms);
  const std::vector<double> publish = MedianOfRounds(publish_ms);
  const std::vector<double> audit = MedianOfRounds(audit_ms);
  out->Set("ingest_events_per_s", events_per_round / (Sum(hour) / 1e3));
  out->Set("publish_p50_ms", Percentile(publish, 0.5));
  out->Set("publish_p99_ms", Percentile(publish, 0.99));
  out->Set("audit_rps", audit.size() / (Sum(audit) / 1e3));
  out->Set("audit_p50_ms", Percentile(audit, 0.5));
  out->Set("audit_p99_ms", Percentile(audit, 0.99));
  out->Set("recover_s", Median(recover_s));
}

void SetSetup(const std::vector<double>& setup_s,
              const std::vector<double>& prepare_s,
              const std::vector<double>& train_s, RunResult* out) {
  out->Set("setup_s", Median(setup_s));
  out->Set("core.prepare_s", Median(prepare_s));
  out->Set("core.train_s", Median(train_s));
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out->Info(StrFormat("setup.rep%zu_s", i), setup_s[i]);
  }
}

}  // namespace

// ======================================================================
// stream_replay: one in-process BnServer with WAL and daily checkpoints
// replays the whole stream hour by hour from empty; each application is
// audited once when its audit delay ends; a fresh server then recovers
// the WAL directory and serves one audit. Rounds repeat the replay.

void RunStreamReplay(const Options& opt, RunResult* out) {
  Tracer tracer(opt.trace);
  const std::string root = RunDir(opt);
  fs::remove_all(root);
  RecordMakeup(out, 1);

  std::vector<double> setup_s, prepare_s, train_s;
  Model model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = rep == 0 ? kProcessStart : Clock::now();
    model = Model();
    model = BuildModel();
    setup_s.push_back(SecondsSince(t0));
    prepare_s.push_back(model.prepare_s);
    train_s.push_back(model.train_s);
  }
  const core::PreparedData& data = *model.data;
  const BehaviorLogList& logs = data.dataset.logs;
  const std::vector<size_t> starts = HourStarts(logs, kHours);
  auto schedule = AuditSchedule(data.dataset, kHours);
  Rng order_rng(MixSeeds(opt.seed, 0x5eed));
  for (auto& hour : schedule) order_rng.Shuffle(&hour);
  out->Info("input.logs", static_cast<double>(logs.size()));
  out->Info("input.hours_per_round", static_cast<double>(kHours));

  std::vector<ReplayTimes> round_times;
  std::vector<AuditLog> round_audits;
  std::vector<double> recover_s;
  double wal_bytes = 0.0, checkpoint_bytes = 0.0, replayed = 0.0;
  PathStats path_stats;
  std::vector<double> self_us;
  uint64_t path_mismatches = 0;
  ServerLayers layers;
  std::unique_ptr<obs::MetricsRegistry> live_metrics;
  std::unique_ptr<server::BnServer> live;
  std::unique_ptr<features::FeatureStore> live_features;
  std::unique_ptr<server::PredictionServer> live_prediction;
  int rounds = 0;
  uint64_t events = 0, hours = 0, audits = 0;
  const auto measure_start = Clock::now();
  while (rounds < kMinRounds || SecondsSince(measure_start) < opt.seconds ||
         hours < kMinHours || audits < kMinAudits) {
    const std::string dir = StrFormat("%s/round-%d", root.c_str(), rounds);
    // The previous round's server and files go first.
    live_prediction.reset();
    live_features.reset();
    live.reset();
    if (rounds > 0) fs::remove_all(StrFormat("%s/round-%d", root.c_str(), rounds - 1));
    live_metrics = std::make_unique<obs::MetricsRegistry>();
    live = std::make_unique<server::BnServer>(ServerConfig(dir, live_metrics.get()));
    live_features = MakeFeatures(*live, data);
    live_prediction = std::make_unique<server::PredictionServer>(
        ServingConfig(), live.get(), live_features.get(), model.hag.get(),
        &data.scaler);
    AuditCaller caller(live_prediction.get(),
                       {live.get(), live_features.get(), &data.scaler, model.hag.get()},
                       &tracer, 4);
    AuditLog audit_log;
    ReplayTimes times;
    server::BnServer* bn = live.get();
    obs::MetricsRegistry* reg = live_metrics.get();
    HourlyReplay(
        kHours, schedule, &tracer,
        [&](int h) {
          bn->IngestBatch(BehaviorLogList(logs.begin() + starts[h],
                                          logs.begin() + starts[h + 1]));
        },
        [&](int h, uint64_t) { bn->AdvanceTo(h * kHour); },
        [&](int) {
          // The checkpoint rotates the WAL segment: count its bytes first.
          wal_bytes += Gauge(reg, "bn_wal_bytes");
          const Status s = bn->Checkpoint(dir);
          TURBO_CHECK_MSG(s.ok(), s.ToString());
          checkpoint_bytes += Gauge(reg, "bn_checkpoint_bytes");
        },
        [&](UserId uid, uint64_t key) { return caller.Call({uid}, key)[0]; },
        &times, &audit_log);
    wal_bytes += Gauge(reg, "bn_wal_bytes");
    events += starts[kHours + 1];
    hours += kHours;
    audits += audit_log.uids.size();
    path_stats.Add(caller.stats);
    self_us.insert(self_us.end(), caller.self_us.begin(), caller.self_us.end());
    path_mismatches += caller.mismatches;
    layers.Read(reg);

    // Crash recovery, repeated: a fresh server over the same directory,
    // to the first audit it serves.
    const UserId probe = audit_log.uids.back();
    const double live_p = live_prediction->HandleBatch({probe})[0].fraud_probability;
    for (int i = 0; i < kRecoveriesPerRound; ++i) {
      obs::MetricsRegistry rec_metrics;
      const auto r0 = Clock::now();
      server::BnServer recovered(ServerConfig(dir, &rec_metrics));
      const Status rs = recovered.Recover(dir);
      auto rec_features = MakeFeatures(recovered, data);
      server::PredictionServer rec_prediction(ServingConfig(), &recovered,
                                              rec_features.get(), model.hag.get(),
                                              &data.scaler);
      const double rec_p = rec_prediction.HandleBatch({probe})[0].fraud_probability;
      recover_s.push_back(SecondsSince(r0));
      replayed = Counter(&rec_metrics, "bn_wal_replayed_records_total");
      out->ops["recoveries"].attempted += 1;
      if (!rs.ok()) out->ops["recoveries"].failed += 1;
      out->Check(rs.ok(), "Recover: " + rs.ToString());
      if (i == 0) {
        const std::string diff = CompareServers(*live, recovered, kUsers);
        out->Check(diff.empty(), "recovered server differs: " + diff);
      }
      out->Check(rec_p == live_p,
                 StrFormat("recovered audit %.17g != live %.17g", rec_p, live_p));
    }
    round_audits.push_back(std::move(audit_log));
    round_times.push_back(std::move(times));
    ++rounds;
  }
  const double measured_s = SecondsSince(measure_start);
  out->Set("peak_rss_mb", PeakRssMb());

  // --- Verification (timers stopped) ---
  const AuditLog& first = round_audits.front();
  uint64_t bad_probs = 0;
  const uint64_t digest = Digest(first.probs);
  for (const AuditLog& a : round_audits) {
    for (double p : a.probs) bad_probs += ValidProbability(p) ? 0 : 1;
    out->Check(Digest(a.probs) == digest && a.uids == first.uids,
               "rounds served different probabilities");
  }
  out->Check(path_mismatches == 0,
             StrFormat("%llu traced-path probabilities differ from HandleBatch",
                       static_cast<unsigned long long>(path_mismatches)));
  CheckAlgorithm1(*live, logs, opt.seed, out);
  int positives = 0;
  const double auc = AucForTest(data, first.uids, first.probs, &positives);
  out->Info("check.digest", StrFormat("%016llx", static_cast<unsigned long long>(digest)));
  out->Info("input.audited_test_positives", static_cast<double>(positives));
  out->Info("rounds", static_cast<double>(rounds));
  out->Info("measured_s", measured_s);

  out->ops["audits"] = {audits, bad_probs};
  out->ops["events"] = {events, 0};
  out->ops["hours"] = {hours, 0};

  SetSetup(setup_s, prepare_s, train_s, out);
  SetReplayMetrics(starts[kHours + 1], round_times, round_audits, recover_s, out);
  out->Set("audit_auc", auc);

  const double per_round_hours = kHours;
  double ingest_us = 0.0;
  std::vector<double> checkpoint_ms;
  for (const ReplayTimes& t : round_times) {
    ingest_us += t.ingest_us;
    checkpoint_ms.insert(checkpoint_ms.end(), t.checkpoint_ms.begin(), t.checkpoint_ms.end());
  }
  out->Set("storage.ingest_us_per_event", ingest_us / events);
  out->Set("storage.wal_bytes_per_event", wal_bytes / events);
  out->Set("storage.checkpoint_ms", Percentile(checkpoint_ms, 0.5));
  out->Set("storage.checkpoint_bytes",
           checkpoint_bytes / std::max<size_t>(1, checkpoint_ms.size()));
  out->Set("storage.checkpoints_full", layers.checkpoints - layers.checkpoints_delta);
  out->Set("storage.checkpoints_delta", layers.checkpoints_delta);
  out->Set("storage.replayed_records", replayed);
  out->Set("bn.window_job_ms_per_hour", layers.window_job_ms / per_round_hours);
  out->Set("bn.publish_build_ms_per_hour", layers.publish_build_ms / per_round_hours);
  out->Set("bn.window_jobs", layers.window_jobs);
  out->Set("bn.edge_updates", layers.edge_updates);
  out->Set("bn.publish_incremental", layers.incremental);
  out->Set("bn.publish_full_rebuilds", layers.full_rebuilds);
  out->Set("bn.snapshot_bytes", layers.snapshot_bytes);
  SetPathLayers(tracer, path_stats, self_us, live_features->cache_hit_rate(), out);
  SetNoNetLayers(out);
  FinishTrace(opt, tracer, out);
  live_prediction.reset();
  live_features.reset();
  live.reset();
  fs::remove_all(root);
}

// ======================================================================
// audit_burst: the stream is bulk-loaded to day 30 during set-up; then
// each hour the writer applies one hour (checkpointing daily) and K
// closed-loop clients drain that hour's 6 batches of a fixed cyclic list
// of batch-8 HandleBatch calls over the previous 14 days' applicants,
// against that hour's snapshot, on a cold feature cache.

void RunAuditBurst(const Options& opt, RunResult* out) {
  Tracer tracer(opt.trace);
  const std::string root = RunDir(opt);
  const std::string dir = root + "/server";
  RecordMakeup(out, kBurstClients);

  std::vector<double> setup_s, prepare_s, train_s;
  Model model;
  std::unique_ptr<obs::MetricsRegistry> reg;
  std::unique_ptr<server::BnServer> bn;
  std::unique_ptr<features::FeatureStore> store;
  std::unique_ptr<server::PredictionServer> prediction;
  const int start_hour = static_cast<int>(kBurstStart / kHour);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = rep == 0 ? kProcessStart : Clock::now();
    prediction.reset();
    store.reset();
    bn.reset();
    fs::remove_all(root);
    model = Model();
    model = BuildModel();
    const BehaviorLogList& logs = model.data->dataset.logs;
    reg = std::make_unique<obs::MetricsRegistry>();
    bn = std::make_unique<server::BnServer>(ServerConfig(dir, reg.get()));
    const size_t loaded = HourStarts(logs, start_hour)[start_hour + 1];
    bn->IngestBatch(BehaviorLogList(logs.begin(), logs.begin() + loaded));
    bn->AdvanceTo(kBurstStart);
    const Status s = bn->Checkpoint(dir);
    TURBO_CHECK_MSG(s.ok(), s.ToString());
    store = MakeFeatures(*bn, *model.data);
    prediction = std::make_unique<server::PredictionServer>(
        ServingConfig(), bn.get(), store.get(), model.hag.get(),
        &model.data->scaler);
    setup_s.push_back(SecondsSince(t0));
    prepare_s.push_back(model.prepare_s);
    train_s.push_back(model.train_s);
  }
  const core::PreparedData& data = *model.data;
  const BehaviorLogList& logs = data.dataset.logs;
  const std::vector<size_t> starts = HourStarts(logs, kHours);

  // The fixed batch list: recent applicants in seeded order.
  std::vector<UserId> recent;
  for (const auto& u : data.dataset.users) {
    if (u.application_time > kBurstStart - kBurstRecent &&
        u.application_time <= kBurstStart) {
      recent.push_back(u.uid);
    }
  }
  Rng rng(MixSeeds(opt.seed, 0xb0b));
  rng.Shuffle(&recent);
  std::vector<std::vector<UserId>> batches;
  for (size_t i = 0; i + kBurstBatch <= recent.size(); i += kBurstBatch) {
    batches.emplace_back(recent.begin() + i, recent.begin() + i + kBurstBatch);
  }
  out->Info("input.logs", static_cast<double>(logs.size()));
  out->Info("input.batch_list", static_cast<double>(batches.size()));
  out->Info("input.batches_per_hour", static_cast<double>(kBurstBatchesPerHour));
  out->Info("input.batch_size", static_cast<double>(kBurstBatch));

  // Closed-loop clients: each hour they drain that hour's batches, then
  // park.
  std::vector<AuditCaller> callers;
  for (int c = 0; c < kBurstClients; ++c) {
    callers.emplace_back(prediction.get(),
                         ServingRefs{bn.get(), store.get(), &data.scaler, model.hag.get()},
                         &tracer, 8);
  }
  std::vector<std::vector<double>> latency_ms(kBurstClients);
  // This hour's batches (indices into `batches`) and their results; the
  // clients read and write them only between the hour's hand-off and
  // their `finished` report, both under `mu`.
  std::vector<size_t> hour_batches(kBurstBatchesPerHour);
  std::vector<std::vector<double>> hour_probs(kBurstBatchesPerHour);
  std::mutex mu;
  std::condition_variable cv;
  int generation = 0, finished = 0;  // guarded by mu
  bool stop = false;                 // guarded by mu
  uint64_t hour_key = 0;             // guarded by mu
  std::atomic<size_t> next_slot{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kBurstClients; ++c) {
    clients.emplace_back([&, c] {
      int seen = 0;
      for (;;) {
        uint64_t key_base = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return generation > seen || stop; });
          if (stop) return;
          seen = generation;
          key_base = hour_key * kBurstBatchesPerHour;
        }
        for (size_t j; (j = next_slot.fetch_add(1)) < hour_batches.size();) {
          const auto t0 = Clock::now();
          hour_probs[j] = callers[c].Call(batches[hour_batches[j]], key_base + j);
          latency_ms[c].push_back(SecondsSince(t0) * 1e3);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++finished;
        }
        cv.notify_all();
      }
    });
  }

  // Set-up's bulk catch-up is in the registry too; the per-layer counts
  // cover the measured hours only.
  ServerLayers before;
  before.Read(reg.get());
  std::vector<double> publish_ms, checkpoint_ms;
  // The first probabilities served for each batch of the list.
  std::vector<std::vector<double>> first_probs(batches.size());
  uint64_t events = 0, calls = 0, bad_probs = 0;
  double writer_s = 0.0, audit_s = 0.0, ingest_us = 0.0;
  double wal_bytes = 0.0, checkpoint_bytes = 0.0, replayed = 0.0;
  const std::string rec_dir = root + "/recovered";
  const UserId probe = batches.front().front();
  std::vector<double> recover_s;
  std::unique_ptr<obs::MetricsRegistry> rec_metrics;
  std::unique_ptr<server::BnServer> recovered;
  size_t cursor = 0;
  int hours = 0;
  const auto measure_start = Clock::now();
  // Whole days (the last one ends at midnight, 12 hours after the last
  // checkpoint), at least 1,000 hours, at most to the stream's end.
  auto finished_run = [&] {
    if (start_hour + hours >= kHours) return true;
    return hours >= kMinHours && SecondsSince(measure_start) >= opt.seconds &&
           (start_hour + hours) % 24 == 0;
  };
  while (!finished_run()) {
    const int h = start_hour + hours + 1;
    {
      Tracer::Scope hour(&tracer, "writer.hour", 0, h);
      const auto w0 = Clock::now();
      {
        Tracer::Scope span(&tracer, "storage.ingest", hour.id(), h);
        bn->IngestBatch(BehaviorLogList(logs.begin() + starts[h],
                                        logs.begin() + starts[h + 1]));
        ingest_us += SecondsSince(w0) * 1e6;
      }
      {
        Tracer::Scope span(&tracer, "bn.advance", hour.id(), h);
        const auto a0 = Clock::now();
        bn->AdvanceTo(h * kHour);
        publish_ms.push_back(SecondsSince(a0) * 1e3);
      }
      if (h % 24 == kCheckpointHour) {
        Tracer::Scope span(&tracer, "storage.checkpoint", hour.id(), h);
        wal_bytes += Gauge(reg.get(), "bn_wal_bytes");  // before rotation
        const auto c0 = Clock::now();
        const Status s = bn->Checkpoint(dir);
        TURBO_CHECK_MSG(s.ok(), s.ToString());
        checkpoint_ms.push_back(SecondsSince(c0) * 1e3);
        checkpoint_bytes += Gauge(reg.get(), "bn_checkpoint_bytes");
      }
      writer_s += SecondsSince(w0);
    }
    events += starts[h + 1] - starts[h];
    const auto p0 = Clock::now();
    {
      std::unique_lock<std::mutex> lock(mu);
      for (size_t& b : hour_batches) b = cursor++ % batches.size();
      next_slot = 0;
      hour_key = static_cast<uint64_t>(hours);
      finished = 0;
      ++generation;
      cv.notify_all();
      cv.wait(lock, [&] { return finished == kBurstClients; });
    }
    audit_s += SecondsSince(p0);
    calls += hour_batches.size();
    for (size_t j = 0; j < hour_batches.size(); ++j) {
      for (double p : hour_probs[j]) bad_probs += ValidProbability(p) ? 0 : 1;
      if (first_probs[hour_batches[j]].empty()) first_probs[hour_batches[j]] = hour_probs[j];
    }
    ++hours;
    if (h % 24 == 0) {
      // Crash recovery of a copy of the directory (the live writer keeps
      // its own), to the first audit served; the copy is not timed.
      fs::remove_all(rec_dir);
      fs::copy(dir, rec_dir, fs::copy_options::recursive);
      recovered.reset();
      rec_metrics = std::make_unique<obs::MetricsRegistry>();
      const auto r0 = Clock::now();
      recovered = std::make_unique<server::BnServer>(
          ServerConfig(rec_dir, rec_metrics.get()));
      const Status rs = recovered->Recover(rec_dir);
      auto rec_store = MakeFeatures(*recovered, data);
      server::PredictionServer rec_prediction(ServingConfig(), recovered.get(),
                                              rec_store.get(), model.hag.get(),
                                              &data.scaler);
      const double rec_p = rec_prediction.HandleBatch({probe})[0].fraud_probability;
      recover_s.push_back(SecondsSince(r0));
      replayed += Counter(rec_metrics.get(), "bn_wal_replayed_records_total");
      out->ops["recoveries"].attempted += 1;
      if (!rs.ok()) out->ops["recoveries"].failed += 1;
      out->Check(rs.ok(), "Recover: " + rs.ToString());
      const double live_p = prediction->HandleBatch({probe})[0].fraud_probability;
      out->Check(rec_p == live_p,
                 StrFormat("recovered audit %.17g != live %.17g", rec_p, live_p));
    }
  }
  wal_bytes += Gauge(reg.get(), "bn_wal_bytes");
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  for (auto& t : clients) t.join();

  const double measured_s = SecondsSince(measure_start);
  out->Set("peak_rss_mb", PeakRssMb());

  // --- Verification (timers stopped) ---
  // The run ended at midnight, so the last recovery saw its final state.
  const std::string diff = CompareServers(*bn, *recovered, kUsers);
  out->Check(diff.empty(), "recovered server differs: " + diff);
  // The last hour again, one thread: identical to what K clients served.
  uint64_t thread_mismatch = 0;
  for (size_t j = 0; j < hour_batches.size(); ++j) {
    const auto resp = prediction->HandleBatch(batches[hour_batches[j]]);
    for (size_t i = 0; i < resp.size(); ++i) {
      if (resp[i].fraud_probability != hour_probs[j][i]) ++thread_mismatch;
    }
  }
  out->Check(thread_mismatch == 0,
             StrFormat("%llu probabilities differ between K clients and one",
                       static_cast<unsigned long long>(thread_mismatch)));
  // Tape-free vs autograd forward, tolerance of the inference
  // equivalence test.
  const ServingRefs refs{bn.get(), store.get(), &data.scaler, model.hag.get()};
  double max_diff = 0.0;
  for (size_t j = 0; j < hour_batches.size(); ++j) {
    const auto ag = AutogradPredict(refs, batches[hour_batches[j]]);
    for (size_t i = 0; i < ag.size(); ++i) {
      max_diff = std::max(max_diff, std::fabs(ag[i] - hour_probs[j][i]));
    }
  }
  out->Info("check.autograd_max_abs_diff", max_diff);
  out->Check(max_diff <= 1e-6, StrFormat("tape-free vs autograd: %.3g", max_diff));
  uint64_t path_mismatches = 0;
  PathStats path_stats;
  std::vector<double> self_us;
  for (const AuditCaller& c : callers) {
    path_mismatches += c.mismatches;
    path_stats.Add(c.stats);
    self_us.insert(self_us.end(), c.self_us.begin(), c.self_us.end());
  }
  out->Check(path_mismatches == 0,
             StrFormat("%llu traced-path probabilities differ from HandleBatch",
                       static_cast<unsigned long long>(path_mismatches)));
  // AUC and digest over the first pass through the list.
  std::vector<UserId> first_uids;
  std::vector<double> first_pass;
  for (size_t b = 0; b < batches.size(); ++b) {
    first_uids.insert(first_uids.end(), batches[b].begin(), batches[b].end());
    first_pass.insert(first_pass.end(), first_probs[b].begin(), first_probs[b].end());
  }
  int positives = 0;
  const double auc = AucForTest(data, first_uids, first_pass, &positives);
  out->Info("check.first_pass_digest",
            StrFormat("%016llx", static_cast<unsigned long long>(Digest(first_pass))));
  out->Info("input.audited_test_positives", static_cast<double>(positives));
  out->Info("hours", static_cast<double>(hours));
  out->Info("measured_s", measured_s);

  const uint64_t audits = calls * kBurstBatch;
  out->ops["audits"] = {audits, bad_probs};
  out->ops["events"] = {events, 0};
  out->ops["hours"] = {static_cast<uint64_t>(hours), 0};

  std::vector<double> all_latency;
  for (const auto& l : latency_ms) all_latency.insert(all_latency.end(), l.begin(), l.end());
  SetSetup(setup_s, prepare_s, train_s, out);
  // Like the replays: per second of the whole hourly loop, audit phases
  // included (the short writer phases alone swung 30% between runs).
  out->Set("ingest_events_per_s", events / (writer_s + audit_s));
  out->Set("publish_p50_ms", Percentile(publish_ms, 0.5));
  out->Set("publish_p99_ms", Percentile(publish_ms, 0.99));
  out->Set("audit_rps", audits / audit_s);
  out->Set("audit_p50_ms", Percentile(all_latency, 0.5));
  out->Set("audit_p99_ms", Percentile(all_latency, 0.99));
  out->Set("audit_auc", auc);
  out->Set("recover_s", Median(recover_s));

  ServerLayers layers;
  layers.Read(reg.get());
  layers.Subtract(before);
  out->Set("storage.ingest_us_per_event", ingest_us / std::max<uint64_t>(1, events));
  out->Set("storage.wal_bytes_per_event", wal_bytes / std::max<uint64_t>(1, events));
  out->Set("storage.checkpoint_ms", Percentile(checkpoint_ms, 0.5));
  out->Set("storage.checkpoint_bytes",
           checkpoint_bytes / std::max<size_t>(1, checkpoint_ms.size()));
  out->Set("storage.checkpoints_full", layers.checkpoints - layers.checkpoints_delta);
  out->Set("storage.checkpoints_delta", layers.checkpoints_delta);
  out->Set("storage.replayed_records", replayed / std::max<size_t>(1, recover_s.size()));
  out->Set("bn.window_job_ms_per_hour", layers.window_job_ms / std::max(1, hours));
  out->Set("bn.publish_build_ms_per_hour", layers.publish_build_ms / std::max(1, hours));
  out->Set("bn.window_jobs", layers.window_jobs);
  out->Set("bn.edge_updates", layers.edge_updates);
  out->Set("bn.publish_incremental", layers.incremental);
  out->Set("bn.publish_full_rebuilds", layers.full_rebuilds);
  out->Set("bn.snapshot_bytes", layers.snapshot_bytes);
  SetPathLayers(tracer, path_stats, self_us, store->cache_hit_rate(), out);
  SetNoNetLayers(out);
  FinishTrace(opt, tracer, out);
  fs::remove_all(root);
}

// ======================================================================
// socket_cluster: a two-shard BnCluster in handle mode over loopback.
// Each round restores both shards from the warm-start checkpoint,
// replays 480 hours with one writer thread and one audit thread (4
// connections: 2 writer, 2 audit), then stops the services, restarts
// them over the same directories and recovers over RPC.

namespace {

/// Times the socket calls the cluster makes through a shard.
class TimedShardHandle final : public server::ShardHandle {
 public:
  TimedShardHandle(std::unique_ptr<net::RemoteShardClient> client,
                   Tracer* tracer, const std::atomic<uint64_t>* parent)
      : client_(std::move(client)), tracer_(tracer), parent_(parent) {}

  void Ingest(const BehaviorLog& log) override {
    if (!tracer_->enabled()) return client_->Ingest(log);
    const auto t0 = Clock::now();
    client_->Ingest(log);
    ingest_us_ += SecondsSince(t0) * 1e6;
    ++ingest_calls_;
  }
  bool OfferIngest(const BehaviorLog& log) override { return client_->OfferIngest(log); }
  size_t DrainIngest(size_t max_events) override { return client_->DrainIngest(max_events); }
  size_t ingest_queue_depth() override { return client_->ingest_queue_depth(); }
  void AdvanceTo(SimTime now) override {
    Tracer::Scope span(tracer_, "net.advance_rpc", parent_->load(), now / kHour);
    client_->AdvanceTo(now);
  }
  Status Checkpoint() override { return client_->Checkpoint(); }
  Status Recover() override { return client_->Recover(); }
  bn::Subgraph SampleSubgraph(UserId uid) override { return client_->SampleSubgraph(uid); }
  uint64_t snapshot_version() override { return client_->snapshot_version(); }
  SimTime now() override { return client_->now(); }
  uint64_t TotalEdges() override { return client_->TotalEdges(); }

  double ingest_us() const { return ingest_us_; }
  uint64_t ingest_calls() const { return ingest_calls_; }

 private:
  std::unique_ptr<net::RemoteShardClient> client_;
  Tracer* tracer_;
  const std::atomic<uint64_t>* parent_;
  double ingest_us_ = 0.0;
  uint64_t ingest_calls_ = 0;
};

/// The shards as separate processes would hold them, plus the router
/// process's clients. Metrics registries outlive the rig.
struct SocketRig {
  std::vector<std::unique_ptr<obs::MetricsRegistry>> shard_metrics;
  std::vector<std::unique_ptr<server::BnServer>> backing;
  std::vector<std::unique_ptr<features::FeatureStore>> stores;
  std::vector<std::unique_ptr<server::PredictionServer>> predictions;
  std::vector<std::unique_ptr<net::ShardService>> services;
  std::vector<TimedShardHandle*> handles;  // owned by `cluster`
  std::unique_ptr<server::BnCluster> cluster;
  std::vector<std::unique_ptr<net::RemoteShardClient>> audit_clients;

  void StopServices() {
    for (auto& s : services) s->Stop();
  }
  ~SocketRig() {
    cluster.reset();
    audit_clients.clear();
    StopServices();
  }
};

/// Restricts the calling thread to one CPU, the last it may run on;
/// threads it starts afterwards inherit the restriction. Returns the
/// thread's previous CPU set.
cpu_set_t PinToOneCpu(int* cpu) {
  cpu_set_t before;
  CPU_ZERO(&before);
  TURBO_CHECK_MSG(sched_getaffinity(0, sizeof(before), &before) == 0, "sched_getaffinity");
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &before)) *cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(*cpu, &one);
  TURBO_CHECK_MSG(sched_setaffinity(0, sizeof(one), &one) == 0, "sched_setaffinity");
  return before;
}

struct SocketRegistries {
  obs::MetricsRegistry writer;   // writer-side RPC clients
  obs::MetricsRegistry audit;    // Predict clients
  obs::MetricsRegistry cluster;  // bn_cluster_*
};

std::unique_ptr<SocketRig> StartRig(const std::string& root, const Model& model,
                                    SocketRegistries* regs, Tracer* tracer,
                                    const std::atomic<uint64_t>* parent) {
  auto rig = std::make_unique<SocketRig>();
  const server::BnServerConfig tmpl = ServerConfig("", nullptr);
  bn::ShardTopology topology = tmpl.bn.topology;
  topology.shard_count = kSocketShards;
  const server::ShardRouter router(topology);
  std::vector<std::unique_ptr<server::ShardHandle>> handles;
  for (int i = 0; i < kSocketShards; ++i) {
    server::BnServerConfig cfg = tmpl;
    cfg.bn.topology = router.TopologyForShard(i);
    cfg.wal_dir = server::BnCluster::ShardDir(root, i);
    rig->shard_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
    cfg.metrics = rig->shard_metrics.back().get();
    rig->backing.push_back(std::make_unique<server::BnServer>(cfg));
    rig->stores.push_back(MakeFeatures(*rig->backing.back(), *model.data));
    server::PredictionConfig pcfg = ServingConfig();
    pcfg.shard_tag = static_cast<uint32_t>(i);
    rig->predictions.push_back(std::make_unique<server::PredictionServer>(
        pcfg, rig->backing.back().get(), rig->stores.back().get(),
        model.hag.get(), &model.data->scaler));
    net::ShardServiceConfig scfg;
    scfg.endpoint.port = 0;
    scfg.shard_dir = cfg.wal_dir;
    auto service = net::ShardService::Start(scfg, rig->backing.back().get(),
                                            rig->predictions.back().get());
    TURBO_CHECK_MSG(service.ok(), service.status().ToString());
    rig->services.push_back(service.take());

    net::RemoteShardConfig wcfg;
    wcfg.endpoint = rig->services.back()->endpoint();
    wcfg.rpc.metrics = &regs->writer;
    auto handle = std::make_unique<TimedShardHandle>(
        std::make_unique<net::RemoteShardClient>(wcfg), tracer, parent);
    rig->handles.push_back(handle.get());
    handles.push_back(std::move(handle));
    net::RemoteShardConfig acfg;
    acfg.endpoint = rig->services.back()->endpoint();
    acfg.rpc.metrics = &regs->audit;
    rig->audit_clients.push_back(std::make_unique<net::RemoteShardClient>(acfg));
  }
  server::BnClusterConfig ccfg;
  ccfg.shard = tmpl;
  ccfg.advance_threads = kAdvanceThreads;
  ccfg.metrics = &regs->cluster;
  rig->cluster = std::make_unique<server::BnCluster>(ccfg, std::move(handles));
  return rig;
}

}  // namespace

void RunSocketCluster(const Options& opt, RunResult* out) {
  Tracer tracer(opt.trace);
  const std::string root = RunDir(opt);
  const std::string warm = root + "/warm";
  RecordMakeup(out, 1);
  out->Info("threads.advance", std::to_string(kAdvanceThreads));
  out->Info("connections", std::to_string(2 * kSocketShards));

  std::vector<double> setup_s, prepare_s, train_s;
  Model model;
  const int warm_hour = static_cast<int>(kSocketWarm / kHour);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = rep == 0 ? kProcessStart : Clock::now();
    fs::remove_all(root);
    model = Model();
    model = BuildModel();
    const BehaviorLogList& logs = model.data->dataset.logs;
    server::BnClusterConfig ccfg;
    ccfg.shard = ServerConfig("", nullptr);
    ccfg.num_shards = kSocketShards;
    ccfg.wal_root = warm;
    ccfg.advance_threads = kAdvanceThreads;
    server::BnCluster local(ccfg);
    local.IngestBatch(BehaviorLogList(
        logs.begin(), logs.begin() + HourStarts(logs, warm_hour)[warm_hour + 1]));
    local.AdvanceTo(kSocketWarm);
    const Status s = local.Checkpoint();
    TURBO_CHECK_MSG(s.ok(), s.ToString());
    setup_s.push_back(SecondsSince(t0));
    prepare_s.push_back(model.prepare_s);
    train_s.push_back(model.train_s);
  }
  const core::PreparedData& data = *model.data;
  const BehaviorLogList& logs = data.dataset.logs;
  const std::vector<size_t> starts = HourStarts(logs, kHours);
  // Segment hours are numbered 1..kSocketHours after the warm start; the
  // seed only permutes the audits within each hour.
  const auto full_schedule = AuditSchedule(data.dataset, kHours);
  std::vector<std::vector<UserId>> schedule(kSocketHours + 1);
  Rng order_rng(MixSeeds(opt.seed, 0x50c));
  for (int h = 1; h <= kSocketHours; ++h) {
    schedule[h] = full_schedule[warm_hour + h];
    order_rng.Shuffle(&schedule[h]);
  }
  const uint64_t segment_events = starts[warm_hour + kSocketHours + 1] - starts[warm_hour + 1];
  out->Info("input.logs", static_cast<double>(logs.size()));
  out->Info("input.segment_events", static_cast<double>(segment_events));

  SocketRegistries regs;
  std::atomic<uint64_t> advance_parent{0};
  std::vector<ReplayTimes> round_times;
  std::vector<AuditLog> round_audits;
  std::vector<double> recover_s, predict_us;
  double ingest_rpc_us = 0.0, ingest_rpc_calls = 0.0, replayed = 0.0;
  uint64_t events = 0, hours = 0, audits = 0, transport_failed = 0;
  std::unique_ptr<SocketRig> last_rig;
  int rounds = 0;
  // The rounds run on one vCPU: the writer, the audit thread and every
  // service thread the rigs start. Spread over vCPUs, each RPC woke a
  // thread on another, often halted, vCPU, and the hypervisor's wake-up
  // set the call's cost and followed the host's load: ten runs fell into
  // a fast and a slow group, and publish latency spread 37-46% over them.
  // On one vCPU a round trip is two local context switches; in
  // alternating pairs, pinned runs were 1.7x faster at ingest and 2x at
  // audit p50.
  int cpu = -1;
  const cpu_set_t unpinned = PinToOneCpu(&cpu);
  out->Info("threads.socket_cpu", std::to_string(cpu));
  const auto measure_start = Clock::now();
  while (rounds < kMinRounds || SecondsSince(measure_start) < opt.seconds ||
         hours < kMinHours || audits < kMinAudits) {
    const std::string dir = StrFormat("%s/round-%d", root.c_str(), rounds);
    last_rig.reset();
    if (rounds > 0) fs::remove_all(StrFormat("%s/round-%d", root.c_str(), rounds - 1));
    fs::copy(warm, dir, fs::copy_options::recursive);
    auto rig = StartRig(dir, model, &regs, &tracer, &advance_parent);
    const Status rs0 = rig->cluster->Recover();
    TURBO_CHECK_MSG(rs0.ok(), rs0.ToString());
    server::BnCluster* cluster = rig->cluster.get();
    SocketRig* r = rig.get();
    AuditLog audit_log;
    ReplayTimes times;
    HourlyReplay(
        kSocketHours, schedule, &tracer,
        [&](int h) {
          const int g = warm_hour + h;
          cluster->IngestBatch(BehaviorLogList(logs.begin() + starts[g],
                                               logs.begin() + starts[g + 1]));
        },
        [&](int h, uint64_t span_id) {
          advance_parent = span_id;
          cluster->AdvanceTo((warm_hour + h) * kHour);
        },
        [&](int) {
          const Status s = cluster->Checkpoint();
          TURBO_CHECK_MSG(s.ok(), s.ToString());
        },
        [&](UserId uid, uint64_t key) {
          const int owner = cluster->router().OwnerOfUser(uid);
          Tracer::Scope span(&tracer, "net.predict_rpc", 0, key);
          const auto t0 = Clock::now();
          auto resp = r->audit_clients[owner]->Predict(uid);
          predict_us.push_back(SecondsSince(t0) * 1e6);
          if (!resp.ok()) {
            ++transport_failed;
            return std::nan("");
          }
          return resp.value().fraud_probability;
        },
        &times, &audit_log);
    events += segment_events;
    hours += kSocketHours;
    audits += audit_log.uids.size();
    for (TimedShardHandle* h : rig->handles) {
      ingest_rpc_us += h->ingest_us();
      ingest_rpc_calls += h->ingest_calls();
    }

    // Restart: stop the services, bring fresh shards up over the same
    // directories and recover them over RPC, to the first audit served.
    rig->StopServices();
    const UserId probe = audit_log.uids.back();
    const int owner = rig->cluster->router().OwnerOfUser(probe);
    const auto r0 = Clock::now();
    auto restarted = StartRig(dir, model, &regs, &tracer, &advance_parent);
    const Status rs = restarted->cluster->Recover();
    auto probe_resp = restarted->audit_clients[owner]->Predict(probe);
    recover_s.push_back(SecondsSince(r0));
    out->ops["recoveries"].attempted += 1;
    if (!rs.ok() || !probe_resp.ok()) out->ops["recoveries"].failed += 1;
    out->Check(rs.ok(), "cluster Recover: " + rs.ToString());
    replayed = 0.0;
    for (int i = 0; i < kSocketShards; ++i) {
      replayed += Counter(restarted->shard_metrics[i].get(),
                          "bn_wal_replayed_records_total");
      const std::string diff =
          CompareServers(*rig->backing[i], *restarted->backing[i], kUsers);
      out->Check(diff.empty(), StrFormat("shard %d after restart: %s", i, diff.c_str()));
    }
    const double live_p = rig->predictions[owner]->Handle(probe).fraud_probability;
    out->Check(probe_resp.ok() && probe_resp.value().fraud_probability == live_p,
               "recovered shard's audit differs from the live shard's");
    round_audits.push_back(std::move(audit_log));
    round_times.push_back(std::move(times));
    rig.reset();
    last_rig = std::move(restarted);
    ++rounds;
  }
  const double measured_s = SecondsSince(measure_start);
  sched_setaffinity(0, sizeof(unpinned), &unpinned);
  out->Set("peak_rss_mb", PeakRssMb());

  // --- Verification (timers stopped) ---
  // A single server over the same logs, same schedule, same audits.
  server::BnServer single(ServerConfig("", nullptr));
  single.IngestBatch(BehaviorLogList(logs.begin(), logs.begin() + starts[warm_hour + 1]));
  single.AdvanceTo(kSocketWarm);
  auto single_store = MakeFeatures(single, data);
  server::PredictionServer single_prediction(ServingConfig(), &single,
                                             single_store.get(), model.hag.get(),
                                             &data.scaler);
  std::vector<double> reference;
  for (int h = 1; h <= kSocketHours; ++h) {
    const int g = warm_hour + h;
    single.IngestBatch(BehaviorLogList(logs.begin() + starts[g], logs.begin() + starts[g + 1]));
    single.AdvanceTo(g * kHour);
    for (UserId uid : schedule[h]) {
      reference.push_back(single_prediction.Handle(uid).fraud_probability);
    }
  }
  uint64_t mismatched = 0, first_round_mismatched = 0, bad_probs = 0;
  for (size_t r = 0; r < round_audits.size(); ++r) {
    const AuditLog& a = round_audits[r];
    out->Check(a.probs.size() == reference.size(), "audit count differs from reference");
    uint64_t m = 0;
    for (size_t i = 0; i < a.probs.size() && i < reference.size(); ++i) {
      if (!ValidProbability(a.probs[i])) {
        ++bad_probs;
      } else if (a.probs[i] != reference[i]) {
        ++m;
      }
    }
    if (r == 0) first_round_mismatched = m;
    out->Check(m == first_round_mismatched, "rounds differ in mismatched audits");
    mismatched += m;
  }
  // Per-edge weights summed over the shards equal the single server's.
  uint64_t weight_bad = 0, single_edges = 0;
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
      for (const auto& [v, e] : single.edges().Neighbors(t, u)) {
        ++single_edges;
        double sum = 0.0;
        for (const auto& shard : last_rig->backing) {
          const auto& row = shard->edges().Neighbors(t, u);
          auto it = row.find(v);
          if (it != row.end()) sum += it->second.weight;
        }
        if (sum != e.weight) ++weight_bad;
      }
      for (const auto& shard : last_rig->backing) {
        for (const auto& [v, e] : shard->edges().Neighbors(t, u)) {
          if (single.edges().Neighbors(t, u).count(v) == 0) ++weight_bad;
        }
      }
    }
  }
  out->Info("check.single_server_edges", static_cast<double>(single_edges));
  out->Check(weight_bad == 0,
             StrFormat("%llu edge weights differ between shards and one server",
                       static_cast<unsigned long long>(weight_bad)));
  int positives = 0;
  const AuditLog& first = round_audits.front();
  const double auc = AucForTest(data, first.uids, first.probs, &positives);
  out->Info("check.partial_graph_audits_per_round", static_cast<double>(first_round_mismatched));
  out->Info("input.audited_test_positives", static_cast<double>(positives));
  out->Info("rounds", static_cast<double>(rounds));
  out->Info("measured_s", measured_s);

  out->ops["audits"] = {audits, mismatched + bad_probs};
  out->ops["events"] = {events, 0};
  out->ops["hours"] = {hours, 0};

  SetSetup(setup_s, prepare_s, train_s, out);
  SetReplayMetrics(segment_events, round_times, round_audits, recover_s, out);
  out->Set("audit_auc", auc);

  ServerLayers layers;
  for (int i = 0; i < kSocketShards; ++i) {
    ServerLayers s;
    s.Read(last_rig->shard_metrics[i].get());
    layers.snapshot_bytes += s.snapshot_bytes;
  }
  out->Set("storage.ingest_us_per_event", 0.0);
  out->Set("storage.wal_bytes_per_event", 0.0);
  std::vector<double> checkpoint_ms;
  for (const ReplayTimes& t : round_times) {
    checkpoint_ms.insert(checkpoint_ms.end(), t.checkpoint_ms.begin(), t.checkpoint_ms.end());
  }
  out->Set("storage.checkpoint_ms", Percentile(checkpoint_ms, 0.5));
  out->Set("storage.checkpoint_bytes", 0.0);
  out->Set("storage.checkpoints_full", 0.0);
  out->Set("storage.checkpoints_delta", 0.0);
  out->Set("storage.replayed_records", replayed);
  for (const char* name :
       {"bn.window_job_ms_per_hour", "bn.publish_build_ms_per_hour", "bn.window_jobs",
        "bn.edge_updates", "bn.publish_incremental", "bn.publish_full_rebuilds"}) {
    out->Set(name, 0.0);
  }
  out->Set("bn.snapshot_bytes", layers.snapshot_bytes);
  SetPathLayers(tracer, PathStats{}, {}, 0.0, out);
  const double ev = static_cast<double>(std::max<uint64_t>(1, events));
  out->Set("server.forwarded_per_event",
           Counter(&regs.cluster, "bn_cluster_forwarded_total") / ev);
  out->Set("net.ingest_rpc_us", ingest_rpc_us / std::max(1.0, ingest_rpc_calls));
  out->Set("net.advance_rpc_ms", Percentile(tracer.Durations("net.advance_rpc"), 0.5) / 1e3);
  out->Set("net.predict_rpc_us", Percentile(predict_us, 0.5));
  out->Set("net.rpcs_per_event",
           static_cast<double>(regs.writer.GetHistogram("net_rpc_latency_ms")->count()) / ev);
  out->Set("net.bytes_per_event", (Counter(&regs.writer, "net_bytes_sent_total") +
                                   Counter(&regs.writer, "net_bytes_received_total")) / ev);
  out->Set("net.retries", Counter(&regs.writer, "net_reconnects_total") +
                              Counter(&regs.writer, "net_rpc_errors_total") +
                              Counter(&regs.audit, "net_reconnects_total") +
                              Counter(&regs.audit, "net_rpc_errors_total") +
                              static_cast<double>(transport_failed));
  FinishTrace(opt, tracer, out);
  last_rig.reset();
  fs::remove_all(root);
}

}  // namespace e2e
