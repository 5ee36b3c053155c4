// Shared declarations of the end-to-end benchmark: run options and
// results, the span tracer, the independent references, and the three
// workloads. Everything here drives the program through its public API.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/turbo.h"
#include "features/feature_store.h"
#include "server/bn_server.h"
#include "server/prediction_server.h"

namespace e2e {

using namespace turbo;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// WAL directories, the run record and the span file go here
  /// (relative to the repository root the benchmark runs from).
  std::string out_dir = ".bench_run";
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything one run reports. `correct` turns false on the first failed
/// output check; per-operation failures go to `ops` instead.
struct RunResult {
  bool correct = true;
  std::vector<std::string> check_failures;
  std::map<std::string, OpCount> ops;  // audits, events, hours, recoveries
  /// Metric values by name; main.cc owns the names, units and order.
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
};

// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each module, kept in
// memory and written out when the run ends.

struct Span {
  std::string name;  // "<layer>.<call>"
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t key = 0;     // request id (audits) or hour index (writer)
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  /// Microseconds since the tracer was created.
  double NowUs() const;

  /// A span that records itself when stopped or destroyed. Inert (no
  /// clock reads, id 0) when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t parent, uint64_t key);
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }
    /// Records the span (once); returns its duration in microseconds.
    double Stop();

   private:
    Tracer* tracer_;
    const char* name_;
    uint64_t parent_;
    uint64_t key_;
    uint64_t id_ = 0;
    double start_us_ = 0.0;
    double duration_us_ = 0.0;
    bool stopped_ = false;
  };

  /// Durations (us) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  double TotalUs(const std::string& name) const;
  /// Per-layer span count, total and self time (ms). Self time is a
  /// span's duration minus the time its child spans cover.
  struct LayerTime {
    uint64_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, LayerTime> ByLayer() const;
  /// One JSON object per span.
  bool WriteJsonl(const std::string& path) const;
  size_t size() const;

 private:
  void Record(Span span);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------
// Independent references (reference.cc).

/// Algorithm 1 computed apart from the program: inverse 1/N weights over
/// hierarchical windows, daily TTL sweeps, for the edges incident to
/// `users`. Valid for a server that ingested `logs` hour by hour from
/// time 0 and last advanced to `now`. CHECK-fails if any bucket it reads
/// holds more than `max_bucket_users` users (the program would then
/// subsample it).
struct RefEdge {
  int edge_type;
  UserId u;
  UserId v;
  double weight;
  SimTime last_update;
};
std::vector<RefEdge> ReferenceEdges(const BehaviorLogList& logs,
                                    const std::vector<SimTime>& windows,
                                    SimTime ttl, int max_bucket_users,
                                    SimTime now,
                                    const std::vector<UserId>& users,
                                    int* max_bucket_seen);

/// ROC-AUC by counting (positive, negative) pairs: ties count one half.
double PairCountAuc(const std::vector<double>& scores,
                    const std::vector<int>& labels);

/// Hand-worked checks of both references (Fig. 3 toy weights, a
/// hand-counted AUC list). Returns an empty string on success.
std::string SelfCheckReferences();

/// Compares two servers' full mutable state bit for bit: clock, job
/// count, log count, every edge (weight and stamp) and the published
/// snapshot. Returns an empty string when identical.
std::string CompareServers(const server::BnServer& a,
                           const server::BnServer& b, int num_users);

// ---------------------------------------------------------------------
// Shared helpers (ledger.cc).

double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double PeakRssMb();
int Nproc();
/// FNV-1a over the bit patterns of `probs`.
uint64_t Digest(const std::vector<double>& probs);

/// The per-layer table printed by traced runs, from the tracer.
void PrintLayerTable(const Tracer& tracer);

// ---------------------------------------------------------------------
// Workloads (workloads.cc).

void RunStreamReplay(const Options& opt, RunResult* out);
void RunAuditBurst(const Options& opt, RunResult* out);
void RunSocketCluster(const Options& opt, RunResult* out);

}  // namespace e2e
