// Virtual latency accounting for the storage comparison in Section V.
//
// The paper's 6.8s -> 0.8s optimization is a property of *how many rows*
// each serving request touches in a networked RDBMS versus an in-memory
// cache. Rather than sleeping to emulate a MySQL round-trip, every storage
// access charges its modeled cost to a SimClock; benches then report the
// accumulated virtual latency per request. Real wall-clock time of the
// compute stages (sampling, feature math, HAG forward) is measured
// separately with util/time_util.h Stopwatch.
#pragma once

#include <cstdint>
#include <string>

namespace turbo::storage {

/// Per-operation cost parameters of a storage medium, in microseconds.
struct MediumCost {
  double query_overhead_us = 0.0;  // per-query fixed cost (network + parse)
  double per_row_us = 0.0;         // per returned/scanned row

  /// A MySQL-like networked relational store: ~0.5 ms query overhead,
  /// ~8 us per row streamed back. Matches the paper's observed multi-second
  /// latency when statistical features scan thousands of raw log rows.
  static constexpr MediumCost NetworkedSql() { return {500.0, 8.0}; }
  /// A Redis-like in-memory cache reached over loopback: ~50 us per
  /// command, ~0.2 us per row/field.
  static constexpr MediumCost InMemoryCache() { return {50.0, 0.2}; }
  /// Free (used by unit tests that don't care about latency accounting).
  static MediumCost Free() { return {0.0, 0.0}; }
};

/// Accumulates modeled storage latency. Not thread-safe by design — each
/// simulated request owns its own accounting scope.
class SimClock {
 public:
  void ChargeQuery(const MediumCost& cost, int64_t rows);
  void ChargeMicros(double us);

  double ElapsedMicros() const { return elapsed_us_; }
  double ElapsedMillis() const { return elapsed_us_ / 1e3; }
  double ElapsedSeconds() const { return elapsed_us_ / 1e6; }
  int64_t queries() const { return queries_; }
  int64_t rows() const { return rows_; }

  void Reset();

  std::string DebugString() const;

 private:
  double elapsed_us_ = 0.0;
  int64_t queries_ = 0;
  int64_t rows_ = 0;
};

}  // namespace turbo::storage
