// Per-request stage tracing: a StageTimer collects named spans for one
// request id and mirrors every span into a histogram its caller resolved
// once (PredictionServer's `predict_<stage>_ms`), so a stream of
// requests yields the Fig. 8-style per-module latency breakdown with no
// registry lookup per request.
//
// Wall-clock and modeled time: spans measure real elapsed time with a
// Stopwatch; storage accesses additionally charge a virtual SimClock
// cost (see DESIGN.md §2), which callers fold in via
// Span::AddModeledMillis before the span stops. Recorded span durations
// are therefore wall + modeled, matching what PredictionResponse
// reports.
//
// StageTimer is single-threaded per request (one request = one timer);
// the histograms it writes into are the concurrency-safe obs metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/time_util.h"

namespace turbo::obs {

struct StageSpan {
  std::string stage;
  double millis = 0.0;
};

class StageTimer {
 public:
  /// Finish() records the trace's total into `total`; `request_id` ties
  /// the trace to a request for logging/debugging. Every histogram the
  /// timer records into is borrowed and must outlive it.
  StageTimer(Histogram* total, uint64_t request_id);
  /// Finishes implicitly (records the total) if the caller did not.
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Scoped span: starts timing on construction, records on Stop() (or
  /// destruction). Not copyable or movable — bind the returned prvalue
  /// directly: `auto span = timer.StartSpan("sample", sample_ms);`.
  class Span {
   public:
    ~Span() { Stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Adds virtual storage cost (SimClock) on top of wall time.
    void AddModeledMillis(double millis) { extra_ += millis; }
    /// Ends the span and records it; returns total millis. Idempotent.
    double Stop();

   private:
    friend class StageTimer;
    Span(StageTimer* timer, std::string stage, Histogram* histogram)
        : timer_(timer), stage_(std::move(stage)), histogram_(histogram) {}

    StageTimer* timer_;
    std::string stage_;
    Histogram* histogram_;
    Stopwatch stopwatch_;
    double extra_ = 0.0;
    double recorded_ = 0.0;
    bool stopped_ = false;
  };

  /// The span records its duration into `histogram` when it stops.
  Span StartSpan(std::string stage, Histogram* histogram) {
    return Span(this, std::move(stage), histogram);
  }

  /// Records an externally measured stage duration (no Stopwatch).
  void RecordStage(std::string stage, double millis, Histogram* histogram);

  /// Sum of all recorded spans so far.
  double TotalMillis() const;
  const std::vector<StageSpan>& spans() const { return spans_; }
  uint64_t request_id() const { return request_id_; }

  /// Records the total into the `total` histogram and returns it.
  /// Idempotent; spans recorded after Finish() are ignored for the total.
  double Finish();

 private:
  Histogram* total_;
  uint64_t request_id_;
  std::vector<StageSpan> spans_;
  bool finished_ = false;
};

}  // namespace turbo::obs
