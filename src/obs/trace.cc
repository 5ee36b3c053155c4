#include "obs/trace.h"

#include "util/check.h"

namespace turbo::obs {

StageTimer::StageTimer(Histogram* total, uint64_t request_id)
    : total_(total), request_id_(request_id) {
  TURBO_CHECK(total_ != nullptr);
}

StageTimer::~StageTimer() {
  if (!finished_) Finish();
}

double StageTimer::Span::Stop() {
  if (stopped_) return recorded_;
  stopped_ = true;
  recorded_ = stopwatch_.ElapsedMillis() + extra_;
  timer_->RecordStage(std::move(stage_), recorded_, histogram_);
  return recorded_;
}

void StageTimer::RecordStage(std::string stage, double millis,
                             Histogram* histogram) {
  TURBO_CHECK_GE(millis, 0.0);
  TURBO_CHECK(histogram != nullptr);
  spans_.push_back({std::move(stage), millis});
  histogram->Observe(millis);
}

double StageTimer::TotalMillis() const {
  double total = 0.0;
  for (const auto& s : spans_) total += s.millis;
  return total;
}

double StageTimer::Finish() {
  const double total = TotalMillis();
  if (!finished_) {
    finished_ = true;
    total_->Observe(total);
  }
  return total;
}

}  // namespace turbo::obs
