// Span tracer, percentile helpers and the per-layer table.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace e2e {

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void RunResult::Info(const std::string& key, const std::string& value) {
  info.emplace_back(key, value);
}

void RunResult::Info(const std::string& key, double value) {
  info.emplace_back(key, StrFormat("%.6g", value));
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t parent,
                     uint64_t key)
    : tracer_(tracer), name_(name), parent_(parent), key_(key) {
  if (!tracer_->enabled()) return;
  id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  start_us_ = tracer_->NowUs();
}

double Tracer::Scope::Stop() {
  if (stopped_) return duration_us_;
  stopped_ = true;
  if (!tracer_->enabled()) return 0.0;
  const double end = tracer_->NowUs();
  duration_us_ = end - start_us_;
  tracer_->Record(Span{name_, start_us_, end, id_, parent_, key_});
  return duration_us_;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

double Tracer::TotalUs(const std::string& name) const {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

std::map<std::string, Tracer::LayerTime> Tracer::ByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent run one after another in this benchmark, so
  // the time they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const double dur = s.end_us - s.start_us;
    auto it = child_us.find(s.id);
    const double self =
        std::max(0.0, dur - (it == child_us.end() ? 0.0 : it->second));
    LayerTime& lt = out[layer];
    ++lt.spans;
    lt.total_ms += dur / 1e3;
    lt.self_ms += self / 1e3;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"key\":" << s.key
      << ",\"start_us\":" << StrFormat("%.3f", s.start_us)
      << ",\"end_us\":" << StrFormat("%.3f", s.end_us) << "}\n";
  }
  return static_cast<bool>(f);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest-rank on the sorted samples (no interpolation).
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

uint64_t Digest(const std::vector<double>& probs) {
  uint64_t h = 1469598103934665603ull;
  for (double p : probs) {
    uint64_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void PrintLayerTable(const Tracer& tracer) {
  TablePrinter table({"layer", "spans", "total ms", "self ms"});
  for (const auto& [layer, t] : tracer.ByLayer()) {
    table.AddRow({layer, std::to_string(t.spans),
                  StrFormat("%.1f", t.total_ms),
                  StrFormat("%.1f", t.self_ms)});
  }
  table.Print();
}

}  // namespace e2e
