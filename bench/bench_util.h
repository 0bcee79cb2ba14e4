#ifndef DBS3_BENCH_BENCH_UTIL_H_
#define DBS3_BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "engine/executor.h"
#include "engine/operation.h"
#include "sim/costs.h"
#include "sim/machine.h"

namespace dbs3 {

/// The simulated KSR1 used by every figure bench: 70 reservable processors
/// (of 72), with the calibrated engine-mechanism costs.
inline SimMachineConfig KsrConfig(const SimCosts& costs,
                                  size_t processors = 70) {
  SimMachineConfig config;
  config.processors = processors;
  config.thread_startup_cost = costs.thread_startup;
  config.queue_create_cost = costs.queue_create;
  config.queue_scan_cost = costs.queue_scan;
  config.seed = 42;
  return config;
}

/// Prints the standard bench header.
inline void PrintHeader(const char* figure, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", figure, title);
  std::printf("==============================================================\n");
}

/// Aborts the bench with the error printed (benches are non-interactive).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T UnwrapOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Per-thread busy fraction of one operation, normalized by the operation's
/// wall span (start to slowest worker's exit) — the paper's load-balance
/// signal (Section 5.4 plots its spread under skew). A thread that grabbed
/// a heavy trigger shows ~1.0 while its siblings, done early, show less.
inline std::vector<double> BusyFractions(const OperationStats& op) {
  std::vector<double> fractions(op.per_thread_busy_seconds.size(), 0.0);
  const double span = op.wall_span_seconds;
  for (size_t t = 0; t < fractions.size(); ++t) {
    fractions[t] = span > 0.0 ? op.per_thread_busy_seconds[t] / span : 0.0;
  }
  return fractions;
}

/// Prints one line per operation: busy/wall-span seconds, the per-thread
/// busy fractions, and the main-vs-secondary queue acquisition split.
inline void PrintThreadLoad(const ExecutionResult& execution) {
  for (const OperationStats& op : execution.op_stats) {
    std::printf("  %-10s busy=%.4fs span=%.4fs main/sec acq=%llu/%llu "
                "peak_q=%llu  busy frac:",
                op.name.c_str(), op.busy_seconds, op.wall_span_seconds,
                static_cast<unsigned long long>(op.main_queue_acquisitions),
                static_cast<unsigned long long>(op.secondary_queue_acquisitions),
                static_cast<unsigned long long>(op.peak_queue_units));
    for (double f : BusyFractions(op)) std::printf(" %.2f", f);
    std::printf("\n");
  }
}

/// Prints the query runtime's per-query latency summaries (admission wait,
/// execution wall, busy seconds — plus the shared-batch distributions when
/// shared-work execution kicked in) from a registry snapshot — the
/// multi-user companion of PrintThreadLoad. Quiet when no query ran
/// through the runtime. Tail percentiles come from each summary's sliding
/// reservoir (see MetricSummary::kReservoirSize).
inline void PrintQueryLatencies(const MetricsSnapshot& snapshot) {
  static constexpr const char* kSeries[] = {
      "runtime.admission_wait_us", "runtime.execution_wall_us",
      "runtime.busy_us", "shared.queries_per_batch",
      "shared.batch_window_wait_us"};
  for (const char* name : kSeries) {
    auto it = snapshot.series.find(name);
    if (it == snapshot.series.end() || it->second.samples == 0) continue;
    const SeriesStats& s = it->second;
    std::printf("  %-26s n=%llu mean=%.0f min=%lld", name,
                static_cast<unsigned long long>(s.samples), s.mean(),
                static_cast<long long>(s.min));
    if (s.has_percentiles) {
      std::printf(" p50=%lld p95=%lld p99=%lld",
                  static_cast<long long>(s.p50),
                  static_cast<long long>(s.p95),
                  static_cast<long long>(s.p99));
    }
    std::printf(" max=%lld\n", static_cast<long long>(s.max));
  }
}

/// printf into a std::string, for check details.
__attribute__((format(printf, 1, 2))) inline std::string Format(
    const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// The report of one gated bench, written as BENCH_<bench>.json. A record
/// is one measured number: a BENCHMARK.json metric entry (name, unit,
/// which direction is better) plus the case it was measured on, the layer
/// it measures and its value. A check is one verdict of the bench's own
/// gate: kHard for rows, budgets, allocation counts and non-vacuity, which
/// no rerun excuses; kSpeed for a timing comparison that a shared runner
/// may retry.
class BenchReport {
 public:
  enum Better { kLower, kHigher };
  enum Kind { kHard, kSpeed };

  /// `bench` is the binary's name; every record measures `layer`.
  BenchReport(std::string bench, std::string layer)
      : bench_(std::move(bench)), layer_(std::move(layer)) {}

  void Record(std::string case_name, std::string name, std::string unit,
              Better better, double value) {
    records_.push_back({std::move(case_name), std::move(name),
                        std::move(unit), better, value});
  }

  void Check(std::string name, Kind kind, bool pass, std::string detail) {
    checks_.push_back({std::move(name), kind, pass, std::move(detail)});
  }

  /// Writes the report, prints one OK/FAIL line per check and returns the
  /// bench's exit status: 0 when every check passed, 1 when a hard check
  /// failed, 2 when only speed checks failed. (A bench that cannot run
  /// exits 1 through CheckOk or UnwrapOrDie.)
  int Finish() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\": %s,\n \"records\": [",
                 Quote(bench_).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      const RecordEntry& r = records_[i];
      std::fprintf(f,
                   "%s\n  {\"case\": %s, \"layer\": %s, \"name\": %s, "
                   "\"unit\": %s, \"better\": \"%s\", \"value\": %.10g}",
                   i > 0 ? "," : "", Quote(r.case_name).c_str(),
                   Quote(layer_).c_str(), Quote(r.name).c_str(),
                   Quote(r.unit).c_str(),
                   r.better == kLower ? "lower" : "higher", r.value);
    }
    std::fprintf(f, "],\n \"checks\": [");
    bool hard_failed = false;
    bool speed_failed = false;
    for (size_t i = 0; i < checks_.size(); ++i) {
      const CheckEntry& c = checks_[i];
      const char* kind = c.kind == kHard ? "hard" : "speed";
      std::fprintf(f,
                   "%s\n  {\"name\": %s, \"kind\": \"%s\", \"pass\": %s, "
                   "\"detail\": %s}",
                   i > 0 ? "," : "", Quote(c.name).c_str(), kind,
                   c.pass ? "true" : "false", Quote(c.detail).c_str());
      std::printf("%s %s [%s]: %s\n", c.pass ? "OK  " : "FAIL",
                  c.name.c_str(), kind, c.detail.c_str());
      if (!c.pass) (c.kind == kHard ? hard_failed : speed_failed) = true;
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return hard_failed ? 1 : speed_failed ? 2 : 0;
  }

 private:
  struct RecordEntry {
    std::string case_name;
    std::string name;
    std::string unit;
    Better better;
    double value;
  };
  struct CheckEntry {
    std::string name;
    Kind kind;
    bool pass;
    std::string detail;
  };

  /// A JSON string literal: quotes and backslashes escaped.
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (char ch : text) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out + "\"";
  }

  std::string bench_;
  std::string layer_;
  std::vector<RecordEntry> records_;
  std::vector<CheckEntry> checks_;
};

}  // namespace dbs3

#endif  // DBS3_BENCH_BENCH_UTIL_H_
