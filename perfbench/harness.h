// Measurement plumbing of the engine benchmark that does not depend on any
// one workload: nearest-rank percentiles, failure accounting, the
// order-independent row digest the result oracle compares, client-side
// spans with their Chrome trace_event writer, and the result line.
//
// Kept apart from the workloads so perfbench/harness_test.cc can pin its
// rules without building a database.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile of `samples` (need not be sorted): the smallest
/// sample such that at least `p` percent of all samples are <= it, i.e. the
/// sample of 1-based rank ceil(p/100 * n). 0 for an empty set.
double NearestRank(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank `p` percentile position: n minus
/// its rank. A percentile is supported by the sample when at least
/// kMinBeyond samples lie beyond it.
size_t SamplesBeyond(size_t n, double p);
inline constexpr size_t kMinBeyond = 10;
inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinBeyond;
}

/// Median of `samples` by nearest rank (the lower middle for even n).
inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

/// How one attempted query ended, from the client's point of view.
enum class Outcome { kOk, kShed, kError, kWrongRows };

/// A query whose status is OK is judged by its rows; a shed
/// (ResourceExhausted from the admission queue) and any other error are
/// failures of their own kind.
Outcome Classify(const dbs3::Status& status, bool rows_match);

/// Attempted queries and how they failed. failed_share counts sheds, errors
/// and wrong rows against every attempt.
struct FailureTally {
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t wrong_rows = 0;

  void Add(Outcome outcome);
  void Merge(const FailureTally& other);
  uint64_t failed() const { return shed + errors + wrong_rows; }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// An order-independent digest of a multiset of rows: the row count plus
/// the wrapping sum of a per-row hash that is sensitive to every value and
/// to column order. Two results with the same rows in any order (and any
/// fragment placement) digest equal; a changed, missing or extra row does
/// not (up to 64-bit hash collisions).
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(const dbs3::Tuple& row);
  bool operator==(const RowDigest& other) const {
    return rows == other.rows && sum == other.sum;
  }
  bool operator!=(const RowDigest& other) const { return !(*this == other); }
};

/// Hash of one row, as RowDigest sums it.
uint64_t RowHash(const dbs3::Tuple& row);

/// Digest of every row of every fragment of `relation`.
RowDigest DigestRelation(const dbs3::Relation& relation);

/// One complete span recorded by the benchmark's own code: a client query
/// (with its admission and execution children) or a replayed layer call.
/// Times are microseconds since the benchmark's trace origin.
struct Span {
  std::string name;
  std::string category;
  uint32_t tid = 0;
  double start_us = 0.0;
  double duration_us = 0.0;
  /// The query the span belongs to (0 for layer replays).
  uint64_t query = 0;
};

/// Writes `spans` as a Chrome trace_event JSON document (complete "X"
/// events, chrome://tracing and Perfetto loadable) to `path`.
dbs3::Status WriteChromeTrace(const std::string& path,
                              const std::vector<Span>& spans);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's single-line JSON result: {"correct", "attempted",
/// "failed", "metrics": {name: {"value", "unit"}}}. Values are printed with
/// full precision; a non-finite value is printed as 0 so the line stays
/// valid JSON.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
