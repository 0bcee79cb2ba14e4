// Tests of the benchmark's own harness: nearest-rank percentiles and the
// ">= 10 samples beyond" rule, failure accounting, and the row oracle's
// rejection of a perturbed result. Dependency-free: run the binary, exit
// status 0 means every check held.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "storage/partitioner.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void NearestRankPercentiles() {
  Check(NearestRank({}, 50.0) == 0.0, "empty set percentile is 0");
  Check(NearestRank({7.0}, 99.0) == 7.0, "single sample is every percentile");
  // n = 100: rank ceil(0.5 * 100) = 50, ceil(0.99 * 100) = 99.
  Check(NearestRank(OneTo(100), 50.0) == 50.0, "p50 of 1..100 is 50");
  Check(NearestRank(OneTo(100), 99.0) == 99.0, "p99 of 1..100 is 99");
  Check(NearestRank(OneTo(100), 100.0) == 100.0, "p100 is the max");
  // n = 10: rank ceil(9.9) = 10 — p99 is the max of a small sample.
  Check(NearestRank(OneTo(10), 99.0) == 10.0, "p99 of 1..10 is the max");
  // Even n: the lower middle.
  Check(Median(OneTo(4)) == 2.0, "median of 1..4 is 2");
  Check(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void TenBeyondRule() {
  // p99 at rank ceil(0.99 n): n - rank samples lie beyond it.
  Check(SamplesBeyond(100, 99.0) == 1, "100 samples: 1 beyond p99");
  Check(SamplesBeyond(999, 99.0) == 9, "999 samples: 9 beyond p99");
  Check(SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  Check(!PercentileSupported(999, 99.0), "999 samples do not support p99");
  Check(PercentileSupported(1000, 99.0), "1000 samples support p99");
  Check(PercentileSupported(20, 50.0), "20 samples support p50");
  Check(!PercentileSupported(19, 50.0), "19 samples do not support p50");
  Check(SamplesBeyond(0, 99.0) == 0, "no samples, none beyond");
}

void FailedShareCounting() {
  using dbs3::Status;
  Check(Classify(Status::OK(), true) == Outcome::kOk, "OK + rows match");
  Check(Classify(Status::OK(), false) == Outcome::kWrongRows,
        "OK + wrong rows");
  Check(Classify(Status::ResourceExhausted("queue full"), true) ==
            Outcome::kShed,
        "ResourceExhausted is a shed");
  Check(Classify(Status::Internal("boom"), true) == Outcome::kError,
        "other errors are errors");
  Check(Classify(Status::Cancelled("x"), false) == Outcome::kError,
        "a cancel is an error, not wrong rows");

  FailureTally tally;
  Check(tally.failed_share() == 0.0, "nothing attempted, share 0");
  for (int i = 0; i < 6; ++i) tally.Add(Outcome::kOk);
  tally.Add(Outcome::kShed);
  tally.Add(Outcome::kError);
  tally.Add(Outcome::kWrongRows);
  tally.Add(Outcome::kWrongRows);
  Check(tally.attempted == 10, "attempted counts every outcome");
  Check(tally.shed == 1 && tally.errors == 1 && tally.wrong_rows == 2,
        "each failure kind counted once");
  Check(tally.failed() == 4, "failed = sheds + errors + wrong rows");
  Check(tally.failed_share() == 0.4, "failed_share = 4 / 10");

  FailureTally other;
  other.Add(Outcome::kShed);
  tally.Merge(other);
  Check(tally.attempted == 11 && tally.failed() == 5, "merge adds up");
}

std::unique_ptr<dbs3::Relation> SmallRelation(size_t degree) {
  auto rel = std::make_unique<dbs3::Relation>(
      "r",
      dbs3::Schema({{"k", dbs3::ValueType::kInt64},
                    {"s", dbs3::ValueType::kString}}),
      0, dbs3::Partitioner(dbs3::PartitionKind::kModulo, degree));
  for (int64_t k = 0; k < 50; ++k) {
    Check(rel->Insert(dbs3::Tuple({dbs3::Value(k),
                                   dbs3::Value("v" + std::to_string(k % 7))}))
              .ok(),
          "insert");
  }
  return rel;
}

void OracleRejectsPerturbedRows() {
  const auto base = SmallRelation(4);
  RowDigest expected;
  for (const dbs3::Tuple& t : base->Scan()) expected.Add(t);

  // Same rows, different placement and order: equal.
  const auto replaced = SmallRelation(3);
  Check(DigestRelation(*replaced) == expected,
        "digest ignores fragment placement and row order");

  // One value changed.
  auto changed = SmallRelation(4);
  changed->fragment(1).tuples[2].at(0) =
      dbs3::Value(changed->fragment(1).tuples[2].at(0).AsInt() + 1);
  Check(DigestRelation(*changed) != expected, "changed value rejected");

  // The same values in another column order are another row.
  dbs3::Tuple a({dbs3::Value(int64_t{1}), dbs3::Value(int64_t{2})});
  dbs3::Tuple b({dbs3::Value(int64_t{2}), dbs3::Value(int64_t{1})});
  Check(RowHash(a) != RowHash(b), "row hash depends on column order");

  // A missing row and a duplicated row.
  auto missing = SmallRelation(4);
  missing->fragment(0).tuples.pop_back();
  Check(DigestRelation(*missing) != expected, "missing row rejected");
  auto duplicated = SmallRelation(4);
  duplicated->fragment(2).tuples.push_back(duplicated->fragment(2).tuples[0]);
  Check(DigestRelation(*duplicated) != expected, "extra row rejected");

  // A swapped row pair keeps the multiset: still equal.
  auto swapped = SmallRelation(4);
  std::swap(swapped->fragment(0).tuples[0], swapped->fragment(0).tuples[1]);
  Check(DigestRelation(*swapped) == expected, "reordered rows accepted");
}

void ResultLine() {
  const std::string line =
      ResultJson(true, 12, 0, {{"qps", 1.5, "1/s"}, {"setup_s", 0.25, "s"}});
  Check(line ==
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 1.5, \"unit\": \"1/s\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}",
        "result line format: " + line);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::NearestRankPercentiles();
  perfbench::TenBeyondRule();
  perfbench::FailedShareCounting();
  perfbench::OracleRejectsPerturbedRows();
  perfbench::ResultLine();
  if (perfbench::failures == 0) std::printf("harness tests: all passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
