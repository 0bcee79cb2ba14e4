#include "storage/wisconsin.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace dbs3 {

Schema WisconsinSchema(bool with_strings) {
  std::vector<Column> cols = {
      {"unique1", ValueType::kInt64},
      {"unique2", ValueType::kInt64},
      {"two", ValueType::kInt64},
      {"four", ValueType::kInt64},
      {"ten", ValueType::kInt64},
      {"twenty", ValueType::kInt64},
      {"onePercent", ValueType::kInt64},
      {"tenPercent", ValueType::kInt64},
      {"twentyPercent", ValueType::kInt64},
      {"fiftyPercent", ValueType::kInt64},
      {"unique3", ValueType::kInt64},
      {"evenOnePercent", ValueType::kInt64},
      {"oddOnePercent", ValueType::kInt64},
  };
  if (with_strings) {
    cols.push_back({"stringu1", ValueType::kString});
    cols.push_back({"stringu2", ValueType::kString});
    cols.push_back({"string4", ValueType::kString});
  }
  return Schema(std::move(cols));
}

std::string WisconsinString(uint64_t value) {
  std::string out(52, 'x');
  // Seven base-26 digits, most significant first (enough for 8 billion rows).
  for (int pos = 6; pos >= 0; --pos) {
    out[static_cast<size_t>(pos)] = static_cast<char>('A' + value % 26);
    value /= 26;
  }
  return out;
}

Result<std::unique_ptr<Relation>> GenerateWisconsin(
    const std::string& name, const WisconsinOptions& options) {
  if (options.cardinality == 0) {
    return Status::InvalidArgument("Wisconsin cardinality must be > 0");
  }
  if (options.degree == 0) {
    return Status::InvalidArgument("Wisconsin degree must be > 0");
  }
  const Schema schema = WisconsinSchema(options.with_strings);
  auto col = schema.IndexOf(options.partition_column);
  if (!col.ok()) return col.status();

  auto relation = std::make_unique<Relation>(
      name, schema, col.value(),
      Partitioner(options.partition_kind, options.degree));

  // unique1 is a random permutation of 0..n-1 (Fisher-Yates).
  const uint64_t n = options.cardinality;
  std::vector<uint64_t> unique1(n);
  std::iota(unique1.begin(), unique1.end(), 0);
  Rng rng(options.seed);
  for (uint64_t i = n - 1; i > 0; --i) {
    std::swap(unique1[i], unique1[rng.Below(i + 1)]);
  }

  static constexpr const char* kString4Cycle[4] = {"AAAA", "HHHH", "OOOO",
                                                   "VVVV"};
  for (uint64_t u2 = 0; u2 < n; ++u2) {
    const uint64_t u1 = unique1[u2];
    RowValues values;
    values.reserve(schema.num_columns());
    values.emplace_back(static_cast<int64_t>(u1));
    values.emplace_back(static_cast<int64_t>(u2));
    values.emplace_back(static_cast<int64_t>(u1 % 2));
    values.emplace_back(static_cast<int64_t>(u1 % 4));
    values.emplace_back(static_cast<int64_t>(u1 % 10));
    values.emplace_back(static_cast<int64_t>(u1 % 20));
    const int64_t one_percent = static_cast<int64_t>(u1 % 100);
    values.emplace_back(one_percent);
    values.emplace_back(static_cast<int64_t>(u1 % 10));
    values.emplace_back(static_cast<int64_t>(u1 % 5));
    values.emplace_back(static_cast<int64_t>(u1 % 2));
    values.emplace_back(static_cast<int64_t>(u1));
    values.emplace_back(one_percent * 2);
    values.emplace_back(one_percent * 2 + 1);
    if (options.with_strings) {
      values.emplace_back(WisconsinString(u1));
      values.emplace_back(WisconsinString(u2));
      std::string s4 = kString4Cycle[u2 % 4];
      s4.resize(52, 'x');
      values.emplace_back(std::move(s4));
    }
    DBS3_RETURN_IF_ERROR(relation->Insert(Tuple(std::move(values))));
  }
  return relation;
}

}  // namespace dbs3
