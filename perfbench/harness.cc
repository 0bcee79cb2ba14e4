#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// JSON string body: the names and categories this benchmark writes are
/// plain identifiers, but escape the two characters that would break the
/// document anyway.
std::string Escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// 1-based nearest rank of the `p` percentile among n >= 1 samples.
size_t Rank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = Rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

Outcome Classify(const dbs3::Status& status, bool rows_match) {
  if (status.ok()) return rows_match ? Outcome::kOk : Outcome::kWrongRows;
  if (status.code() == dbs3::StatusCode::kResourceExhausted) {
    return Outcome::kShed;
  }
  return Outcome::kError;
}

void FailureTally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kShed:
      ++shed;
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kWrongRows:
      ++wrong_rows;
      break;
  }
}

void FailureTally::Merge(const FailureTally& other) {
  attempted += other.attempted;
  shed += other.shed;
  errors += other.errors;
  wrong_rows += other.wrong_rows;
}

uint64_t RowHash(const dbs3::Tuple& row) {
  uint64_t h = Mix(0x243f6a8885a308d3ULL ^ row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    h = Mix(h ^ (row.at(i).Hash() + 0x9e3779b97f4a7c15ULL * (i + 1)));
  }
  return h;
}

void RowDigest::Add(const dbs3::Tuple& row) {
  ++rows;
  sum += RowHash(row);
}

RowDigest DigestRelation(const dbs3::Relation& relation) {
  RowDigest digest;
  for (size_t f = 0; f < relation.degree(); ++f) {
    for (const dbs3::Tuple& row : relation.fragment(f).tuples) digest.Add(row);
  }
  return digest;
}

dbs3::Status WriteChromeTrace(const std::string& path,
                              const std::vector<Span>& spans) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return dbs3::Status::Internal("cannot open trace file " + path);
  }
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", file.get());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file.get(),
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"query\": %llu}}%s\n",
                 Escaped(s.name).c_str(), Escaped(s.category).c_str(), s.tid,
                 s.start_us, s.duration_us,
                 static_cast<unsigned long long>(s.query),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", file.get());
  if (std::ferror(file.get()) != 0) {
    return dbs3::Status::Internal("write failed on trace file " + path);
  }
  return dbs3::Status::OK();
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + Escaped(metrics[i].name) + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" +
           Escaped(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
