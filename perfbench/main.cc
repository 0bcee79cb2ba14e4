// The DBS3 engine benchmark: drives one client workload through the public
// client API (Database, SubmitEsql, the Submit* facade, QueryHandle::Take)
// on the real-thread engine and reports end-to-end metrics, or — with
// --trace 1 — per-layer metrics from spans and replays recorded in this
// benchmark's own code.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--perturb 1]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. The exit status is 0 only when every
// query returned its oracle rows and the workload's non-vacuity checks
// held; --perturb 1 corrupts one result row to prove that it is not.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "dbs3/database.h"
#include "harness.h"
#include "layers.h"
#include "server/query_handle.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool perturb = false;
};

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 5;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--perturb 1]\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      flags.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      flags.trace_out = value;
    } else if (arg == "--perturb") {
      flags.perturb = std::strcmp(value, "1") == 0;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (flags.workload.empty()) Usage("--workload is required");
  if (!(flags.seconds > 0.0)) Usage("--seconds must be positive");
  return flags;
}

/// CPU time used so far by `clock`: CLOCK_PROCESS_CPUTIME_ID (every thread
/// of this process) or CLOCK_THREAD_CPUTIME_ID (the calling thread).
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One taken query, as the client saw it.
struct Record {
  Shape shape = Shape::kPoint;
  uint32_t track = 0;  ///< Trace track: one per client in-flight slot.
  uint64_t id = 0;
  double submit_us = 0.0;  ///< Since the trace origin.
  double done_us = 0.0;    ///< When Take() returned.
  double call_us = 0.0;    ///< Time spent inside the Submit call.
  Outcome outcome = Outcome::kOk;
  dbs3::QueryRunStats stats;
  uint64_t spill_bytes = 0;
  /// Traced runs only.
  uint64_t activations = 0;
  double load_imbalance = -1.0;  ///< < 0: no multi-thread operation.
  /// Each execution's wall time times the threads its operations ran.
  double thread_seconds = 0.0;

  double latency_us() const { return done_us - submit_us; }
};

uint64_t SpillBytes(const dbs3::ExecutionResult& execution) {
  auto it = execution.metrics.counters.find("spill.bytes_written");
  return it == execution.metrics.counters.end() ? 0 : it->second;
}

/// The paper's Pmax/P for one operation: its busiest thread's busy time
/// over the mean per-thread busy time; < 0 when it ran on one thread.
double Imbalance(const dbs3::OperationStats& op) {
  const std::vector<double>& busy = op.per_thread_busy_seconds;
  if (busy.size() < 2) return -1.0;
  double sum = 0.0, max = 0.0;
  for (double b : busy) {
    sum += b;
    max = std::max(max, b);
  }
  return sum > 0.0 ? max * static_cast<double>(busy.size()) / sum : -1.0;
}

/// Fills the traced-run fields of `r` from the query's executions: summed
/// activations, thread-seconds, and the mean Pmax/P over its join
/// operations (over every multi-thread operation when it has no join).
void TraceFields(const dbs3::QueryResult& result, Record* r) {
  std::vector<const dbs3::ExecutionResult*> executions;
  for (const dbs3::ExecutionResult& e : result.phases) executions.push_back(&e);
  executions.push_back(&result.execution);
  double join_sum = 0.0, any_sum = 0.0;
  int joins = 0, any = 0;
  for (const dbs3::ExecutionResult* e : executions) {
    size_t threads = 0;
    for (const dbs3::OperationStats& op : e->op_stats) {
      threads += op.per_thread_busy_seconds.size();
    }
    r->thread_seconds += e->seconds * static_cast<double>(threads);
    for (const dbs3::OperationStats& op : e->op_stats) {
      r->activations += op.activations;
      const double imbalance = Imbalance(op);
      if (imbalance < 0.0) continue;
      any_sum += imbalance;
      ++any;
      if (op.name.find("join") != std::string::npos) {
        join_sum += imbalance;
        ++joins;
      }
    }
  }
  r->load_imbalance = joins > 0 ? join_sum / joins
                      : any > 0 ? any_sum / any
                                : -1.0;
}

/// Shared state of one benchmark process.
struct Env {
  dbs3::Database* db = nullptr;
  const Workload* workload = nullptr;
  Clock::time_point origin;
  /// Armed by --perturb: the next OK result taken gets one row corrupted.
  std::atomic<bool> perturb{false};
};

/// When to stop submitting: at `end`, or after `per_slot` queries per
/// in-flight slot (warm-up).
struct Limits {
  Clock::time_point end = Clock::time_point::max();
  uint64_t per_slot = std::numeric_limits<uint64_t>::max();
};

/// A query that returned its oracle rows: when Take() returned, and its
/// client latency.
struct Sample {
  double done_us = 0.0;
  double latency_us = 0.0;
};

/// Non-vacuity counts over the queries that returned their rows.
struct Checks {
  uint64_t ok = 0;
  uint64_t batched = 0;      ///< Rode a shared-scan batch of > 1 query.
  uint64_t spilled = 0;      ///< Wrote spill bytes.
  uint64_t over_budget = 0;  ///< Quota high water > budget + one chunk.

  void Merge(const Checks& o) {
    ok += o.ok;
    batched += o.batched;
    spilled += o.spilled;
    over_budget += o.over_budget;
  }
};

/// What client threads saw during one phase. Full records are kept for
/// traced phases only, so untraced runs carry 16 bytes per query.
struct Phase {
  std::vector<Sample> samples;
  std::vector<Record> records;
  FailureTally tally;
  Checks checks;
  /// The (first) window; samples past end_us completed while draining.
  double start_us = 0.0;
  double end_us = 0.0;
  /// Samples taken inside the window(s), and their summed length.
  uint64_t in_window = 0;
  double window_s = 0.0;
  /// Process CPU time from the phase's start until its last query was
  /// taken, and the part of it the client threads spent outside the
  /// client API calls (Submit, Take): polling, bookkeeping, row checks.
  double cpu_s = 0.0;
  double client_cpu_s = 0.0;
  /// CPU time of each reference-loop run during the phase (measured phases
  /// only); their sum is not the engine's either.
  std::vector<double> reference_us;

  /// CPU time the engine spent per query taken, the client API calls
  /// included.
  double cpu_us_per_query() const {
    double reference_s = 0.0;
    for (double us : reference_us) reference_s += 1e-6 * us;
    return 1e6 * (cpu_s - client_cpu_s - reference_s) /
           static_cast<double>(std::max<size_t>(1, samples.size()));
  }

  /// Completed queries per second over the window(s).
  double qps() const {
    return window_s > 0.0 ? static_cast<double>(in_window) / window_s : 0.0;
  }
};

/// Adds one phase's queries and window to `into`.
void Absorb(Phase&& from, Phase* into) {
  if (into->window_s == 0.0) {
    into->start_us = from.start_us;
    into->end_us = from.end_us;
  }
  into->samples.insert(into->samples.end(), from.samples.begin(),
                       from.samples.end());
  for (Record& r : from.records) into->records.push_back(std::move(r));
  into->tally.Merge(from.tally);
  into->checks.Merge(from.checks);
  into->in_window += from.in_window;
  into->window_s += from.window_s;
  into->cpu_s += from.cpu_s;
  into->client_cpu_s += from.client_cpu_s;
  into->reference_us.insert(into->reference_us.end(),
                            from.reference_us.begin(),
                            from.reference_us.end());
}

/// A fixed computation whose CPU time tracks the host's speed: random
/// read-modify-writes over a 256 KiB table. Returns its CPU time in us.
double ReferenceLoopUs() {
  static std::vector<uint64_t> table(1 << 15, 1);
  const size_t mask = table.size() - 1;
  const double start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & mask] ^ (x * 0x9E3779B97F4A7C15ull);
    table[(x >> 20) & mask] = acc;
  }
  const double us = 1e6 * (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - start);
  return acc == 42 ? us + 1e-9 : us;  // Keeps the loop from being elided.
}

/// About what the reference loop takes, running beside the engine, on the
/// 4-vCPU baseline host when it is quiet (perfbench/BASELINE.md), in us.
constexpr double kNominalReferenceUs = 650.0;

/// Runs the reference loop every 100 ms until `stop`.
void SampleReference(std::stop_token stop, std::vector<double>* samples) {
  std::mutex mu;
  std::condition_variable_any cv;
  std::unique_lock<std::mutex> lock(mu);
  while (!stop.stop_requested()) {
    samples->push_back(ReferenceLoopUs());
    cv.wait_for(lock, stop, std::chrono::milliseconds(100),
                [] { return false; });
  }
}

/// Corrupts one value of the first row of `relation`, if it has one.
void PerturbOneRow(dbs3::Relation& relation) {
  for (size_t f = 0; f < relation.degree(); ++f) {
    std::vector<dbs3::Tuple>& rows = relation.fragment(f).tuples;
    if (rows.empty()) continue;
    dbs3::Value& v = rows.front().at(0);
    v = v.is_int() ? dbs3::Value(v.AsInt() + 1) : dbs3::Value(std::string("?"));
    return;
  }
}

/// A closed-loop client: keeps depth() queries in flight, each slot
/// submitting its next query only after its previous one was taken. It
/// blocks on its oldest query, then takes every query that is done.
void RunClient(Env& env, size_t client, uint64_t* seq, const Limits& limits,
               bool traced, Phase* log) {
  const Workload& w = *env.workload;
  const uint64_t budget_limit =
      w.memory_units() + w.schedule().chunk_size;  // One chunk of slack.
  struct Slot {
    dbs3::QueryHandle handle;
    Query query;
    Clock::time_point submitted;
    double call_us = 0.0;
    uint64_t runs = 0;
    bool live = false;
  };
  std::vector<Slot> slots(w.depth());
  const double cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  double api_cpu_s = 0.0;  // Inside Submit and Take.
  auto submit = [&](Slot& s) {
    s.query = w.Next(client, (*seq)++);
    const double api_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    s.submitted = Clock::now();
    s.handle = w.Submit(*env.db, s.query);
    s.call_us = Micros(Clock::now() - s.submitted);
    api_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - api_start;
    ++s.runs;
    s.live = true;
  };
  auto may_submit = [&](const Slot& s) {
    return s.runs < limits.per_slot && Clock::now() < limits.end;
  };
  for (Slot& s : slots) {
    if (may_submit(s)) submit(s);
  }
  for (;;) {
    Slot* oldest = nullptr;
    for (Slot& s : slots) {
      if (s.live && (oldest == nullptr || s.submitted < oldest->submitted)) {
        oldest = &s;
      }
    }
    if (oldest == nullptr) break;
    oldest->handle.Wait();
    for (size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.live || !s.handle.done()) continue;
      const double api_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      dbs3::Result<dbs3::QueryResult> taken = s.handle.Take();
      api_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - api_start;
      Record r;
      r.done_us = Micros(Clock::now() - env.origin);
      r.submit_us = Micros(s.submitted - env.origin);
      r.shape = s.query.shape;
      r.track = static_cast<uint32_t>(client * slots.size() + i + 1);
      r.id = s.handle.id();
      r.call_us = s.call_us;
      r.stats = s.handle.stats();
      bool rows_match = false;
      if (taken.ok()) {
        dbs3::QueryResult& result = taken.value();
        if (env.perturb.exchange(false)) PerturbOneRow(*result.result);
        rows_match = DigestRelation(*result.result) == w.Expected(s.query);
        r.spill_bytes = SpillBytes(result.execution);
        for (const dbs3::ExecutionResult& e : result.phases) {
          r.spill_bytes += SpillBytes(e);
        }
        if (traced) TraceFields(result, &r);
      }
      r.outcome = Classify(taken.status(), rows_match);
      if (r.outcome != Outcome::kOk) {
        std::fprintf(stderr, "perfbench: %s query %llu failed: %s\n",
                     ShapeName(r.shape), static_cast<unsigned long long>(r.id),
                     taken.ok() ? "rows differ from the oracle"
                                : taken.status().ToString().c_str());
      }
      log->tally.Add(r.outcome);
      if (r.outcome == Outcome::kOk) {
        log->samples.push_back(Sample{r.done_us, r.latency_us()});
        ++log->checks.ok;
        log->checks.batched += r.stats.shared_batch_queries > 1;
        log->checks.spilled += r.spill_bytes > 0;
        log->checks.over_budget +=
            w.memory_units() != 0 &&
            r.stats.quota_high_water_units > budget_limit;
      }
      if (traced) log->records.push_back(std::move(r));
      s.live = false;
      if (may_submit(s)) submit(s);
    }
  }
  log->client_cpu_s =
      CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start - api_cpu_s;
}

/// Runs the clients until `limits`; a measured phase also samples the
/// reference loop on a thread of its own meanwhile.
Phase RunPhase(Env& env, std::vector<uint64_t>* seqs, const Limits& limits,
               bool traced, bool measured) {
  const size_t clients = env.workload->clients();
  std::vector<Phase> logs(clients);
  Phase phase;
  phase.start_us = Micros(Clock::now() - env.origin);
  const double cpu_start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  {
    std::jthread reference;
    if (measured) {
      reference = std::jthread(SampleReference, &phase.reference_us);
    }
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&env, c, seqs, &limits, traced, &logs] {
        RunClient(env, c, &(*seqs)[c], limits, traced, &logs[c]);
      });
    }
  }
  const double cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  phase.end_us = Micros(std::min(limits.end, Clock::now()) - env.origin);
  const double start_us = phase.start_us, end_us = phase.end_us;
  for (Phase& log : logs) Absorb(std::move(log), &phase);
  phase.start_us = start_us;
  phase.end_us = end_us;
  for (const Sample& q : phase.samples) phase.in_window += q.done_us <= end_us;
  phase.window_s = (end_us - start_us) / 1e6;
  phase.cpu_s = cpu_s;
  return phase;
}

/// A single-window phase cut into equal slices by completion time. Latency
/// percentiles are the median of their per-slice values, so a burst of
/// load from outside the process moves one slice rather than the result.
/// Low-rate windows get fewer slices (at least kMinPerSlice queries each;
/// one slice = the whole window).
struct Slices {
  static constexpr size_t kMax = 10;
  static constexpr size_t kMinPerSlice = 20;

  std::vector<double> p50, p99;
  size_t fewest = 0;  ///< Smallest per-slice sample count.
};

Slices SliceWindow(const Phase& phase) {
  const size_t n = std::clamp<size_t>(phase.in_window / Slices::kMinPerSlice,
                                      1, Slices::kMax);
  const double width = (phase.end_us - phase.start_us) / static_cast<double>(n);
  std::vector<std::vector<double>> per(n);
  for (const Sample& q : phase.samples) {
    if (q.done_us > phase.end_us) continue;
    const auto s = static_cast<size_t>((q.done_us - phase.start_us) / width);
    per[std::min(s, n - 1)].push_back(q.latency_us);
  }
  Slices out;
  out.fewest = phase.in_window;
  for (const std::vector<double>& lat : per) {
    out.p50.push_back(NearestRank(lat, 50.0));
    out.p99.push_back(NearestRank(lat, 99.0));
    out.fewest = std::min(out.fewest, lat.size());
  }
  return out;
}

template <typename F>
std::vector<double> Collect(const std::vector<Record>& records, F value) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (r.outcome != Outcome::kOk) continue;
    const double v = value(r);
    if (v >= 0.0) out.push_back(v);
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// The workload's non-vacuity checks; prints each failure.
bool NonVacuous(const Workload& w, const Checks& c) {
  const uint64_t ok = c.ok;
  auto holds = [ok](Expect e, uint64_t n) {
    switch (e) {
      case Expect::kAny:
        return true;
      case Expect::kNone:
        return n == 0;
      case Expect::kSome:
        return n > 0;
      case Expect::kEvery:
        return n == ok;
    }
    return false;
  };
  bool pass = true;
  if (!holds(w.batching(), c.batched)) {
    std::fprintf(stderr, "perfbench: non-vacuity: %llu of %llu queries rode "
                 "a shared batch\n", static_cast<unsigned long long>(c.batched),
                 static_cast<unsigned long long>(ok));
    pass = false;
  }
  if (!holds(w.spilling(), c.spilled)) {
    std::fprintf(stderr, "perfbench: non-vacuity: %llu of %llu queries "
                 "spilled\n", static_cast<unsigned long long>(c.spilled),
                 static_cast<unsigned long long>(ok));
    pass = false;
  }
  if (c.over_budget > 0) {
    std::fprintf(stderr, "perfbench: %llu queries exceeded the memory budget "
                 "plus one chunk\n",
                 static_cast<unsigned long long>(c.over_budget));
    pass = false;
  }
  return pass;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintMetric(const Metric& m, const char* note = "") {
  std::printf("  %-32s %16.4f %-10s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note);
}

/// The gated end-to-end metrics of a measured phase. They count CPU time,
/// not wall time: on a shared host, other tenants' load moves wall-clock
/// throughput and latency by up to 2x between runs, while the CPU time the
/// engine spends per query moves far less. What remains — the host itself
/// running slower or faster for minutes at a time — moves the reference
/// loop alike, so both CPU times are scaled by kNominalReferenceUs over the
/// loop's median time during the window: they read as on a host where the
/// loop takes kNominalReferenceUs.
std::vector<Metric> EndToEnd(const Phase& phase, double setup_cpu_s) {
  const double scale = kNominalReferenceUs / Median(phase.reference_us);
  return {
      {"cpu_us_per_query", phase.cpu_us_per_query() * scale, "us"},
      {"setup_s", setup_cpu_s * scale, "s"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
  };
}

/// Wall-clock metrics of a measured single-window phase: printed, not gated.
std::vector<Metric> WallClock(const Phase& phase, const Slices& slices) {
  return {
      {"qps", phase.qps(), "1/s"},
      {"lat_p50_us", Median(slices.p50), "us"},
      {"lat_p99_us", Median(slices.p99), "us"},
  };
}

/// Per-layer metrics taken from the traced phase's queries.
std::vector<Metric> FromQueries(const Env& env, const Phase& phase) {
  const std::vector<Record>& rs = phase.records;
  auto esql_call = Collect(rs, [](const Record& r) {
    return r.shape == Shape::kFacadeJoin ? -1.0 : r.call_us;
  });
  auto imbalance =
      Collect(rs, [](const Record& r) { return r.load_imbalance; });
  auto admission = Collect(rs, [](const Record& r) {
    return r.stats.admission_wait_seconds * 1e6;
  });
  auto execution = Collect(
      rs, [](const Record& r) { return r.stats.execution_seconds * 1e6; });
  auto unattributed = Collect(rs, [](const Record& r) {
    const double server_s =
        r.stats.admission_wait_seconds + r.stats.execution_seconds;
    return std::max(0.0, r.latency_us() - 1e6 * server_s);
  });
  auto busy_frac = Collect(rs, [](const Record& r) {
    return r.thread_seconds > 0.0 ? r.stats.busy_seconds / r.thread_seconds
                                  : -1.0;
  });
  auto batched = Collect(rs, [](const Record& r) {
    return r.stats.shared_batch_queries > 1 ? 1.0 : 0.0;
  });
  auto activations = Collect(
      rs, [](const Record& r) { return static_cast<double>(r.activations); });
  auto spill = Collect(
      rs, [](const Record& r) { return static_cast<double>(r.spill_bytes); });
  auto high_water = Collect(rs, [](const Record& r) {
    return static_cast<double>(r.stats.quota_high_water_units);
  });
  const dbs3::SeriesStats per_batch =
      env.db->metrics().summary("shared.queries_per_batch")->value();
  return {
      {"esql.submit_call_us", Median(esql_call), "us"},
      {"sched.load_imbalance", imbalance.empty() ? 1.0 : Mean(imbalance),
       "ratio"},
      {"server.admission_wait_us", Median(admission), "us"},
      {"server.execution_us", Median(execution), "us"},
      {"server.unattributed_us", Median(unattributed), "us"},
      {"server.busy_frac", Median(busy_frac), "ratio"},
      {"shared.batched_share", Mean(batched), "ratio"},
      {"shared.queries_per_batch", per_batch.mean(), "count"},
      {"engine.activations_per_query", Median(activations), "count"},
      {"storage.spill_bytes_p50", Median(spill), "bytes"},
      {"storage.spill_bytes_max",
       spill.empty() ? 0.0 : *std::max_element(spill.begin(), spill.end()),
       "bytes"},
      {"storage.quota_high_water_units",
       high_water.empty()
           ? 0.0
           : *std::max_element(high_water.begin(), high_water.end()),
       "count"},
  };
}

/// Client spans of the traced phase: one per query, with its admission and
/// execution children placed back to back from the query's own stats.
void QuerySpans(const Phase& phase, std::vector<Span>* spans) {
  constexpr size_t kMaxQueries = 20'000;  // Keeps the trace file loadable.
  size_t n = 0;
  for (const Record& r : phase.records) {
    if (n++ == kMaxQueries) break;
    const double admission = r.stats.admission_wait_seconds * 1e6;
    spans->push_back(Span{std::string("client.") + ShapeName(r.shape),
                          "client", r.track, r.submit_us, r.latency_us(),
                          r.id});
    spans->push_back(Span{"server.admission", "server", r.track, r.submit_us,
                          admission, r.id});
    spans->push_back(Span{"server.execution", "server", r.track,
                          r.submit_us + admission,
                          r.stats.execution_seconds * 1e6, r.id});
  }
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  std::unique_ptr<Workload> workload =
      MakeWorkload(flags.workload, flags.seed);
  if (workload == nullptr) {
    Usage(("unknown workload " + flags.workload).c_str());
  }

  Env env;
  env.workload = workload.get();
  env.origin = Clock::now();
  std::vector<uint64_t> seqs(workload->clients(), 0);
  bool correct = true;

  // Set-up: generate the relations, start the runtime, warm up — several
  // times, so setup_s is a median. setup_s is the process CPU time this
  // takes, scaled like CPU per query (wall time is printed too). The
  // oracle is computed once, outside the timed part (the relations are a
  // pure function of the seed), and the warm-up's client loop is not
  // counted either.
  std::unique_ptr<dbs3::Database> db;
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  bool have_oracle = false;
  for (int rep = 0; rep < kSetups; ++rep) {
    db.reset();
    std::fill(seqs.begin(), seqs.end(), 0);
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    double cpu_untimed = 0.0;
    db = std::make_unique<dbs3::Database>();
    env.db = db.get();
    workload->Populate(*db);
    Clock::duration untimed{0};
    if (!have_oracle) {
      const auto oracle_start = Clock::now();
      const double oracle_cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
      workload->BuildOracle(*db);
      have_oracle = true;
      untimed = Clock::now() - oracle_start;
      cpu_untimed += CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - oracle_cpu;
    }
    Limits warmup;
    warmup.per_slot = workload->warmup_per_slot();
    const Phase warm = RunPhase(env, &seqs, warmup, false, false);
    const auto ref_start = Clock::now();
    const double ref_cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const bool reference = workload->CheckReference(*db);
    untimed += Clock::now() - ref_start;
    cpu_untimed += CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - ref_cpu;
    setup_cpu.push_back(CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start -
                        cpu_untimed - warm.client_cpu_s);
    setup_wall.push_back(Seconds(Clock::now() - start - untimed));
    if (warm.tally.failed() > 0 || !reference) {
      std::fprintf(stderr, "perfbench: warm-up or reference query failed\n");
      correct = false;
    }
  }
  const double setup_median = Median(setup_cpu);

  // An untraced run measures one window. A traced run alternates untraced
  // and traced quarters (U T U T), so that slow drift in the host's speed
  // does not read as tracing overhead.
  env.perturb = flags.perturb;
  const int segments = flags.trace ? 4 : 1;
  const auto segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(flags.seconds / segments));
  Phase untraced, traced;
  for (int i = 0; i < segments; ++i) {
    const bool traced_segment = i % 2 == 1;
    Limits limits;
    limits.end = Clock::now() + segment;
    Absorb(RunPhase(env, &seqs, limits, traced_segment, true),
           traced_segment ? &traced : &untraced);
  }
  FailureTally tally = untraced.tally;
  tally.Merge(traced.tally);
  correct = NonVacuous(*workload, untraced.checks) && correct;

  std::printf("workload %s  seed %llu  clients %zu x %zu in flight  "
              "window %.1fs%s\n",
              workload->name(), static_cast<unsigned long long>(flags.seed),
              workload->clients(), workload->depth(), flags.seconds,
              flags.trace ? " in alternating untraced/traced quarters" : "");
  std::printf("set-ups, cpu (s):");
  for (double s : setup_cpu) std::printf(" %.4f", s);
  std::printf("\nset-ups, wall (s):");
  for (double s : setup_wall) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> reported;
  if (!flags.trace) {
    const Slices slices = SliceWindow(untraced);
    const size_t beyond = SamplesBeyond(slices.fewest, 99.0);
    const std::string note =
        "  (median of " + std::to_string(slices.p99.size()) + " slices; " +
        std::to_string(untraced.in_window) + " samples, >= " +
        std::to_string(slices.fewest) + " per slice, " +
        std::to_string(beyond) + " beyond p99" +
        (beyond >= kMinBeyond ? ")" : ": p99 is not supported)");
    reported = EndToEnd(untraced, setup_median);
    std::printf("end-to-end:\n");
    for (const Metric& m : reported) PrintMetric(m);
    std::printf("  (unscaled %.2f us; reference loop %.1f us, median of %zu; "
                "client threads outside Submit/Take, not counted: %.1f us "
                "per query)\n",
                untraced.cpu_us_per_query(), Median(untraced.reference_us),
                untraced.reference_us.size(),
                1e6 * untraced.client_cpu_s /
                    static_cast<double>(
                        std::max<size_t>(1, untraced.samples.size())));
    std::printf("wall clock (printed, not gated):\n");
    for (const Metric& m : WallClock(untraced, slices)) {
      PrintMetric(m, m.name == "lat_p99_us" ? note.c_str() : "");
    }
  } else {
    correct = NonVacuous(*workload, traced.checks) && correct;

    std::vector<Span> spans;
    QuerySpans(traced, &spans);
    SpanSink sink{env.origin, 0, &spans};
    reported = FromQueries(env, traced);
    for (Metric& m : ReplayLayers(*db, *workload, sink)) {
      reported.push_back(std::move(m));
    }
    const double qps_untraced = untraced.qps();
    const double qps_traced = traced.qps();
    std::printf("tracing overhead: qps untraced %.2f, traced %.2f (%+.2f%%)\n",
                qps_untraced, qps_traced,
                qps_untraced > 0 ? 100.0 * (qps_traced / qps_untraced - 1.0)
                                 : 0.0);
    std::printf("per-layer:\n");
    for (const Metric& m : reported) PrintMetric(m);
    if (!flags.trace_out.empty()) {
      const dbs3::Status written = WriteChromeTrace(flags.trace_out, spans);
      if (!written.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
        correct = false;
      } else {
        std::printf("trace: %zu spans -> %s\n", spans.size(),
                    flags.trace_out.c_str());
      }
    }
  }

  correct = correct && tally.failed() == 0 && tally.attempted > 0;
  if (!flags.trace) {
    PrintMetric({"failed_share", tally.failed_share(), "ratio"});
  }
  std::printf("attempted %llu  shed %llu  errors %llu  wrong rows %llu  "
              "failed_share %.6f\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.shed),
              static_cast<unsigned long long>(tally.errors),
              static_cast<unsigned long long>(tally.wrong_rows),
              tally.failed_share());
  std::printf("%s\n",
              ResultJson(correct, tally.attempted, tally.failed(), reported)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
