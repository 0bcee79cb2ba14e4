// Tests of the concurrent query runtime: worker pool, admission control
// (priority, shedding, memory budget), cooperative cancellation and
// deadlines, and the Database::Submit facade over the real engine.

#include "server/query_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/operators.h"
#include "esql/planner.h"
#include "sched/reassign.h"
#include "server/pool_load_board.h"
#include "server/shared/shared_query.h"
#include "server/shared/shared_scan.h"
#include "server/worker_pool.h"

namespace dbs3 {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// One-shot flag two threads meet on (tests only need set + spin-wait).
struct Latch {
  std::atomic<bool> flag{false};
  void Set() { flag.store(true); }
  void Await() const {
    while (!flag.load()) std::this_thread::sleep_for(milliseconds(1));
  }
};

/// A body that parks its driver until released — the tool for making
/// admission-queue states deterministic.
QueryBody Blocker(Latch* started, Latch* release) {
  return [started, release](QueryEnv&) -> Result<QueryResult> {
    started->Set();
    release->Await();
    return QueryResult{};
  };
}

/// A body scanning `rel` through `predicate` (filter -> store) on
/// `threads` total threads — with a slow or blocking predicate, the tool
/// for holding pool workers while other queries queue.
QueryBody ScanBody(Relation* rel, TuplePredicate predicate, size_t threads) {
  return [rel, predicate, threads](QueryEnv& env) -> Result<QueryResult> {
    auto result = std::make_unique<Relation>(
        "res", rel->schema(), rel->partition_column(),
        Partitioner(rel->partitioner().kind(), rel->degree()));
    Plan plan;
    const size_t filter = plan.AddNode(
        "filter", ActivationMode::kTriggered, rel->degree(),
        std::make_unique<FilterLogic>(rel, predicate, 1.0));
    const size_t store =
        plan.AddNode("store", ActivationMode::kPipelined, rel->degree(),
                     std::make_unique<StoreLogic>(result.get()));
    DBS3_RETURN_IF_ERROR(plan.ConnectSameInstance(filter, store));
    ScheduleOptions schedule;
    schedule.total_threads = threads;
    schedule.processors = threads;
    DBS3_ASSIGN_OR_RETURN(PhaseOutcome phase, env.Run(plan, schedule));
    QueryResult out;
    out.result = std::move(result);
    out.execution = std::move(phase.execution);
    return out;
  };
}

TEST(WorkerPoolTest, RunsDispatchedTasks) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<int> ran{0};
  Latch done;
  for (int i = 0; i < 16; ++i) {
    pool.Dispatch([&ran, &done] {
      if (ran.fetch_add(1) + 1 == 16) done.Set();
    });
  }
  done.Await();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.tasks_dispatched(), 16u);
}

TEST(QueryRuntimeTest, SubmitRunsBodyAndTakeIsOneShot) {
  QueryRuntime runtime;
  QuerySpec spec;
  spec.body = [](QueryEnv&) -> Result<QueryResult> {
    QueryResult out;
    out.detail = "ran";
    return out;
  };
  QueryHandle handle = runtime.Submit(std::move(spec));
  EXPECT_GT(handle.id(), 0u);
  auto taken = handle.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken.value().detail, "ran");
  EXPECT_TRUE(handle.done());
  // One-shot: the result was moved out.
  EXPECT_EQ(handle.Take().status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryRuntimeTest, PriorityOrdersTheAdmissionQueue) {
  QueryRuntimeOptions options;
  options.max_concurrent_queries = 1;  // One driver => strict ordering.
  QueryRuntime runtime(options);

  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = runtime.Submit(std::move(blocker));
  started.Await();

  std::mutex order_mu;
  std::vector<int> order;
  auto recorder = [&order_mu, &order](int tag) {
    return [&order_mu, &order, tag](QueryEnv&) -> Result<QueryResult> {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
      return QueryResult{};
    };
  };
  QuerySpec low;
  low.body = recorder(0);
  low.priority = 0;
  QuerySpec high;
  high.body = recorder(5);
  high.priority = 5;
  QueryHandle low_handle = runtime.Submit(std::move(low));
  QueryHandle high_handle = runtime.Submit(std::move(high));

  release.Set();
  ASSERT_TRUE(blocking.Take().ok());
  ASSERT_TRUE(high_handle.Take().ok());
  ASSERT_TRUE(low_handle.Take().ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 5);  // Higher priority left the queue first.
  EXPECT_EQ(order[1], 0);
}

TEST(QueryRuntimeTest, FullWaitingRoomShedsWithResourceExhausted) {
  QueryRuntimeOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 1;
  QueryRuntime runtime(options);

  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = runtime.Submit(std::move(blocker));
  started.Await();  // The blocker was popped; the waiting room is empty.

  QuerySpec queued;
  queued.body = [](QueryEnv&) -> Result<QueryResult> {
    return QueryResult{};
  };
  QueryHandle waiting = runtime.Submit(std::move(queued));

  std::atomic<bool> shed_body_ran{false};
  QuerySpec overflow;
  overflow.body = [&shed_body_ran](QueryEnv&) -> Result<QueryResult> {
    shed_body_ran.store(true);
    return QueryResult{};
  };
  QueryHandle shed = runtime.Submit(std::move(overflow));
  // The shed handle completes immediately, before the blocker releases.
  auto shed_result = shed.Take();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(shed_body_ran.load());

  release.Set();
  EXPECT_TRUE(blocking.Take().ok());
  EXPECT_TRUE(waiting.Take().ok());
}

TEST(QueryRuntimeTest, DeadlineExpiredWhileQueuedSkipsTheBody) {
  QueryRuntimeOptions options;
  options.max_concurrent_queries = 1;
  QueryRuntime runtime(options);

  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = runtime.Submit(std::move(blocker));
  started.Await();

  std::atomic<bool> body_ran{false};
  QuerySpec doomed;
  doomed.deadline = steady_clock::now() - milliseconds(1);
  doomed.body = [&body_ran](QueryEnv&) -> Result<QueryResult> {
    body_ran.store(true);
    return QueryResult{};
  };
  QueryHandle handle = runtime.Submit(std::move(doomed));

  release.Set();
  auto taken = handle.Take();
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(body_ran.load());
  EXPECT_TRUE(blocking.Take().ok());
}

TEST(QueryRuntimeTest, CancelWhileQueuedSkipsTheBody) {
  QueryRuntimeOptions options;
  options.max_concurrent_queries = 1;
  QueryRuntime runtime(options);

  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = runtime.Submit(std::move(blocker));
  started.Await();

  std::atomic<bool> body_ran{false};
  QuerySpec spec;
  spec.body = [&body_ran](QueryEnv&) -> Result<QueryResult> {
    body_ran.store(true);
    return QueryResult{};
  };
  QueryHandle handle = runtime.Submit(std::move(spec));
  handle.Cancel();

  release.Set();
  auto taken = handle.Take();
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(body_ran.load());
  EXPECT_TRUE(blocking.Take().ok());
}

TEST(QueryRuntimeTest, CancelAfterCompletionIsANoOp) {
  QueryRuntime runtime;
  QuerySpec spec;
  spec.body = [](QueryEnv&) -> Result<QueryResult> {
    return QueryResult{};
  };
  QueryHandle handle = runtime.Submit(std::move(spec));
  handle.Wait();
  handle.Cancel();  // Already done: must not disturb the stored outcome.
  EXPECT_TRUE(handle.Take().ok());
}

TEST(QueryRuntimeTest, MemoryBudgetGatesAdmissionUntilRelease) {
  QueryRuntimeOptions options;
  options.max_concurrent_queries = 2;
  options.memory_budget_units = 10;
  QueryRuntime runtime(options);

  Latch started, release;
  QuerySpec big;
  big.memory_units = 10;  // Takes the whole budget.
  big.body = Blocker(&started, &release);
  QueryHandle big_handle = runtime.Submit(std::move(big));
  started.Await();

  QuerySpec small;
  small.memory_units = 5;
  small.body = [](QueryEnv&) -> Result<QueryResult> {
    return QueryResult{};
  };
  QueryHandle small_handle = runtime.Submit(std::move(small));
  // A driver is free, but the budget is exhausted: the query waits
  // (admission-gated), it is not shed.
  EXPECT_FALSE(small_handle.WaitFor(milliseconds(50)));

  release.Set();
  ASSERT_TRUE(big_handle.Take().ok());
  ASSERT_TRUE(small_handle.Take().ok());

  // A declaration larger than the whole budget can never be satisfied:
  // it is shed at enqueue with ResourceExhausted instead of being
  // silently clamped (clamping let the query run unconstrained past the
  // budget it over-declared against).
  std::atomic<bool> huge_body_ran{false};
  QuerySpec huge;
  huge.memory_units = 100;
  huge.body = [&huge_body_ran](QueryEnv&) -> Result<QueryResult> {
    huge_body_ran.store(true);
    return QueryResult{};
  };
  auto huge_result = runtime.Submit(std::move(huge)).Take();
  ASSERT_FALSE(huge_result.ok());
  EXPECT_EQ(huge_result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(huge_body_ran.load());
  EXPECT_NE(huge_result.status().message().find("memory_units"),
            std::string::npos)
      << huge_result.status().ToString();

  // A declaration exactly at the budget still runs.
  QuerySpec exact;
  exact.memory_units = 10;
  exact.body = [](QueryEnv&) -> Result<QueryResult> {
    return QueryResult{};
  };
  EXPECT_TRUE(runtime.Submit(std::move(exact)).Take().ok());
}

TEST(QueryRuntimeTest, CancellingABudgetBlockedQueryHandsItOutPromptly) {
  QueryRuntimeOptions options;
  options.max_concurrent_queries = 2;
  options.memory_budget_units = 10;
  QueryRuntime runtime(options);

  Latch started, release;
  QuerySpec big;
  big.memory_units = 10;  // Takes the whole budget and parks.
  big.body = Blocker(&started, &release);
  QueryHandle big_handle = runtime.Submit(std::move(big));
  started.Await();

  // Blocked in PopNext on the exhausted budget; a free driver is parked
  // on the admission cv with no deadline to poll for.
  std::atomic<bool> body_ran{false};
  QuerySpec gated;
  gated.memory_units = 5;
  gated.body = [&body_ran](QueryEnv&) -> Result<QueryResult> {
    body_ran.store(true);
    return QueryResult{};
  };
  QueryHandle gated_handle = runtime.Submit(std::move(gated));
  EXPECT_FALSE(gated_handle.WaitFor(milliseconds(20)));

  // Cancel must wake the parked driver (the cancel_notify hook), which
  // hands the query out and completes it with Cancelled without running
  // the body — promptly, not after some poll interval.
  gated_handle.Cancel();
  EXPECT_TRUE(gated_handle.WaitFor(std::chrono::seconds(5)));
  auto taken = gated_handle.Take();
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(body_ran.load());

  release.Set();
  EXPECT_TRUE(big_handle.Take().ok());
}

TEST(QueryRuntimeTest, RuntimeMetricsCountOutcomes) {
  MetricsRegistry metrics;
  {
    QueryRuntimeOptions options;
    options.metrics = &metrics;
    QueryRuntime runtime(options);
    QuerySpec ok_spec;
    ok_spec.body = [](QueryEnv&) -> Result<QueryResult> {
      return QueryResult{};
    };
    runtime.Submit(std::move(ok_spec)).Wait();

    QuerySpec cancelled_spec;
    CancelToken token;
    token.Cancel();
    cancelled_spec.cancel = token;
    cancelled_spec.body = [](QueryEnv& env) -> Result<QueryResult> {
      DBS3_RETURN_IF_ERROR(env.CheckCancelled());
      return QueryResult{};
    };
    runtime.Submit(std::move(cancelled_spec)).Wait();
  }
  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters["runtime.queries_submitted"], 2u);
  EXPECT_EQ(snap.counters["runtime.queries_completed"], 1u);
  EXPECT_EQ(snap.counters["runtime.queries_cancelled"], 1u);
  EXPECT_EQ(snap.series["runtime.admission_wait_us"].samples, 2u);
}

TEST(SchedulerFeedbackTest, UtilizationScalesWithLiveQueries) {
  EXPECT_DOUBLE_EQ(MultiUserUtilization(0), 1.0);
  EXPECT_DOUBLE_EQ(MultiUserUtilization(1), 1.0);
  EXPECT_DOUBLE_EQ(MultiUserUtilization(4), 0.25);

  ScheduleOptions fixed;
  fixed.total_threads = 8;
  EXPECT_EQ(ApplyUtilization(fixed, 0.25).total_threads, 2u);
  EXPECT_EQ(ApplyUtilization(fixed, 1e-12).total_threads, 1u);  // Floor.

  ScheduleOptions derived;
  derived.total_threads = 0;
  derived.utilization = 0.8;
  EXPECT_DOUBLE_EQ(ApplyUtilization(derived, 0.5).utilization, 0.4);
}

// ---------------------------------------------------------------------
// Real-engine integration through the Database facade.

TEST(DatabaseSubmitTest, SubmitSelectRunsOnSharedRuntime) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 1'000;
  opt.degree = 4;
  ASSERT_TRUE(db.CreateWisconsin("t", opt).ok());

  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  QueryHandle select =
      SubmitSelect(db, "t", MatchAll(), 1.0, options);
  auto taken = select.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken.value().result->cardinality(), 1'000u);
  const QueryRunStats stats = select.stats();
  EXPECT_EQ(stats.phases, 1u);
  EXPECT_GT(stats.units_processed, 0u);
  EXPECT_GE(stats.execution_seconds, 0.0);

  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GE(snap.counters["runtime.queries_submitted"], 1u);
  EXPECT_GE(snap.counters["runtime.queries_completed"], 1u);
  // The runtime records the query's work once, from its run stats.
  EXPECT_EQ(snap.counters["engine.tuple_units"], stats.units_processed);
}

TEST(DatabaseSubmitTest, CancelMidPipelineDrainsAndReportsPartialWork) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 4'000;
  opt.degree = 8;
  ASSERT_TRUE(db.CreateWisconsin("t", opt).ok());
  Relation* rel = db.relation("t").value();

  // The filter parks the first worker on its first tuple; everything
  // still queued when the cancel fires must drain into the cancelled
  // ledger bucket (verified by the DBS3_VERIFY conservation check on
  // executor exit in verify builds).
  Latch started, release;
  TuplePredicate parked = [&started, &release](const Tuple&) {
    started.Set();
    release.Await();
    return true;
  };

  QuerySpec spec;
  spec.body = [rel, parked](QueryEnv& env) -> Result<QueryResult> {
    auto result = std::make_unique<Relation>(
        "res", rel->schema(), rel->partition_column(),
        Partitioner(rel->partitioner().kind(), rel->degree()));
    Plan plan;
    const size_t filter = plan.AddNode(
        "filter", ActivationMode::kTriggered, rel->degree(),
        std::make_unique<FilterLogic>(rel, parked, 1.0));
    const size_t store =
        plan.AddNode("store", ActivationMode::kPipelined, rel->degree(),
                     std::make_unique<StoreLogic>(result.get()));
    DBS3_RETURN_IF_ERROR(plan.ConnectSameInstance(filter, store));
    ScheduleOptions schedule;
    schedule.total_threads = 2;
    schedule.processors = 2;
    DBS3_ASSIGN_OR_RETURN(PhaseOutcome phase, env.Run(plan, schedule));
    QueryResult out;
    out.result = std::move(result);
    out.execution = std::move(phase.execution);
    return out;
  };
  QueryHandle handle = db.Submit(std::move(spec));
  started.Await();
  handle.Cancel();
  release.Set();

  auto taken = handle.Take();
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kCancelled);
  const QueryRunStats stats = handle.stats();
  EXPECT_EQ(stats.phases, 1u);  // The interrupted phase still counts.
  EXPECT_GT(stats.units_cancelled, 0u);  // Drained, not lost.

  // The budget/slots were released: the database still runs queries.
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  auto after = RunSelect(db, "t", MatchAll(), 1.0, options);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().result->cardinality(), 4'000u);

  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GE(snap.counters["runtime.queries_cancelled"], 1u);
  EXPECT_GT(snap.counters["engine.units_cancelled"], 0u);
}

TEST(DatabaseSubmitTest, SubmitEsqlReportsRepartitionPhases) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 100;
  spec.degree = 8;
  spec.theta = 0.3;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "Bp").ok());
  // B repartitioned on payload: a materialization boundary runs as an
  // extra phase through the same runtime.
  auto misaligned = std::make_unique<Relation>(
      "mis", Schema({{"key", ValueType::kInt64},
                     {"grp", ValueType::kInt64}}),
      1, Partitioner(PartitionKind::kHash, 8));
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(misaligned->Insert(Tuple({Value(k), Value(k % 5)})).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(misaligned)).ok());

  EsqlOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  QueryHandle handle = SubmitEsql(
      db, "SELECT * FROM mis JOIN A ON mis.key = A.payload", options);
  auto taken = handle.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_NE(taken.value().detail.find("repartition"), std::string::npos)
      << taken.value().detail;
  EXPECT_EQ(taken.value().phases.size(), 1u);  // One materialization.
  EXPECT_EQ(handle.stats().phases, 2u);  // Repartition + final pipeline.
  // An ESQL query's work, both phases of it, reaches the database totals.
  EXPECT_GT(handle.stats().units_processed, 0u);
  EXPECT_EQ(db.metrics().Snapshot().counters["engine.tuple_units"],
            handle.stats().units_processed);
}

TEST(DatabaseSubmitTest, SubmitEsqlSurfacesParseErrorsThroughHandle) {
  Database db(2);
  QueryHandle handle = SubmitEsql(db, "SELEC nonsense", EsqlOptions{});
  auto taken = handle.Take();
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseSubmitTest, SubmitEsqlSurfacesOutOfRangeLiteralThroughHandle) {
  // The literal is lexed on the caller's thread: an out-of-range integer
  // must come back as a Status on the handle, not escape as an exception.
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 1'000;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryHandle bad = SubmitEsql(
      db, "SELECT * FROM w WHERE unique1 = 99999999999999999999",
      EsqlOptions{});
  auto failed = bad.Take();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);

  auto next =
      SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 10", EsqlOptions{})
          .Take();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().result->cardinality(), 10u);
}

TEST(DatabaseTest, DatabaseIsNeitherCopyableNorMovable) {
  static_assert(!std::is_copy_constructible_v<Database>);
  static_assert(!std::is_copy_assignable_v<Database>);
  static_assert(!std::is_move_constructible_v<Database>);
  static_assert(!std::is_move_assignable_v<Database>);
}

// ---------------------------------------------------------------------
// Shared-work execution: multi-query shared scans.

std::vector<Tuple> SortedRows(const Relation& rel) {
  std::vector<Tuple> rows = rel.Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A query whose shared spec is built by hand in share class 42, so specs
/// the planner would keep apart (a projection beside whole-row members)
/// still fold into one batch. Its body fails: an OK result proves the
/// query ran its shared scan. Two workers let the fragments' passes
/// overlap.
QuerySpec HandBuiltSharedQuery(const Relation* rel, Predicate predicate,
                               std::vector<size_t> projection = {}) {
  auto shared = std::make_shared<SharedScanSpec>();
  shared->relation = rel;
  shared->predicate = std::move(predicate);
  if (projection.empty()) {
    shared->result_schema = rel->schema();
  } else {
    std::vector<Column> columns;
    for (size_t c : projection) columns.push_back(rel->schema().column(c));
    shared->result_schema = Schema(std::move(columns));
  }
  shared->projection = std::move(projection);
  shared->schedule.total_threads = 2;
  shared->schedule.processors = 2;
  shared->share_class = 42;
  QuerySpec spec;
  spec.shared = std::move(shared);
  spec.body = [](QueryEnv&) -> Result<QueryResult> {
    return Status::Internal("expected the batch path, got a solo run");
  };
  return spec;
}

TEST(SharedScanTest, DeadlineExpiringInTheWindowShedsNotRides) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryRuntimeOptions ropt;
  ropt.max_concurrent_queries = 1;  // One driver => one batch window.
  ropt.shared_batch_max_queries = 8;
  ropt.shared_batch_window_us = 150'000;  // Far beyond q2's deadline.
  ASSERT_TRUE(db.StartRuntime(ropt).ok());

  // Park the driver so both queries are queued before the window opens.
  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = db.Submit(std::move(blocker));
  started.Await();

  EsqlOptions options;
  QueryHandle q1 = SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 100",
                              options);
  EsqlOptions with_deadline = options;
  with_deadline.deadline = steady_clock::now() + milliseconds(40);
  QueryHandle q2 = SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 500",
                              with_deadline);
  release.Set();
  ASSERT_TRUE(blocking.Take().ok());

  // q2's deadline fires ~40ms into the 150ms window: it must be shed with
  // DeadlineExceeded, not ride the batch to a late result.
  auto q2_taken = q2.Take();
  ASSERT_FALSE(q2_taken.ok());
  EXPECT_EQ(q2_taken.status().code(), StatusCode::kDeadlineExceeded);

  // q1, the sole survivor, runs as a batch of one — correct rows, no
  // shared batch recorded anywhere.
  auto q1_taken = q1.Take();
  ASSERT_TRUE(q1_taken.ok()) << q1_taken.status().ToString();
  Relation* rel = db.relation("w").value();
  std::vector<Tuple> expected;
  for (const Tuple& t : rel->Scan()) {
    if (t.at(0).AsInt() < 100) expected.push_back(t);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedRows(*q1_taken.value().result), expected);
  EXPECT_EQ(q1.stats().shared_batch_queries, 0u);
  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_EQ(snap.counters["runtime.shared_batches"], 0u);
}

TEST(SharedScanTest, CancellingOneMemberMidBatchLeavesTheOthersIntact) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 800;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryRuntimeOptions ropt;
  ropt.max_concurrent_queries = 1;
  ropt.shared_batch_max_queries = 8;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());
  Relation* rel = db.relation("w").value();

  // q1's predicate parks the scan workers mid-pass so the main thread can
  // cancel q2 while the batch is running.
  Latch started, release;
  TuplePredicate parked = [&started, &release](const Tuple&) {
    started.Set();
    release.Await();
    return true;
  };
  // Park the driver so both members are queued when the batch forms.
  Latch b_started, b_release;
  QuerySpec blocker;
  blocker.body = Blocker(&b_started, &b_release);
  QueryHandle blocking = db.Submit(std::move(blocker));
  b_started.Await();
  QueryHandle q1 = db.Submit(HandBuiltSharedQuery(rel, Predicate(parked)));
  QueryHandle q2 = db.Submit(HandBuiltSharedQuery(rel, MatchAll()));
  b_release.Set();
  ASSERT_TRUE(blocking.Take().ok());

  started.Await();  // The shared pass is underway (parked on q1's pred).
  q2.Cancel();
  release.Set();

  // q2 is gone, q1 is whole: one member's cancel stops only its share of
  // the pass, and the rows q2 stored before its token fired are discarded
  // with its Cancelled result.
  auto q2_taken = q2.Take();
  ASSERT_FALSE(q2_taken.ok());
  EXPECT_EQ(q2_taken.status().code(), StatusCode::kCancelled);
  auto q1_taken = q1.Take();
  ASSERT_TRUE(q1_taken.ok()) << q1_taken.status().ToString();
  EXPECT_EQ(SortedRows(*q1_taken.value().result), SortedRows(*rel));
  EXPECT_EQ(q1.stats().shared_batch_queries, 2u);
  EXPECT_EQ(q2.stats().shared_batch_queries, 2u);
  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_EQ(snap.counters["runtime.shared_batches"], 1u);
}

TEST(SharedScanTest, IncompatibleQueryIsNeverFoldedIntoABatch) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryRuntimeOptions ropt;
  ropt.max_concurrent_queries = 1;
  ropt.shared_batch_max_queries = 8;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());

  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = db.Submit(std::move(blocker));
  started.Await();

  // qa, qb and qd share a class (same relation, star projection); qc
  // projects two columns — a different shape, so a different class.
  EsqlOptions options;
  QueryHandle qa = SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 50",
                              options);
  QueryHandle qb = SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 150",
                              options);
  QueryHandle qc = SubmitEsql(
      db, "SELECT unique1, unique2 FROM w WHERE unique1 < 150", options);
  QueryHandle qd = SubmitEsql(db, "SELECT * FROM w WHERE unique1 >= 1900",
                              options);
  release.Set();
  ASSERT_TRUE(blocking.Take().ok());

  auto qa_taken = qa.Take();
  auto qb_taken = qb.Take();
  auto qc_taken = qc.Take();
  auto qd_taken = qd.Take();
  ASSERT_TRUE(qa_taken.ok()) << qa_taken.status().ToString();
  ASSERT_TRUE(qb_taken.ok()) << qb_taken.status().ToString();
  ASSERT_TRUE(qc_taken.ok()) << qc_taken.status().ToString();
  ASSERT_TRUE(qd_taken.ok()) << qd_taken.status().ToString();

  // qa/qb/qd rode one batch; qc ran solo and is row-identical to the solo
  // reference computed straight off the base relation.
  EXPECT_EQ(qa.stats().shared_batch_queries, 3u);
  EXPECT_EQ(qb.stats().shared_batch_queries, 3u);
  EXPECT_EQ(qd.stats().shared_batch_queries, 3u);
  EXPECT_EQ(qc.stats().shared_batch_queries, 0u);
  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_EQ(snap.counters["runtime.shared_batches"], 1u);
  EXPECT_EQ(snap.series["shared.queries_per_batch"].samples, 1u);
  EXPECT_EQ(snap.series["shared.queries_per_batch"].last, 3);
  // The batch members' work and the solo query's reach the database
  // totals alike (the blocker ran no phase).
  EXPECT_EQ(qd_taken.value().result->cardinality(), 100u);
  EXPECT_EQ(snap.counters["engine.tuple_units"],
            qa.stats().units_processed + qb.stats().units_processed +
                qc.stats().units_processed + qd.stats().units_processed);
  EXPECT_GT(qc.stats().units_processed, 0u);

  Relation* rel = db.relation("w").value();
  std::vector<Tuple> qb_expected;
  std::vector<Tuple> qc_expected;
  for (const Tuple& t : rel->Scan()) {
    if (t.at(0).AsInt() >= 150) continue;
    qb_expected.push_back(t);
    qc_expected.push_back(Tuple(std::vector<Value>{t.at(0), t.at(1)}));
  }
  std::sort(qb_expected.begin(), qb_expected.end());
  std::sort(qc_expected.begin(), qc_expected.end());
  EXPECT_EQ(SortedRows(*qb_taken.value().result), qb_expected);
  EXPECT_EQ(SortedRows(*qc_taken.value().result), qc_expected);
}

TEST(SharedScanTest, DeclaredMemoryScanQueriesFoldAndReturnTheirCharge) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryRuntimeOptions ropt;
  ropt.max_concurrent_queries = 1;
  ropt.memory_budget_units = 100;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());
  Relation* rel = db.relation("w").value();

  // Park the driver so the three declared-memory queries queue together.
  Latch started, release;
  QuerySpec blocker;
  blocker.body = Blocker(&started, &release);
  QueryHandle blocking = db.Submit(std::move(blocker));
  started.Await();
  EsqlOptions options;
  options.memory_units = 10;
  const int64_t limits[] = {100, 700, 1500};
  std::vector<QueryHandle> handles;
  for (const int64_t limit : limits) {
    handles.push_back(SubmitEsql(
        db, "SELECT * FROM w WHERE unique1 < " + std::to_string(limit),
        options));
  }
  release.Set();
  ASSERT_TRUE(blocking.Take().ok());

  for (size_t i = 0; i < handles.size(); ++i) {
    auto taken = handles[i].Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_EQ(handles[i].stats().shared_batch_queries, 3u);
    std::vector<Tuple> expected;
    for (const Tuple& t : rel->Scan()) {
      if (t.at(0).AsInt() < limits[i]) expected.push_back(t);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(SortedRows(*taken.value().result), expected);
  }

  // The batch returned every member's charge: a query declaring the whole
  // budget admits. A leaked charge fails it at its deadline.
  EsqlOptions whole = options;
  whole.memory_units = 100;
  whole.deadline = steady_clock::now() + std::chrono::seconds(5);
  auto last = ExecuteEsql(db, "SELECT * FROM w WHERE unique1 < 10", whole);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value().result->cardinality(), 10u);
}

/// The naive reference for a scan-only query: base fragment f of `rel`
/// kept by `keep` and projected onto `projection` (the whole row when
/// empty), in base-fragment order.
std::vector<Tuple> NaiveFragment(const Relation& rel, size_t f,
                                 const TuplePredicate& keep,
                                 const std::vector<size_t>& projection) {
  std::vector<Tuple> rows;
  for (const Tuple& t : rel.fragment(f).tuples) {
    if (!keep(t)) continue;
    if (projection.empty()) {
      rows.push_back(t);
      continue;
    }
    std::vector<Value> values;
    for (size_t c : projection) values.push_back(t.at(c));
    rows.push_back(Tuple(std::move(values)));
  }
  return rows;
}

TEST(SharedScanTest, BatchIsOneNodeAndMatchesSoloFragmentForFragment) {
  // The members' predicates as the planner types them, then each wrapped
  // as an opaque row leaf: the reference that runs none of the kernels.
  for (const bool opaque : {false, true}) {
    SCOPED_TRACE(opaque ? "opaque row leaves" : "typed leaves");
    Database db(2);
    WisconsinOptions opt;
    opt.cardinality = 5'000;  // Two fragments of three 1024-row tiles.
    opt.degree = 2;
    ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
    QueryRuntimeOptions ropt;
    ropt.max_concurrent_queries = 1;
    ropt.shared_batch_max_queries = 8;
    ASSERT_TRUE(db.StartRuntime(ropt).ok());
    Relation* rel = db.relation("w").value();

    // The ESQL members carry the spec the planner builds for their text
    // (the lowered PredExpr, the projection and the result schema) and the
    // plain C++ condition the naive reference keeps rows by.
    struct EsqlMember {
      const char* text;
      Predicate predicate;
      std::vector<size_t> projection;
      TuplePredicate keep;
    };
    const auto unique1 = [](const Tuple& t) { return t.at(0).AsInt(); };
    const std::vector<EsqlMember> esql = {
        {"SELECT * FROM w WHERE unique1 = 1234", PredExpr::IntEquals(0, 1234),
         {},
         [&](const Tuple& t) { return unique1(t) == 1234; }},
        {"SELECT * FROM w WHERE unique1 >= 1000 AND unique1 < 3000",
         PredExpr::And({PredExpr::IntGreaterEq(0, 1000),
                        PredExpr::IntLess(0, 3000)}),
         {},
         [&](const Tuple& t) {
           return unique1(t) >= 1000 && unique1(t) < 3000;
         }},
        {"SELECT unique2, unique1 FROM w WHERE unique1 < 2500",
         PredExpr::IntLess(0, 2500),
         {1, 0},
         [&](const Tuple& t) { return unique1(t) < 2500; }},
    };
    const TuplePredicate row_form = [](const Tuple& t) {
      return t.at(0).AsInt() % 7 == 3;
    };

    Latch started, release;
    QuerySpec blocker;
    blocker.body = Blocker(&started, &release);
    QueryHandle blocking = db.Submit(std::move(blocker));
    started.Await();
    std::vector<QueryHandle> handles;
    for (const EsqlMember& m : esql) {
      Predicate predicate = m.predicate;
      if (opaque) {
        predicate = [typed = m.predicate](const Tuple& t) {
          return typed.EvalRow(t);
        };
      }
      handles.push_back(db.Submit(
          HandBuiltSharedQuery(rel, std::move(predicate), m.projection)));
    }
    handles.push_back(
        db.Submit(HandBuiltSharedQuery(rel, Predicate(row_form), {})));
    release.Set();
    ASSERT_TRUE(blocking.Take().ok());

    std::vector<QueryResult> results;
    for (QueryHandle& h : handles) {
      auto taken = h.Take();
      ASSERT_TRUE(taken.ok()) << taken.status().ToString();
      EXPECT_EQ(h.stats().shared_batch_queries, handles.size());
      results.push_back(std::move(taken).value());
    }

    // One node, one control activation per fragment, no data activations.
    const ExecutionResult& batch = results.front().execution;
    ASSERT_EQ(batch.op_stats.size(), 1u);
    EXPECT_EQ(batch.op_stats[0].activations, rel->degree());

    for (size_t i = 0; i < esql.size(); ++i) {
      SCOPED_TRACE(esql[i].text);
      // Run alone, after the batch: a lone query never folds, and it runs
      // the same one-node scan as a batch of one.
      QueryHandle lone = SubmitEsql(db, esql[i].text);
      auto alone = lone.Take();
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      EXPECT_EQ(lone.stats().shared_batch_queries, 0u);
      const ExecutionResult& solo = alone.value().execution;
      ASSERT_EQ(solo.op_stats.size(), 1u);
      EXPECT_EQ(solo.op_stats[0].activations, rel->degree());

      const Relation& shared = *results[i].result;
      const Relation& reference = *alone.value().result;
      EXPECT_EQ(shared.schema(), reference.schema());
      ASSERT_EQ(shared.degree(), rel->degree());
      ASSERT_EQ(reference.degree(), rel->degree());
      size_t expected_rows = 0;
      for (size_t f = 0; f < rel->degree(); ++f) {
        const std::vector<Tuple> expected =
            NaiveFragment(*rel, f, esql[i].keep, esql[i].projection);
        EXPECT_EQ(shared.fragment(f).tuples, expected) << "fragment " << f;
        EXPECT_EQ(reference.fragment(f).tuples, expected)
            << "fragment " << f;
        expected_rows += expected.size();
      }
      EXPECT_EQ(handles[i].stats().units_processed, expected_rows);
      EXPECT_EQ(lone.stats().units_processed, expected_rows);
    }
    EXPECT_GT(results[1].result->cardinality(), 0u);

    const Relation& filtered = *results.back().result;
    ASSERT_EQ(filtered.degree(), rel->degree());
    for (size_t f = 0; f < rel->degree(); ++f) {
      EXPECT_EQ(filtered.fragment(f).tuples,
                NaiveFragment(*rel, f, row_form, {}))
          << "fragment " << f;
    }
  }
}

/// Fragments of 1, 2, 3 and 40 rows, schema (k, v).
std::unique_ptr<Relation> MixedFragmentRelation() {
  auto rel = std::make_unique<Relation>(
      "mixed", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
      0, Partitioner(PartitionKind::kModulo, 4));
  const size_t sizes[4] = {1, 2, 3, 40};
  for (size_t f = 0; f < 4; ++f) {
    for (size_t i = 0; i < sizes[f]; ++i) {
      const int64_t k = static_cast<int64_t>(f + 4 * i);
      EXPECT_TRUE(rel->Insert(Tuple({Value(k), Value(k % 3)})).ok());
    }
  }
  return rel;
}

/// A whole-row member over `rel` keeping the rows `predicate` selects.
SharedScanSpec SpecOver(const Relation& rel, Predicate predicate) {
  SharedScanSpec spec;
  spec.relation = &rel;
  spec.predicate = std::move(predicate);
  spec.result_schema = rel.schema();
  return spec;
}

TEST(SharedScanTest, TinyFragmentsSelectLikeOpaqueRowLeaves) {
  // Fragments below kMinBatchRows run SelectRows' EvalRow loop, the 40-row
  // one its kernels; a typed member and its opaque twin must store the
  // same rows in every fragment.
  const std::unique_ptr<Relation> rel = MixedFragmentRelation();
  const PredExpr typed = PredExpr::And(
      {PredExpr::IntNotEquals(1, 0), PredExpr::IntLess(0, 100)});
  const SharedScanSpec typed_spec = SpecOver(*rel, typed);
  const SharedScanSpec opaque_spec = SpecOver(
      *rel, [typed](const Tuple& t) { return typed.EvalRow(t); });
  SharedScanLogic scan(rel.get(), {&typed_spec, &opaque_spec},
                       {CancelToken(), CancelToken()});
  ASSERT_TRUE(scan.Prepare(rel->degree()).ok());
  for (size_t f = 0; f < rel->degree(); ++f) scan.OnTrigger(f, nullptr);
  const std::unique_ptr<Relation> typed_sink = scan.TakeResult(0);
  const std::unique_ptr<Relation> opaque_sink = scan.TakeResult(1);
  size_t kept = 0;
  for (size_t f = 0; f < rel->degree(); ++f) {
    std::vector<Tuple> expected;
    for (const Tuple& t : rel->fragment(f).tuples) {
      if (t.at(1).AsInt() != 0 && t.at(0).AsInt() < 100) {
        expected.push_back(t);
      }
    }
    EXPECT_EQ(typed_sink->fragment(f).tuples, expected) << "fragment " << f;
    EXPECT_EQ(opaque_sink->fragment(f).tuples, expected) << "fragment " << f;
    kept += expected.size();
  }
  EXPECT_GT(kept, 0u);
}

TEST(SharedScanTest, PrepareRefusesAMemberWithAnEmptyRowTest) {
  const std::unique_ptr<Relation> rel = MixedFragmentRelation();
  // Default predicate: keeps every row.
  const SharedScanSpec keep_all = SpecOver(*rel, Predicate());
  const SharedScanSpec empty_test = SpecOver(*rel, TuplePredicate());
  SharedScanLogic scan(rel.get(), {&keep_all, &empty_test},
                       {CancelToken(), CancelToken()});
  EXPECT_EQ(scan.Prepare(rel->degree()).code(),
            StatusCode::kInvalidArgument);
}

TEST(SharedScanTest, PrepareRefusesAForeignOrOutOfRangeMember) {
  // The runtime folds queries by share class alone; the scan itself checks
  // that each member scans its input and projects only the input's
  // columns.
  const std::unique_ptr<Relation> rel = MixedFragmentRelation();
  const std::unique_ptr<Relation> other = MixedFragmentRelation();
  const SharedScanSpec own = SpecOver(*rel, Predicate());
  const SharedScanSpec foreign = SpecOver(*other, Predicate());
  SharedScanLogic with_foreign(rel.get(), {&own, &foreign},
                               {CancelToken(), CancelToken()});
  EXPECT_EQ(with_foreign.Prepare(rel->degree()).code(),
            StatusCode::kInvalidArgument);

  SharedScanSpec past_end = SpecOver(*rel, Predicate());
  past_end.projection = {1, rel->schema().num_columns()};
  past_end.result_schema =
      Schema({{"v", ValueType::kInt64}, {"x", ValueType::kInt64}});
  SharedScanLogic with_past_end(rel.get(), {&own, &past_end},
                                {CancelToken(), CancelToken()});
  EXPECT_EQ(with_past_end.Prepare(rel->degree()).code(),
            StatusCode::kInvalidArgument);

  // The same members over their own relation and columns prepare.
  past_end.projection = {1, 0};
  SharedScanLogic in_range(rel.get(), {&own, &past_end},
                           {CancelToken(), CancelToken()});
  EXPECT_TRUE(in_range.Prepare(rel->degree()).ok());
}

TEST(SharedScanTest, CancelledLeadHandsTheSlotReservationToALiveMember) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryRuntimeOptions ropt;
  ropt.pool_threads = 2;
  ropt.max_concurrent_queries = 2;
  ropt.shared_batch_max_queries = 2;            // The follower closes it.
  ropt.shared_batch_window_us = 10'000'000;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());
  Relation* rel = db.relation("w").value();

  // A parked filter -> store scan holds both pool slots.
  Latch started, release;
  TuplePredicate parked = [&started, &release](const Tuple&) {
    started.Set();
    release.Await();
    return true;
  };
  QuerySpec blocker;
  blocker.body = ScanBody(rel, parked, /*threads=*/2);
  QueryHandle blocking = db.Submit(std::move(blocker));
  started.Await();

  EsqlOptions options;
  QueryHandle lead =
      SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 100", options);
  QueryHandle follower =
      SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 300", options);

  // The batch counts as one live query beside the blocker from the moment
  // it has shed dead members; it then waits for a pool slot.
  while (db.runtime().live_queries() < 2) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::this_thread::sleep_for(milliseconds(20));
  lead.Cancel();

  // The follower keeps waiting for the pool instead of running on private
  // threads beside it.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(follower.done());
  release.Set();
  ASSERT_TRUE(blocking.Take().ok());

  auto lead_taken = lead.Take();
  ASSERT_FALSE(lead_taken.ok());
  EXPECT_EQ(lead_taken.status().code(), StatusCode::kCancelled);
  auto follower_taken = follower.Take();
  ASSERT_TRUE(follower_taken.ok()) << follower_taken.status().ToString();
  EXPECT_TRUE(follower.stats().used_shared_pool);
  EXPECT_EQ(follower.stats().shared_batch_queries, 2u);
  std::vector<Tuple> expected;
  for (const Tuple& t : rel->Scan()) {
    if (t.at(0).AsInt() < 300) expected.push_back(t);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedRows(*follower_taken.value().result), expected);
}

TEST(SharedScanTest, BatchWhoseMembersAllCancelWhileWaitingForSlotsNeverRuns) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
  QueryRuntimeOptions ropt;
  ropt.pool_threads = 2;
  ropt.max_concurrent_queries = 2;
  ropt.shared_batch_max_queries = 2;            // The second member closes it.
  ropt.shared_batch_window_us = 10'000'000;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());
  Relation* rel = db.relation("w").value();

  // A parked filter -> store scan holds both pool slots.
  Latch started, release;
  TuplePredicate parked = [&started, &release](const Tuple&) {
    started.Set();
    release.Await();
    return true;
  };
  QuerySpec blocker;
  blocker.body = ScanBody(rel, parked, /*threads=*/2);
  QueryHandle blocking = db.Submit(std::move(blocker));
  started.Await();

  EsqlOptions options;
  QueryHandle q1 =
      SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 100", options);
  QueryHandle q2 =
      SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 300", options);

  // The batch counts as one live query beside the blocker once it formed;
  // it then waits for the pool.
  while (db.runtime().live_queries() < 2) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::this_thread::sleep_for(milliseconds(20));
  q1.Cancel();
  q2.Cancel();

  // With every member cancelled the batch gives up its slot wait: both
  // handles complete while the blocker still holds the pool.
  EXPECT_TRUE(q1.WaitFor(std::chrono::seconds(2)));
  EXPECT_TRUE(q2.WaitFor(std::chrono::seconds(2)));
  EXPECT_FALSE(blocking.done());
  release.Set();
  ASSERT_TRUE(blocking.Take().ok());

  for (QueryHandle* q : {&q1, &q2}) {
    auto taken = q->Take();
    ASSERT_FALSE(taken.ok());
    EXPECT_EQ(taken.status().code(), StatusCode::kCancelled);
  }
  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_EQ(snap.counters["runtime.shared_batches"], 0u);
}

TEST(QueryRuntimeTest, PhaseFailingBeforeItsWorkersStartReturnsItsSlots) {
  for (const uint64_t interval_us : {uint64_t{0}, uint64_t{500}}) {
    SCOPED_TRACE(interval_us);
    Database db(2);
    WisconsinOptions opt;
    opt.cardinality = 2'000;
    opt.degree = 2;
    ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
    QueryRuntimeOptions ropt;
    ropt.pool_threads = 2;
    ropt.max_concurrent_queries = 1;
    ropt.rebalance_interval_us = interval_us;
    ASSERT_TRUE(db.StartRuntime(ropt).ok());
    Relation* rel = db.relation("w").value();
    // A slot leaked by an earlier phase parks a later reservation until
    // its deadline instead of hanging the test.
    const auto deadline = [] {
      return steady_clock::now() + milliseconds(5000);
    };

    // Each select reserves the whole pool, then fails in Prepare before any
    // worker starts.
    QueryOptions select;
    select.schedule.total_threads = 2;
    select.schedule.processors = 2;
    for (int i = 0; i < 3; ++i) {
      select.deadline = deadline();
      auto failed =
          RunSelect(db, "w", Predicate(TuplePredicate()), 1.0, select);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
    }

    // A shared batch reserves and runs after them. The blocker parks the
    // one driver so both members are queued when the batch forms.
    Latch b_started, b_release;
    QuerySpec blocker;
    blocker.body = Blocker(&b_started, &b_release);
    QueryHandle blocking = db.Submit(std::move(blocker));
    b_started.Await();
    EsqlOptions options;
    options.deadline = deadline();
    const int64_t bounds[] = {100, 300};
    QueryHandle members[] = {
        SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 100", options),
        SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 300", options)};
    b_release.Set();
    ASSERT_TRUE(blocking.Take().ok());
    for (size_t i = 0; i < 2; ++i) {
      auto taken = members[i].Take();
      ASSERT_TRUE(taken.ok()) << taken.status().ToString();
      EXPECT_EQ(members[i].stats().shared_batch_queries, 2u);
      std::vector<Tuple> expected;
      for (const Tuple& t : rel->Scan()) {
        if (t.at(0).AsInt() < bounds[i]) expected.push_back(t);
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(SortedRows(*taken.value().result), expected);
    }

    // A pool-wide phase still gets every slot.
    QuerySpec wide;
    wide.body = ScanBody(rel, [](const Tuple&) { return true; }, 2);
    wide.deadline = deadline();
    QueryHandle scan = db.Submit(std::move(wide));
    auto taken = scan.Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_EQ(taken.value().result->cardinality(), 2'000u);
    EXPECT_TRUE(scan.stats().used_shared_pool);
  }
}

// ---------------------------------------------------------------------
// WorkerPool post-shutdown contract (the small-fix satellite).

TEST(WorkerPoolTest, DispatchAfterShutdownIsRejectedAndCounted) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  Latch done;
  pool.Dispatch([&ran, &done] {
    ran.fetch_add(1);
    done.Set();
  });
  done.Await();
  pool.Shutdown();
  // Post-shutdown dispatch: dropped, counted, never run — not silently
  // queued (the old behavior) and not an abort.
  pool.Dispatch([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(pool.tasks_rejected(), 1u);
  EXPECT_EQ(pool.tasks_dispatched(), 1u);  // Accepted tasks only.
  // Shutdown is idempotent; the rejected task still never runs.
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPoolTest, IdleAndQueueDepthProbesTrackLoad) {
  WorkerPool pool(2);
  Latch started, release;
  pool.Dispatch([&started, &release] {
    started.Set();
    release.Await();
  });
  started.Await();
  EXPECT_LE(pool.idle_threads(), 1u);  // One thread is pinned.
  release.Set();
  // After the task finishes, both threads return to idle.
  while (pool.idle_threads() < 2) std::this_thread::sleep_for(milliseconds(1));
}

// ---------------------------------------------------------------------
// ApplyUtilization edge cases (satellite).

TEST(SchedulerFeedbackTest, ApplyUtilizationFixedThreadEdges) {
  ScheduleOptions fixed;
  fixed.total_threads = 5;
  // lround: half rounds away from zero.
  EXPECT_EQ(ApplyUtilization(fixed, 0.5).total_threads, 3u);
  // Factor > 1 clamps to 1 — utilization feedback never inflates.
  EXPECT_EQ(ApplyUtilization(fixed, 2.0).total_threads, 5u);
  // The floor is always one thread, even at the 1e-9 clamp.
  EXPECT_EQ(ApplyUtilization(fixed, 0.0).total_threads, 1u);
  fixed.total_threads = 1;
  EXPECT_EQ(ApplyUtilization(fixed, 0.25).total_threads, 1u);
}

TEST(SchedulerFeedbackTest, ApplyUtilizationDerivedCompoundsAndClamps) {
  ScheduleOptions derived;
  derived.total_threads = 0;
  derived.utilization = 0.8;
  // Factors compound multiplicatively on the derived path.
  ScheduleOptions once = ApplyUtilization(derived, 0.5);
  EXPECT_DOUBLE_EQ(once.utilization, 0.4);
  ScheduleOptions twice = ApplyUtilization(once, 0.5);
  EXPECT_DOUBLE_EQ(twice.utilization, 0.2);
  // Repeated clamped factors bottom out at 1e-9, never 0 (which
  // ScheduleQuery would reject).
  ScheduleOptions floored = derived;
  for (int i = 0; i < 8; ++i) floored = ApplyUtilization(floored, 0.0);
  EXPECT_DOUBLE_EQ(floored.utilization, 1e-9);
}

// ---------------------------------------------------------------------
// Operation park/grant paths (TSan targets: park mid-drain, grant racing
// cancellation, teardown with parked workers).

/// Counts processed units and burns a little CPU per trigger so a drain
/// spans many activation boundaries.
class SpinCountLogic : public OperatorLogic {
 public:
  void OnTrigger(size_t, Emitter*) override {
    volatile uint32_t sink = 0;
    for (uint32_t i = 0; i < 64; ++i) sink = sink + i;
    processed_.fetch_add(1, std::memory_order_relaxed);
  }
  std::string name() const override { return "spin-count"; }
  uint64_t processed() const { return processed_.load(); }

 private:
  std::atomic<uint64_t> processed_{0};
};

OperationConfig ParkTestConfig(size_t instances, size_t threads) {
  OperationConfig config;
  config.name = "park-op";
  config.num_instances = instances;
  config.num_threads = threads;
  config.cache_size = 4;
  return config;
}

TEST(OperationParkTest, ParkMidDrainConservesUnitsAndSignalsExits) {
  WorkerPool pool(4);
  SpinCountLogic logic;
  Operation op(ParkTestConfig(8, 4), &logic, DataOutput{});
  op.AddProducer();
  std::atomic<size_t> exits{0};
  std::atomic<size_t> parked_exits{0};
  op.set_exit_callback([&exits, &parked_exits](bool parked) {
    exits.fetch_add(1);
    if (parked) parked_exits.fetch_add(1);
  });
  op.StartOn(&pool);

  const size_t kTriggers = 2'000;
  for (size_t i = 0; i < kTriggers / 2; ++i) op.PushTrigger(i % 8);
  // Park mid-drain: with 4 live workers at most 3 are parkable (one must
  // keep consuming), and the request is absorbed exactly.
  const size_t requested = op.RequestPark(2);
  EXPECT_EQ(requested, 2u);
  for (size_t i = 0; i < kTriggers / 2; ++i) op.PushTrigger(i % 8);
  op.ProducerDone();
  op.Join();

  EXPECT_EQ(logic.processed(), kTriggers);
  EXPECT_EQ(exits.load(), 4u);
  EXPECT_EQ(parked_exits.load(), requested);
  EXPECT_EQ(op.active_workers(), 0u);
  const OperationStats stats = op.stats();
  uint64_t total = 0;
  for (uint64_t c : stats.per_instance_processed) total += c;
  EXPECT_EQ(total, kTriggers);  // Conservation across the parks.
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(OperationParkTest, LastActiveWorkerRefusesToPark) {
  WorkerPool pool(2);
  SpinCountLogic logic;
  Operation op(ParkTestConfig(2, 1), &logic, DataOutput{});
  op.AddProducer();
  op.StartOn(&pool);
  // A lone worker is never parkable: liveness with queued work requires a
  // consumer.
  EXPECT_EQ(op.RequestPark(1), 0u);
  for (size_t i = 0; i < 100; ++i) op.PushTrigger(i % 2);
  EXPECT_EQ(op.RequestPark(3), 0u);
  op.ProducerDone();
  op.Join();
  EXPECT_EQ(logic.processed(), 100u);
}

TEST(OperationParkTest, GrantAddsAWorkerAndStatsSlot) {
  WorkerPool pool(4);
  SpinCountLogic logic;
  Operation op(ParkTestConfig(8, 2), &logic, DataOutput{});
  op.AddProducer();
  op.StartOn(&pool);
  // Producers are still open, so the operation is not drained and must
  // accept a worker (capacity is max(threads, instances) = 8).
  EXPECT_TRUE(op.TryGrantWorker());
  for (size_t i = 0; i < 1'000; ++i) op.PushTrigger(i % 8);
  op.ProducerDone();
  op.Join();
  EXPECT_EQ(logic.processed(), 1'000u);
  const OperationStats stats = op.stats();
  // The granted worker reports in its own stat slot past num_threads.
  EXPECT_GE(stats.per_thread_processed.size(), 3u);
  uint64_t total = 0;
  for (uint64_t c : stats.per_instance_processed) total += c;
  EXPECT_EQ(total, 1'000u);
}

TEST(OperationParkTest, GrantRacingCancellationDrainsCleanly) {
  WorkerPool pool(6);
  SpinCountLogic logic;
  CancelToken cancel;
  OperationConfig config = ParkTestConfig(8, 2);
  config.cancel = cancel;
  Operation op(config, &logic, DataOutput{});
  op.AddProducer();
  op.StartOn(&pool);
  for (size_t i = 0; i < 4'000; ++i) op.PushTrigger(i % 8);
  // Race grants against the cancel from two sides; both outcomes of each
  // grant (accepted or refused) must leave the drain protocol intact.
  std::thread canceller([&cancel] { cancel.Cancel(); });
  size_t granted = 0;
  for (int i = 0; i < 4; ++i) {
    if (op.TryGrantWorker()) ++granted;
  }
  canceller.join();
  op.ProducerDone();
  op.Join();
  const OperationStats stats = op.stats();
  uint64_t processed = 0;
  for (uint64_t c : stats.per_instance_processed) processed += c;
  // Conservation: every pushed unit was processed or drained-as-cancelled.
  EXPECT_EQ(processed + stats.cancelled_units, 4'000u);
  EXPECT_LE(granted, 4u);
}

TEST(OperationParkTest, TeardownWithParkedWorkersJoinsCleanly) {
  SpinCountLogic logic;
  {
    WorkerPool pool(4);
    Operation op(ParkTestConfig(4, 4), &logic, DataOutput{});
    op.AddProducer();
    op.StartOn(&pool);
    for (size_t i = 0; i < 200; ++i) op.PushTrigger(i % 4);
    // Park claims race ProducerDone and the drain; parked workers exit
    // through the same protocol, so Join and the pool teardown see a
    // consistent live count.
    (void)op.RequestPark(3);
    op.ProducerDone();
    op.Join();
  }
  EXPECT_EQ(logic.processed(), 200u);
}

// ---------------------------------------------------------------------
// ReassignPlanner policy (pure function).

TEST(ReassignPlanTest, PressureParksDownToTheLiveFairShare) {
  // One running query holding the whole pool, one waiter: the per-tick
  // utilization recomputation makes the fair share pool/2.
  std::vector<ExecSnapshot> execs = {{1, 8, 8}};
  const ReassignPlan plan = PlanReassign(execs, 8, 0, /*pressure=*/true,
                                         /*extra_load=*/1);
  ASSERT_EQ(plan.parks.size(), 1u);
  EXPECT_EQ(plan.parks[0].id, 1u);
  EXPECT_EQ(plan.parks[0].count, 4u);  // 8 - floor(8 * 1/2).
  EXPECT_TRUE(plan.grants.empty());
}

TEST(ReassignPlanTest, NoPressureGrantsRoundRobinByDeficit) {
  std::vector<ExecSnapshot> execs = {{1, 1, 4}, {2, 1, 2}};
  const ReassignPlan plan = PlanReassign(execs, 8, 3, /*pressure=*/false,
                                         /*extra_load=*/0);
  EXPECT_TRUE(plan.parks.empty());
  ASSERT_EQ(plan.grants.size(), 2u);
  // Largest deficit first, dealt one at a time: 2 for exec 1, 1 for exec 2.
  EXPECT_EQ(plan.grants[0].id, 1u);
  EXPECT_EQ(plan.grants[0].count, 2u);
  EXPECT_EQ(plan.grants[1].id, 2u);
  EXPECT_EQ(plan.grants[1].count, 1u);
}

TEST(ReassignPlanTest, ParksAndGrantsNeverShareATick) {
  // Under pressure an under-provisioned execution still receives nothing —
  // freed capacity goes to the waiters, preventing park/grant churn.
  std::vector<ExecSnapshot> execs = {{1, 6, 6}, {2, 1, 4}};
  const ReassignPlan plan = PlanReassign(execs, 8, 1, /*pressure=*/true,
                                         /*extra_load=*/2);
  EXPECT_TRUE(plan.grants.empty());
  ASSERT_EQ(plan.parks.size(), 1u);
  EXPECT_EQ(plan.parks[0].id, 1u);
  EXPECT_EQ(plan.parks[0].count, 4u);  // Down to floor(8 * 1/4) = 2.
}

// ---------------------------------------------------------------------
// PoolLoadBoard apply-side (fake execution, counted hooks).

class FakeMalleable : public MalleableExecution {
 public:
  size_t RequestPark(size_t n) override {
    park_requests += n;
    return n;
  }
  bool TryGrantWorker() override {
    if (refuse_grants) return false;
    ++grants;
    return true;
  }

  size_t park_requests = 0;
  size_t grants = 0;
  bool refuse_grants = false;
};

struct CountedSlots {
  explicit CountedSlots(size_t free) : free_slots(free) {}
  PoolLoadBoard::Hooks hooks() {
    return {[this] {
              size_t now = free_slots.load();
              while (now > 0 &&
                     !free_slots.compare_exchange_weak(now, now - 1)) {
              }
              if (now == 0) return false;
              ++reserves;
              return true;
            },
            [this] {
              free_slots.fetch_add(1);
              ++releases;
            }};
  }
  std::atomic<size_t> free_slots;
  std::atomic<size_t> reserves{0};
  std::atomic<size_t> releases{0};
};

TEST(PoolLoadBoardTest, SoloSurvivorRegainsFullAllocationAfterCohortDrains) {
  CountedSlots slots(0);
  PoolLoadBoard board(slots.hooks());
  FakeMalleable survivor;
  FakeMalleable cohort;
  // Admitted at MPL 2: both were clamped to half the pool (4 -> 2).
  const uint64_t survivor_id = board.Register(&survivor, 2, 4);
  const uint64_t cohort_id = board.Register(&cohort, 2, 2);

  // While the cohort runs there is no idle capacity: nothing to grant.
  board.Rebalance(4, 0, /*pressure=*/false, 0);
  EXPECT_EQ(survivor.grants, 0u);

  // Cohort drains: its workers exit (crediting slots) and it unregisters.
  board.OnWorkerExit(cohort_id, false);
  board.OnWorkerExit(cohort_id, false);
  const RebalanceTotals cohort_totals = board.Unregister(cohort_id);
  EXPECT_TRUE(cohort_totals.active);
  EXPECT_EQ(slots.releases.load(), 2u);

  // Next tick: the survivor is alone, fair share is the whole pool, and
  // the freed capacity flows back — the admission-time clamp is undone.
  board.Rebalance(4, 2, /*pressure=*/false, 0);
  EXPECT_EQ(survivor.grants, 2u);
  EXPECT_EQ(slots.reserves.load(), 2u);

  const RebalanceTotals totals = board.Unregister(survivor_id);
  EXPECT_TRUE(totals.active);
  EXPECT_EQ(totals.granted, 2u);
}

TEST(PoolLoadBoardTest, RefusedGrantReturnsTheSlot) {
  CountedSlots slots(2);
  PoolLoadBoard board(slots.hooks());
  FakeMalleable exec;
  exec.refuse_grants = true;  // Drained / at capacity.
  const uint64_t id = board.Register(&exec, 1, 4);
  board.Rebalance(4, 2, /*pressure=*/false, 0);
  // One grant was tried (its slot taken first) and refused, which ends
  // the execution's grants for this tick.
  EXPECT_EQ(slots.reserves.load(), 1u);
  // Every reserved slot was handed back: no capacity leaks on refusal.
  EXPECT_EQ(slots.reserves.load(), slots.releases.load());
  EXPECT_EQ(slots.free_slots.load(), 2u);
  EXPECT_EQ(board.Unregister(id).granted, 0u);
}

TEST(PoolLoadBoardTest, PressureForwardsParksToTheWidestExecution) {
  CountedSlots slots(0);
  PoolLoadBoard board(slots.hooks());
  FakeMalleable wide;
  const uint64_t id = board.Register(&wide, 6, 6);
  board.Rebalance(8, 0, /*pressure=*/true, /*extra_load=*/1);
  // Fair share at live load 2 is floor(8/2) = 4: park 2 of 6.
  EXPECT_EQ(wide.park_requests, 2u);
  EXPECT_EQ(slots.releases.load(), 0u);  // A request frees no slot.
  board.OnWorkerExit(id, true);
  EXPECT_EQ(slots.releases.load(), 1u);
  // Parks are counted at exit, not request: 2 requested, 1 parked.
  const RebalanceTotals totals = board.Unregister(id);
  EXPECT_TRUE(totals.active);
  EXPECT_EQ(totals.parked, 1u);
  EXPECT_EQ(totals.granted, 0u);
}

// ---------------------------------------------------------------------
// Joint CPU+memory admission (controller-level, deterministic hooks).

TEST(AdmissionTest, CpuFitWaiterIsPackedPastABlockedWiderOne) {
  AdmissionConfig config;
  config.max_queued = 16;
  config.pool_threads = 4;
  std::atomic<size_t> free_threads{2};
  config.free_threads = [&free_threads] { return free_threads.load(); };
  AdmissionController ctrl(config);

  PendingQuery wide;
  wide.id = 1;
  wide.threads_hint = 4;  // Needs more than the 2 free: would block.
  PendingQuery narrow;
  narrow.id = 2;
  narrow.threads_hint = 2;  // Deliverable right now.
  ASSERT_TRUE(ctrl.TryEnqueue(std::move(wide)).ok());
  ASSERT_TRUE(ctrl.TryEnqueue(std::move(narrow)).ok());

  PendingQuery out;
  // FIFO would hand out the wide query first; joint packing prefers the
  // narrow one whose thread share the pool can deliver immediately.
  ASSERT_TRUE(ctrl.PopNext(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(ctrl.PopNext(&out));
  EXPECT_EQ(out.id, 1u);
  ctrl.Shutdown();
}

TEST(AdmissionTest, EsqlCpuFitWaiterIsPackedPastABlockedWiderOne) {
  // The packing case above, end to end through SubmitEsql: an ESQL query
  // declares its thread share to admission exactly like a facade query.
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 20'000;
  opt.degree = 4;
  ASSERT_TRUE(db.CreateWisconsin("t", opt).ok());
  Relation* rel = db.relation("t").value();

  QueryRuntimeOptions ropt;
  ropt.pool_threads = 4;
  ropt.max_concurrent_queries = 2;
  ropt.shared_batch_max_queries = 1;  // The two scans must not fold.
  ASSERT_TRUE(db.StartRuntime(ropt).ok());

  // Driver 1 runs a scan that holds 2 of the 4 pool threads until released.
  Latch holder_started, holder_release;
  TuplePredicate hold = [&holder_started, &holder_release](const Tuple&) {
    holder_started.Set();
    holder_release.Await();
    return true;
  };
  QuerySpec holder;
  holder.body = ScanBody(rel, hold, 2);
  QueryHandle holder_handle = db.Submit(std::move(holder));
  holder_started.Await();

  // Driver 2 parks, so both ESQL queries queue together behind it.
  Latch blocker_started, blocker_release;
  QuerySpec blocker;
  blocker.body = Blocker(&blocker_started, &blocker_release);
  QueryHandle blocker_handle = db.Submit(std::move(blocker));
  blocker_started.Await();

  EsqlOptions wide;
  wide.schedule.total_threads = 4;  // More than the 2 free threads.
  wide.schedule.processors = 4;
  EsqlOptions narrow = wide;
  narrow.schedule.total_threads = 2;  // Deliverable right now.
  narrow.schedule.processors = 2;
  QueryHandle wide_handle = SubmitEsql(db, "SELECT * FROM t", wide);
  QueryHandle narrow_handle = SubmitEsql(db, "SELECT * FROM t", narrow);

  // FIFO would hand driver 2 the wide query first; joint packing prefers
  // the narrow one, so the wide query waits out the narrow one's run.
  blocker_release.Set();
  ASSERT_TRUE(narrow_handle.Take().ok());
  ASSERT_TRUE(wide_handle.Take().ok());
  EXPECT_LT(narrow_handle.stats().admission_wait_seconds,
            wide_handle.stats().admission_wait_seconds);

  holder_release.Set();
  ASSERT_TRUE(blocker_handle.Take().ok());
  ASSERT_TRUE(holder_handle.Take().ok());
}

TEST(AdmissionTest, WiderThanPoolHintIsAlwaysCpuFit) {
  AdmissionConfig config;
  config.max_queued = 16;
  config.pool_threads = 4;
  config.free_threads = [] { return size_t{0}; };
  AdmissionController ctrl(config);

  PendingQuery fallback;
  fallback.id = 1;
  fallback.threads_hint = 8;  // Runs on private threads, not the pool.
  PendingQuery narrow;
  narrow.id = 2;
  narrow.threads_hint = 1;
  ASSERT_TRUE(ctrl.TryEnqueue(std::move(fallback)).ok());
  ASSERT_TRUE(ctrl.TryEnqueue(std::move(narrow)).ok());

  // Neither is deliverable from free pool capacity (0 free), but the
  // wider-than-pool query never waits on the pool at all: FIFO holds.
  PendingQuery out;
  ASSERT_TRUE(ctrl.PopNext(&out));
  EXPECT_EQ(out.id, 1u);
  ctrl.Shutdown();
}

TEST(AdmissionTest, BypassAgingBoundsTheReordering) {
  AdmissionConfig config;
  config.max_queued = 64;
  config.pool_threads = 4;
  config.free_threads = [] { return size_t{1}; };
  AdmissionController ctrl(config);

  PendingQuery wide;
  wide.id = 1;
  wide.threads_hint = 3;  // Never CPU-fit with 1 free thread.
  ASSERT_TRUE(ctrl.TryEnqueue(std::move(wide)).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    PendingQuery narrow;
    narrow.id = 100 + i;
    narrow.threads_hint = 1;
    ASSERT_TRUE(ctrl.TryEnqueue(std::move(narrow)).ok());
  }

  // 16 bypasses are allowed, then the wide query wins despite being
  // CPU-unfit — packing delays it, starvation is impossible.
  PendingQuery out;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(ctrl.PopNext(&out));
    EXPECT_GE(out.id, 100u) << "bypass " << i;
  }
  ASSERT_TRUE(ctrl.PopNext(&out));
  EXPECT_EQ(out.id, 1u);
  ctrl.Shutdown();
}

// ---------------------------------------------------------------------
// End-to-end steady-state adaptivity through the runtime.

TEST(AdaptiveRuntimeTest, ClampedQueryIsGrantedWorkersWhenTheCohortDrains) {
  Database db(4);
  WisconsinOptions opt;
  opt.cardinality = 60'000;
  opt.degree = 8;
  ASSERT_TRUE(db.CreateWisconsin("t", opt).ok());
  Relation* rel = db.relation("t").value();

  QueryRuntimeOptions ropt;
  ropt.pool_threads = 4;
  ropt.max_concurrent_queries = 4;
  ropt.rebalance_interval_us = 200;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());

  // Hold one query body live so the long query is admitted at MPL 2 and
  // clamped to half its width (4 -> 2 threads).
  Latch cohort_started, cohort_release;
  QuerySpec cohort;
  cohort.body = Blocker(&cohort_started, &cohort_release);
  QueryHandle cohort_handle = db.Submit(std::move(cohort));
  cohort_started.Await();

  Latch long_started;
  TuplePredicate slow = [&long_started](const Tuple&) {
    long_started.Set();
    // ~1 us of work per tuple keeps the scan running across many ticks.
    volatile uint32_t sink = 0;
    for (uint32_t i = 0; i < 400; ++i) sink = sink + i;
    return true;
  };
  QuerySpec longq;
  longq.body = ScanBody(rel, slow, 4);
  QueryHandle long_handle = db.Submit(std::move(longq));
  long_started.Await();

  // The cohort drains while the long query still has most of its scan
  // ahead; the solo survivor's fair share is the whole pool again.
  cohort_release.Set();
  ASSERT_TRUE(cohort_handle.Take().ok());

  auto taken = long_handle.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken.value().result->cardinality(), 60'000u);
  const QueryRunStats stats = long_handle.stats();
  // The admission-time clamp was undone mid-query: at least one extra
  // worker was granted once the cohort drained (the regression this test
  // pins: allocations used to stay frozen at admission).
  EXPECT_GE(stats.threads_granted, 1u);

  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GE(snap.counters["runtime.threads_granted"], 1u);
}

TEST(AdaptiveRuntimeTest, PressureParksALongQueryAndShortsGetThrough) {
  Database db(4);
  WisconsinOptions opt;
  opt.cardinality = 60'000;
  opt.degree = 8;
  ASSERT_TRUE(db.CreateWisconsin("t", opt).ok());
  Relation* rel = db.relation("t").value();

  QueryRuntimeOptions ropt;
  ropt.pool_threads = 4;
  ropt.max_concurrent_queries = 4;
  ropt.rebalance_interval_us = 200;
  ASSERT_TRUE(db.StartRuntime(ropt).ok());

  // The long query takes the whole pool (solo admission, no clamp).
  Latch long_started;
  TuplePredicate slow = [&long_started](const Tuple&) {
    long_started.Set();
    volatile uint32_t sink = 0;
    for (uint32_t i = 0; i < 400; ++i) sink = sink + i;
    return true;
  };
  QuerySpec longq;
  longq.body = ScanBody(rel, slow, 4);
  QueryHandle long_handle = db.Submit(std::move(longq));
  long_started.Await();

  // A short lookup arrives while the pool is fully reserved. Statically it
  // would block until the long query ends; the rebalancer sees the blocked
  // reservation as pressure and parks long-query workers to free slots.
  QueryOptions short_opts;
  short_opts.schedule.total_threads = 1;
  short_opts.schedule.processors = 1;
  auto short_result = RunSelect(db, "t", MatchAll(), 1.0, short_opts);
  ASSERT_TRUE(short_result.ok()) << short_result.status().ToString();
  EXPECT_EQ(short_result.value().result->cardinality(), 60'000u);

  auto taken = long_handle.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken.value().result->cardinality(), 60'000u);
  const QueryRunStats stats = long_handle.stats();
  // At least one long-query worker parked to make room (and may have been
  // granted back after the short finished).
  EXPECT_GE(stats.threads_released, 1u);
}

}  // namespace
}  // namespace dbs3
