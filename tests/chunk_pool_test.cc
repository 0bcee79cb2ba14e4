#include "engine/chunk_pool.h"

#include <atomic>

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "engine/cancel.h"
#include "engine/executor.h"
#include "engine/operation.h"
#include "engine/operator_logic.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "storage/skew.h"

namespace dbs3 {
namespace {

/// Terminal sink that only counts the tuples it is handed.
class CountingSink : public OperatorLogic {
 public:
  void OnDataBatch(size_t, std::span<Tuple> tuples, Emitter*) override {
    seen.fetch_add(tuples.size(), std::memory_order_relaxed);
  }
  std::string name() const override { return "counting-sink"; }

  std::atomic<uint64_t> seen{0};
};

TupleChunk MakeChunk(size_t tuples) {
  TupleChunk chunk;
  chunk.reserve(tuples > 0 ? tuples : 1);
  for (size_t i = 0; i < tuples; ++i) {
    chunk.push_back(Tuple({Value(static_cast<int64_t>(i))}));
  }
  return chunk;
}

/// The pool's thread-local buffer cache is shared across pool instances
/// (and so across tests on this thread). Acquire until the pool reports a
/// fresh allocation — the cache and the pool's (empty) shared list are then
/// both drained, making per-test counter assertions deterministic.
void DrainThreadCache(ChunkPool* pool) {
  while (true) {
    const uint64_t before = pool->stats().allocated;
    TupleChunk scratch = pool->Acquire(0);
    if (pool->stats().allocated != before) return;
  }
}

TEST(ChunkPoolTest, AcquireWithEmptyPoolAllocatesFresh) {
  ChunkPool pool;
  DrainThreadCache(&pool);
  const ChunkPool::Stats before = pool.stats();
  TupleChunk chunk = pool.Acquire(8);
  EXPECT_GE(chunk.capacity(), 8u);
  EXPECT_TRUE(chunk.empty());
  const ChunkPool::Stats after = pool.stats();
  EXPECT_EQ(after.allocated, before.allocated + 1);
  EXPECT_EQ(after.reused, before.reused);
}

TEST(ChunkPoolTest, ReleasedBufferIsReusedWithElementsIntact) {
  ChunkPool pool;
  DrainThreadCache(&pool);
  TupleChunk chunk = MakeChunk(3);
  const Tuple* elements = chunk.data();
  pool.Release(std::move(chunk));
  const ChunkPool::Stats mid = pool.stats();
  EXPECT_GE(mid.released, 1u);

  TupleChunk back = pool.Acquire(1);
  // Same buffer, elements kept: the emitter overwrites these slots in
  // place, which is what removes the per-tuple allocations.
  EXPECT_EQ(back.data(), elements);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].at(0).AsInt(), 0);
  EXPECT_EQ(pool.stats().reused, mid.reused + 1);
}

TEST(ChunkPoolTest, CapacityLessReleasesAreIgnored) {
  ChunkPool pool;
  const ChunkPool::Stats before = pool.stats();
  pool.Release(TupleChunk{});  // Moved-from / never-filled buffer.
  const ChunkPool::Stats after = pool.stats();
  EXPECT_EQ(after.released, before.released);
}

TEST(ChunkPoolTest, CacheSpillsToSharedListAndRefills) {
  ChunkPool pool;
  DrainThreadCache(&pool);
  // Releasing past the thread-cache bound must spill buffers to the shared
  // list, where another thread (here: a later refill) can pick them up.
  const size_t n = 3 * ChunkPool::kTlsBatch;
  for (size_t i = 0; i < n; ++i) pool.Release(MakeChunk(1));
  EXPECT_GT(pool.stats().free_buffers, 0u);
  EXPECT_EQ(pool.stats().released, n);

  const ChunkPool::Stats before = pool.stats();
  for (size_t i = 0; i < n; ++i) {
    TupleChunk chunk = pool.Acquire(1);
    EXPECT_GT(chunk.capacity(), 0u);
  }
  const ChunkPool::Stats after = pool.stats();
  EXPECT_EQ(after.reused, before.reused + n);
  EXPECT_EQ(after.allocated, before.allocated);
}

TEST(ChunkPoolTest, SpillBeyondMaxFreeDiscards) {
  ChunkPool pool(/*max_free=*/0);
  DrainThreadCache(&pool);
  const size_t n = 4 * ChunkPool::kTlsBatch;
  for (size_t i = 0; i < n; ++i) pool.Release(MakeChunk(1));
  const ChunkPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.free_buffers, 0u);
  EXPECT_GT(stats.discarded, 0u);
  EXPECT_EQ(stats.released, n);
}

// ----------------------------------------------------------- engine level

/// Triggered scan -> store over a small skewed pair; every emitted tuple
/// crosses one queue as a (chunk_size-1) chunk.
struct ScanStorePlan {
  explicit ScanStorePlan(Database* db)
      : result("res", SkewSchema(), 0,
               Partitioner(PartitionKind::kModulo, 16)) {
    Relation* a = db->relation("A").value();
    scan = plan.AddNode("scan", ActivationMode::kTriggered, 16,
                        std::make_unique<FilterLogic>(a, MatchAll()));
    store = plan.AddNode("store", ActivationMode::kPipelined, 16,
                         std::make_unique<StoreLogic>(&result));
    EXPECT_TRUE(plan.ConnectSameInstance(scan, store).ok());
    for (size_t i = 0; i < plan.num_nodes(); ++i) plan.params(i).threads = 2;
  }

  Relation result;
  Plan plan;
  size_t scan = 0;
  size_t store = 0;
};

void MakeDb(Database& db) {
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 400;
  spec.degree = 16;
  spec.theta = 0.5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
}

TEST(ChunkPoolExecutionTest, NormalDrainReturnsEveryBuffer) {
  Database db(2);
  MakeDb(db);
  ScanStorePlan p(&db);
  Executor executor;
  auto run = executor.Run(p.plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(p.result.cardinality(), 2'000u);

  // One chunk per emitted tuple (chunk_size 1): the scan acquired 2000
  // buffers and the store released all of them after draining — units in
  // equals units processed plus buffers recycled, nothing leaks into the
  // queues or the emitters.
  const ChunkPool::Stats& pool = run.value().chunk_pool;
  EXPECT_EQ(pool.allocated + pool.reused, 2'000u);
  EXPECT_EQ(pool.released, 2'000u);
  EXPECT_EQ(run.value().units_dropped, 0u);
}

TEST(ChunkPoolExecutionTest, SharedPoolCarriesBuffersAcrossExecutions) {
  Database db(2);
  MakeDb(db);
  ChunkPool pool(/*max_free=*/1 << 16);
  ExecOptions options;
  options.chunk_pool = &pool;

  for (int round = 0; round < 3; ++round) {
    ScanStorePlan p(&db);
    Executor executor;
    auto run = executor.Run(p.plan, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const ChunkPool::Stats& stats = run.value().chunk_pool;
    EXPECT_EQ(stats.allocated + stats.reused, 2'000u) << "round " << round;
    EXPECT_EQ(stats.discarded, 0u) << "round " << round;
    // Warm rounds draw on the free list the earlier rounds filled. (How
    // *many* acquisitions recycle depends on producer/consumer
    // interleaving, so only the floor is asserted.)
    if (round > 0) {
      EXPECT_GT(stats.reused, 0u) << "round " << round;
    }
  }
}

TEST(ChunkPoolExecutionTest, CancelledDrainStillRecyclesBuffers) {
  // A fired token makes workers drain activations into the cancelled
  // bucket without invoking operator logic; the drained chunks must still
  // return to the pool.
  ChunkPool pool;
  CancelToken cancel;
  cancel.Cancel();

  CountingSink sink;
  OperationConfig config;
  config.name = "sink";
  config.num_instances = 2;
  config.num_threads = 2;
  config.cancel = cancel;
  config.chunk_pool = &pool;
  Operation op(config, &sink, DataOutput{});
  op.AddProducer();
  op.Start();
  const ChunkPool::Stats before = pool.stats();
  for (int i = 0; i < 10; ++i) {
    op.PushDataChunk(static_cast<size_t>(i) % 2, MakeChunk(4));
  }
  op.ProducerDone();
  op.Join();
  const OperationStats stats = op.stats();
  EXPECT_EQ(stats.cancelled_units, 40u);
  EXPECT_EQ(sink.seen.load(), 0u);
  EXPECT_EQ(pool.stats().released - before.released, 10u);
}

TEST(ChunkPoolExecutionTest, ClosedQueueRejectionRecyclesBuffer) {
  // A push racing a shutdown is dropped (counted, tuple-denominated); the
  // rejected activation's buffer must be recycled, not leaked with it.
  ChunkPool pool;
  CountingSink sink;
  OperationConfig config;
  config.name = "sink";
  config.num_instances = 1;
  config.num_threads = 1;
  config.chunk_pool = &pool;
  Operation op(config, &sink, DataOutput{});
  op.AddProducer();
  op.Start();
  op.ProducerDone();  // Closes the queues once drained.
  op.Join();
  const ChunkPool::Stats before = pool.stats();
  op.PushDataChunk(0, MakeChunk(5));
  EXPECT_EQ(op.stats().dropped, 5u);
  EXPECT_EQ(pool.stats().released - before.released, 1u);
}

}  // namespace
}  // namespace dbs3
