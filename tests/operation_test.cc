#include "engine/operation.h"

#include <atomic>
#include <numeric>

#include <gtest/gtest.h>

#include "engine/operator_logic.h"

namespace dbs3 {
namespace {

/// Counts activations per instance; emits nothing.
class CountingLogic : public OperatorLogic {
 public:
  explicit CountingLogic(size_t instances) : counts_(instances) {
    for (auto& c : counts_) c = std::make_unique<std::atomic<uint64_t>>(0);
  }

  void OnTrigger(size_t instance, Emitter*) override {
    counts_[instance]->fetch_add(1);
  }
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter*) override {
    counts_[instance]->fetch_add(tuples.size());
  }
  std::string name() const override { return "counting"; }

  uint64_t count(size_t i) const { return counts_[i]->load(); }
  uint64_t total() const {
    uint64_t t = 0;
    for (const auto& c : counts_) t += c->load();
    return t;
  }

 private:
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> counts_;
};

/// Emits one tuple per trigger, to exercise the output path.
class EmittingLogic : public OperatorLogic {
 public:
  void OnTrigger(size_t instance, Emitter* out) override {
    out->Emit(instance, Tuple({Value(static_cast<int64_t>(instance))}));
  }
  std::string name() const override { return "emitting"; }
};

OperationConfig MakeConfig(size_t instances, size_t threads) {
  OperationConfig config;
  config.name = "test-op";
  config.num_instances = instances;
  config.num_threads = threads;
  config.cache_size = 2;
  return config;
}

TEST(OperationTest, ProcessesEveryTriggerExactlyOnce) {
  CountingLogic logic(8);
  Operation op(MakeConfig(8, 3), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (size_t i = 0; i < 8; ++i) op.PushTrigger(i);
  op.ProducerDone();
  op.Join();
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(logic.count(i), 1u);
  const OperationStats stats = op.stats();
  EXPECT_EQ(std::accumulate(stats.per_thread_processed.begin(),
                            stats.per_thread_processed.end(), 0ull),
            8ull);
}

TEST(OperationTest, ProcessesDataFromAllProducers) {
  CountingLogic logic(4);
  Operation op(MakeConfig(4, 2), &logic, DataOutput{});
  op.AddProducer();
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 100; ++k) {
    op.PushData(static_cast<size_t>(k) % 4, Tuple({Value(k)}));
  }
  op.ProducerDone();
  for (int64_t k = 0; k < 60; ++k) {
    op.PushData(static_cast<size_t>(k) % 4, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  EXPECT_EQ(logic.total(), 160u);
  EXPECT_EQ(logic.count(0), 25u + 15u);  // k % 4 == 0 from both batches.
}

TEST(OperationTest, ThreadsShareQueuesForLoadBalance) {
  // All work lands in instance 1, whose main owner gets stuck on a blocker
  // activation. The remaining activations can only complete if the *other*
  // thread consumes them from a queue that is not its main queue — the
  // DBS3 decoupling of threads from instances.
  class BlockingLogic : public OperatorLogic {
   public:
    void OnDataBatch(size_t, std::span<Tuple> tuples, Emitter*) override {
      for (const Tuple& t : tuples) {
        if (t.at(0).AsInt() == -1) {
          // The blocker: hold this thread until everything else is done.
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] { return released_; });
        } else {
          processed_.fetch_add(1);
        }
      }
    }
    std::string name() const override { return "blocking"; }

    void Release() {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
      cv_.notify_all();
    }
    uint64_t processed() const { return processed_.load(); }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool released_ = false;
    std::atomic<uint64_t> processed_{0};
  };

  BlockingLogic logic;
  OperationConfig config = MakeConfig(2, 2);
  config.cache_size = 1;  // The blocker must not batch with real work.
  Operation op(config, &logic, DataOutput{});
  op.AddProducer();
  constexpr uint64_t kItems = 200;
  // Blocker first, then real work — all into instance 1.
  op.PushData(1, Tuple({Value(int64_t{-1})}));
  for (uint64_t k = 0; k < kItems; ++k) {
    op.PushData(1, Tuple({Value(static_cast<int64_t>(k))}));
  }
  op.ProducerDone();
  op.Start();
  // Every non-blocker item must complete while one thread is stuck — only
  // possible because the free thread consumes instance 1's queue even
  // though it is not its main queue.
  while (logic.processed() < kItems) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  logic.Release();
  op.Join();
  EXPECT_EQ(logic.processed(), kItems);
  const OperationStats stats = op.stats();
  EXPECT_GT(stats.per_thread_processed[0], 0u);
  EXPECT_GT(stats.per_thread_processed[1], 0u);
}

TEST(OperationTest, EmitsRouteToConsumerSameInstance) {
  CountingLogic consumer_logic(4);
  Operation consumer(MakeConfig(4, 2), &consumer_logic, DataOutput{});
  EmittingLogic producer_logic;
  DataOutput output;
  output.consumer = &consumer;
  output.route = DataOutput::Route::kSameInstance;
  Operation producer(MakeConfig(4, 2), &producer_logic, output);

  producer.AddProducer();
  consumer.AddProducer();
  producer.Start();
  consumer.Start();
  for (size_t i = 0; i < 4; ++i) producer.PushTrigger(i);
  producer.ProducerDone();
  producer.Join();
  consumer.ProducerDone();
  consumer.Join();
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(consumer_logic.count(i), 1u);
  EXPECT_EQ(producer.stats().emitted, 4u);
}

TEST(OperationTest, EmitsRouteByColumn) {
  CountingLogic consumer_logic(4);
  Operation consumer(MakeConfig(4, 1), &consumer_logic, DataOutput{});
  EmittingLogic producer_logic;  // Emits tuple [instance].
  DataOutput output;
  output.consumer = &consumer;
  output.route = DataOutput::Route::kByColumn;
  output.column = 0;
  output.partitioner = Partitioner(PartitionKind::kModulo, 4);
  Operation producer(MakeConfig(8, 2), &producer_logic, output);

  producer.AddProducer();
  consumer.AddProducer();
  producer.Start();
  consumer.Start();
  for (size_t i = 0; i < 8; ++i) producer.PushTrigger(i);
  producer.ProducerDone();
  producer.Join();
  consumer.ProducerDone();
  consumer.Join();
  // Producer instances 0..7 emit values 0..7, which route mod 4: each
  // consumer instance receives exactly two.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(consumer_logic.count(i), 2u);
}

TEST(OperationTest, LptConsumesExpensiveQueuesFirst) {
  // Single thread, LPT order: instance 2 (highest estimate) drains first.
  class OrderRecorder : public OperatorLogic {
   public:
    void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                     Emitter*) override {
      order.insert(order.end(), tuples.size(), instance);
    }
    std::string name() const override { return "recorder"; }
    std::vector<size_t> order;
  };
  OrderRecorder logic;
  OperationConfig config = MakeConfig(3, 1);
  config.strategy = Strategy::kLpt;
  config.cost_estimates = {1.0, 2.0, 9.0};
  config.cache_size = 1;
  Operation op(config, &logic, DataOutput{});
  op.AddProducer();
  // Queue everything before starting, so consumption order is pure LPT.
  op.PushData(0, Tuple({Value(int64_t{0})}));
  op.PushData(1, Tuple({Value(int64_t{1})}));
  op.PushData(2, Tuple({Value(int64_t{2})}));
  op.ProducerDone();
  op.Start();
  op.Join();
  ASSERT_EQ(logic.order.size(), 3u);
  EXPECT_EQ(logic.order[0], 2u);
  EXPECT_EQ(logic.order[1], 1u);
  EXPECT_EQ(logic.order[2], 0u);
}

TEST(OperationTest, StatsCountPerInstance) {
  CountingLogic logic(3);
  Operation op(MakeConfig(3, 2), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 30; ++k) op.PushData(2, Tuple({Value(k)}));
  op.ProducerDone();
  op.Join();
  const OperationStats stats = op.stats();
  EXPECT_EQ(stats.per_instance_processed[0], 0u);
  EXPECT_EQ(stats.per_instance_processed[2], 30u);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_EQ(stats.name, "test-op");
}

TEST(OperationTest, TerminalOperationDiscardsEmissions) {
  // No output edge: emitted tuples are counted and dropped, not a crash.
  EmittingLogic logic;
  Operation op(MakeConfig(4, 2), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (size_t i = 0; i < 4; ++i) op.PushTrigger(i);
  op.ProducerDone();
  op.Join();
  EXPECT_EQ(op.stats().emitted, 4u);
}

TEST(OperationTest, ContentionCountersConsistent) {
  CountingLogic logic(2);
  Operation op(MakeConfig(2, 2), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 500; ++k) {
    op.PushData(static_cast<size_t>(k) % 2, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  const OperationStats stats = op.stats();
  EXPECT_GT(stats.queue_acquisitions, 500u);  // Pushes + pops at least.
  EXPECT_LE(stats.queue_contended, stats.queue_acquisitions);
}

TEST(OperationTest, ChunkedPushCountsTuplesNotActivations) {
  CountingLogic logic(2);
  Operation op(MakeConfig(2, 2), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  TupleChunk chunk;
  for (int64_t k = 0; k < 10; ++k) chunk.push_back(Tuple({Value(k)}));
  op.PushDataChunk(0, std::move(chunk));
  op.PushData(1, Tuple({Value(int64_t{99})}));
  op.ProducerDone();
  op.Join();
  // OnDataBatch sees every tuple of the chunk once.
  EXPECT_EQ(logic.count(0), 10u);
  EXPECT_EQ(logic.count(1), 1u);
  const OperationStats stats = op.stats();
  // Processed counters are tuple-denominated; the activation counter shows
  // the 10-tuple chunk was one unit of queue traffic.
  EXPECT_EQ(stats.per_instance_processed[0], 10u);
  EXPECT_EQ(stats.per_instance_processed[1], 1u);
  EXPECT_EQ(stats.activations, 2u);
}

/// Emits `count` tuples [instance, k] per trigger, to drive the chunked
/// emitter path.
class BurstLogic : public OperatorLogic {
 public:
  explicit BurstLogic(int64_t count) : count_(count) {}
  void OnTrigger(size_t instance, Emitter* out) override {
    for (int64_t k = 0; k < count_; ++k) {
      out->Emit(instance,
                Tuple({Value(static_cast<int64_t>(instance)), Value(k)}));
    }
  }
  std::string name() const override { return "burst"; }

 private:
  int64_t count_;
};

/// Runs burst -> counting with the given producer chunk_size and returns
/// {consumer tuples processed, consumer activations processed}.
std::pair<uint64_t, uint64_t> RunBurstPipeline(size_t chunk_size,
                                               size_t consumer_capacity = 0) {
  CountingLogic consumer_logic(4);
  OperationConfig consumer_config = MakeConfig(4, 2);
  consumer_config.queue_capacity = consumer_capacity;
  Operation consumer(consumer_config, &consumer_logic, DataOutput{});
  BurstLogic producer_logic(250);
  DataOutput output;
  output.consumer = &consumer;
  output.route = DataOutput::Route::kSameInstance;
  OperationConfig producer_config = MakeConfig(4, 2);
  producer_config.chunk_size = chunk_size;
  Operation producer(producer_config, &producer_logic, output);

  producer.AddProducer();
  consumer.AddProducer();
  producer.Start();
  consumer.Start();
  for (size_t i = 0; i < 4; ++i) producer.PushTrigger(i);
  producer.ProducerDone();
  producer.Join();
  consumer.ProducerDone();
  consumer.Join();
  EXPECT_EQ(consumer_logic.total(), 1'000u);
  const OperationStats stats = consumer.stats();
  uint64_t tuples = 0;
  for (uint64_t c : stats.per_instance_processed) tuples += c;
  return {tuples, stats.activations};
}

TEST(OperationTest, ChunkSizeOneMatchesPerTupleActivations) {
  const auto [tuples, activations] = RunBurstPipeline(/*chunk_size=*/1);
  EXPECT_EQ(tuples, 1'000u);
  EXPECT_EQ(activations, 1'000u);  // Paper-faithful: one tuple, one queue op.
}

TEST(OperationTest, ChunkedEmitterAmortizesActivations) {
  const auto [tuples, activations] = RunBurstPipeline(/*chunk_size=*/50);
  EXPECT_EQ(tuples, 1'000u);
  // 250 tuples per producer instance at chunk 50 = 5 chunks per instance.
  EXPECT_EQ(activations, 20u);
}

TEST(OperationTest, ChunkClampedToConsumerQueueCapacity) {
  // chunk_size 64 against capacity-8 consumer queues: the emitter splits
  // chunks at 8 tuples, so the pipeline completes and every activation fits
  // the bound.
  const auto [tuples, activations] =
      RunBurstPipeline(/*chunk_size=*/64, /*consumer_capacity=*/8);
  EXPECT_EQ(tuples, 1'000u);
  // 250 per instance in 8-tuple chunks: 31 full + 1 residual, x4 instances.
  EXPECT_EQ(activations, 128u);
}

TEST(OperationTest, ResidualChunkFlushedOnProducerExit) {
  // 3 tuples with chunk_size 100: nothing ever fills a chunk, so delivery
  // relies on the producer-exit flush.
  CountingLogic consumer_logic(1);
  Operation consumer(MakeConfig(1, 1), &consumer_logic, DataOutput{});
  BurstLogic producer_logic(3);
  DataOutput output;
  output.consumer = &consumer;
  OperationConfig producer_config = MakeConfig(1, 1);
  producer_config.chunk_size = 100;
  Operation producer(producer_config, &producer_logic, output);
  producer.AddProducer();
  consumer.AddProducer();
  producer.Start();
  consumer.Start();
  producer.PushTrigger(0);
  producer.ProducerDone();
  producer.Join();
  consumer.ProducerDone();
  consumer.Join();
  EXPECT_EQ(consumer_logic.total(), 3u);
  EXPECT_EQ(consumer.stats().activations, 1u);  // One residual chunk.
}

TEST(OperationTest, PushNotifyStressSingleThreadBoundedQueue) {
  // Regression stress for the lost-wakeup race: PushData's pending_
  // increment and notify must pair with wait_mu_, or a single worker that
  // just evaluated its wait predicate can sleep through the last
  // activation while the producer blocks on the full bounded queue —
  // deadlocking the pipeline. Many short rounds maximize the window.
  for (int round = 0; round < 200; ++round) {
    CountingLogic logic(1);
    OperationConfig config = MakeConfig(1, 1);
    config.cache_size = 1;
    config.queue_capacity = 1;
    Operation op(config, &logic, DataOutput{});
    op.AddProducer();
    op.Start();
    for (int64_t k = 0; k < 50; ++k) {
      op.PushData(0, Tuple({Value(k)}));
    }
    op.ProducerDone();
    op.Join();
    ASSERT_EQ(logic.total(), 50u) << "round " << round;
  }
}

TEST(OperationTest, DestructorWithoutJoinReleasesWorkers) {
  // Regression for a lost wakeup in ~Operation: the producers_done_ store
  // and notify were unpaired with wait_mu_, so a worker that had just
  // evaluated its wait predicate could sleep through the shutdown signal
  // and hang the destructor's Join forever. Many short rounds under TSan
  // maximize the window between the predicate check and the wait.
  for (int round = 0; round < 200; ++round) {
    CountingLogic logic(2);
    OperationConfig config = MakeConfig(2, 2);
    config.cache_size = 1;
    Operation op(config, &logic, DataOutput{});
    op.AddProducer();
    op.Start();
    for (int64_t k = 0; k < 8; ++k) {
      op.PushData(static_cast<size_t>(k) % 2, Tuple({Value(k)}));
    }
    // No ProducerDone, no Join: the destructor must shut the pool down.
  }
}

TEST(OperationTest, DroppedUnitsCountedOnClosedQueues) {
  // Pushes racing a shutdown used to vanish with only a log line. They must
  // be counted, tuple-denominated (a chunk counts its tuples).
  CountingLogic logic(2);
  Operation op(MakeConfig(2, 1), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  op.PushData(0, Tuple({Value(int64_t{1})}));
  op.ProducerDone();  // Closes the queues.
  op.Join();
  op.PushData(0, Tuple({Value(int64_t{2})}));   // Dropped: 1 unit.
  op.PushTrigger(1);                            // Dropped: 1 unit.
  TupleChunk chunk;
  for (int64_t k = 0; k < 5; ++k) chunk.push_back(Tuple({Value(k)}));
  op.PushDataChunk(1, std::move(chunk));        // Dropped: 5 units.
  const OperationStats stats = op.stats();
  EXPECT_EQ(stats.dropped, 7u);
  EXPECT_EQ(logic.total(), 1u);  // Only the pre-close push was processed.
}

TEST(OperationTest, NothingDroppedOnCleanShutdown) {
  CountingLogic logic(2);
  Operation op(MakeConfig(2, 2), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 100; ++k) {
    op.PushData(static_cast<size_t>(k) % 2, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  EXPECT_EQ(op.stats().dropped, 0u);
}

TEST(OperationTest, BusyTimeAccountingConsistent) {
  // busy_seconds is the sum of per-thread processing time; the old
  // wall-clock span survives separately as wall_span_seconds. Each
  // thread's busy share is bounded by the operation's span, and busy+idle
  // per thread never exceeds it either (lifetime <= span by definition).
  CountingLogic logic(4);
  Operation op(MakeConfig(4, 3), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 2'000; ++k) {
    op.PushData(static_cast<size_t>(k) % 4, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  const OperationStats stats = op.stats();
  ASSERT_EQ(stats.per_thread_busy_seconds.size(), 3u);
  ASSERT_EQ(stats.per_thread_idle_seconds.size(), 3u);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GT(stats.wall_span_seconds, 0.0);
  double sum = 0.0;
  const double slack = 1e-4;  // Clock-read granularity.
  for (size_t t = 0; t < 3; ++t) {
    const double busy = stats.per_thread_busy_seconds[t];
    const double idle = stats.per_thread_idle_seconds[t];
    EXPECT_GE(busy, 0.0);
    EXPECT_GE(idle, 0.0);
    EXPECT_LE(busy, stats.wall_span_seconds + slack);
    EXPECT_LE(busy + idle, stats.wall_span_seconds + slack);
    sum += busy;
  }
  EXPECT_NEAR(stats.busy_seconds, sum, 1e-9);
  // With 3 threads the summed processing time may legitimately exceed the
  // span; it must never exceed threads * span.
  EXPECT_LE(stats.busy_seconds, 3.0 * stats.wall_span_seconds + slack);
}

TEST(OperationTest, QueueAcquisitionSplitCountsEveryBatch) {
  CountingLogic logic(2);
  Operation op(MakeConfig(2, 2), &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 300; ++k) {
    op.PushData(static_cast<size_t>(k) % 2, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  const OperationStats stats = op.stats();
  const uint64_t batches =
      stats.main_queue_acquisitions + stats.secondary_queue_acquisitions;
  // Every activation arrives in some acquired batch of >= 1 activation.
  EXPECT_GT(batches, 0u);
  EXPECT_LE(batches, stats.activations);
  EXPECT_EQ(stats.activations, 300u);
}

TEST(OperationTest, PeakQueueUnitsSeesPreloadedBacklog) {
  CountingLogic logic(2);
  Operation op(MakeConfig(2, 1), &logic, DataOutput{});
  op.AddProducer();
  // Everything queued on instance 0 before any worker runs: the high-water
  // mark must see the full backlog.
  for (int64_t k = 0; k < 40; ++k) op.PushData(0, Tuple({Value(k)}));
  op.ProducerDone();
  op.Start();
  op.Join();
  EXPECT_EQ(op.stats().peak_queue_units, 40u);
}

TEST(OperationTest, TracerRecordsSpansCoveringAllUnits) {
  ActivationTracer tracer;
  CountingLogic logic(2);
  OperationConfig config = MakeConfig(2, 2);
  config.tracer = &tracer;
  Operation op(config, &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  for (int64_t k = 0; k < 64; ++k) {
    op.PushData(static_cast<size_t>(k) % 2, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  const std::vector<uint64_t> units = tracer.UnitsPerInstance("test-op");
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0] + units[1], 64u);
  // The tracer-side busy time and the stats-side busy time measure the
  // same spans, so they agree to clock granularity.
  const std::vector<double> traced = tracer.BusySecondsPerThread("test-op");
  const OperationStats stats = op.stats();
  double traced_sum = 0.0;
  for (double s : traced) traced_sum += s;
  EXPECT_NEAR(traced_sum, stats.busy_seconds, 1e-3);
}

TEST(OperationTest, BoundedQueuesApplyBackpressure) {
  CountingLogic logic(2);
  OperationConfig config = MakeConfig(2, 1);
  config.queue_capacity = 4;
  Operation op(config, &logic, DataOutput{});
  op.AddProducer();
  op.Start();
  // 1000 pushes through capacity-4 queues must all complete (consumer
  // drains concurrently).
  for (int64_t k = 0; k < 1'000; ++k) {
    op.PushData(static_cast<size_t>(k) % 2, Tuple({Value(k)}));
  }
  op.ProducerDone();
  op.Join();
  EXPECT_EQ(logic.total(), 1'000u);
}

}  // namespace
}  // namespace dbs3
