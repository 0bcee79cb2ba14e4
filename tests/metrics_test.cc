// Tests of the observability layer: the metrics registry (including its
// thread-safety contract, exercised under the CI TSan job), the background
// sampler, and the activation tracer's Chrome trace_event output.

#include "common/metrics.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"

namespace dbs3 {
namespace {

TEST(MetricsRegistryTest, CountersAccumulateAndSnapshot) {
  MetricsRegistry registry;
  registry.counter("a")->Add(3);
  registry.counter("a")->Add(4);
  registry.counter("b")->Add(1);
  registry.gauge("g")->Set(-7);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("a"), 7u);
  EXPECT_EQ(snap.counters.at("b"), 1u);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  EXPECT_NE(snap.ToString().find("a 7"), std::string::npos);
}

TEST(MetricsRegistryTest, CounterPointersAreStableAcrossGrowth) {
  MetricsRegistry registry;
  MetricCounter* first = registry.counter("first");
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler-" + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("first"), first);
  first->Add(1);
  EXPECT_EQ(registry.Snapshot().counters.at("first"), 1u);
}

TEST(MetricsRegistryTest, ProbesAreSampledIntoSeries) {
  MetricsRegistry registry;
  int64_t depth = 5;
  registry.RegisterProbe("q", [&] { return depth; });
  registry.SamplePass();
  depth = 2;
  registry.SamplePass();
  depth = 9;
  registry.SamplePass();
  const SeriesStats s = registry.Snapshot().series.at("q");
  EXPECT_EQ(s.samples, 3u);
  EXPECT_EQ(s.min, 2);
  EXPECT_EQ(s.max, 9);
  EXPECT_EQ(s.last, 9);
  EXPECT_DOUBLE_EQ(s.mean(), (5.0 + 2.0 + 9.0) / 3.0);
}

TEST(MetricsRegistryTest, ClearProbesKeepsSampledSeries) {
  // The executor clears probes once the operations they point into are
  // about to die, but the collected series must survive into the snapshot.
  MetricsRegistry registry;
  registry.RegisterProbe("q", [] { return int64_t{4}; });
  registry.SamplePass();
  registry.ClearProbes();
  registry.SamplePass();  // Must not call the cleared probe.
  const SeriesStats s = registry.Snapshot().series.at("q");
  EXPECT_EQ(s.samples, 1u);
  EXPECT_EQ(s.last, 4);
}

TEST(MetricsRegistryTest, ConcurrentWritersAndSamplerAreRaceFree) {
  // The TSan contract of the whole layer: writer threads hammering counters
  // and gauges while a sampler thread runs probe passes and snapshots.
  MetricsRegistry registry;
  std::atomic<int64_t> live{0};
  registry.RegisterProbe("live", [&] { return live.load(); });
  MetricsSampler sampler(&registry, std::chrono::microseconds(50));
  sampler.Start();

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, &live, w] {
      MetricCounter* own = registry.counter("w" + std::to_string(w));
      MetricCounter* shared = registry.counter("shared");
      for (int i = 0; i < kPerWriter; ++i) {
        own->Add(1);
        shared->Add(1);
        live.fetch_add(1);
        registry.gauge("last_writer")->Set(w);
      }
    });
  }
  for (auto& t : writers) t.join();
  sampler.Stop();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shared"),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(snap.counters.at("w" + std::to_string(w)),
              static_cast<uint64_t>(kPerWriter));
  }
}

TEST(MetricsSamplerTest, StartStopAreIdempotent) {
  MetricsRegistry registry;
  registry.RegisterProbe("p", [] { return int64_t{1}; });
  MetricsSampler sampler(&registry, std::chrono::microseconds(100));
  sampler.Stop();  // Stop before start: no-op.
  sampler.Start();
  sampler.Start();  // Second start: no second thread.
  // Wait for the first sample rather than a fixed window: a loaded host
  // (the TSan job) may not schedule the sampler thread for milliseconds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (registry.Snapshot().series.at("p").samples == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sampler.Stop();
  sampler.Stop();
  const uint64_t samples = registry.Snapshot().series.at("p").samples;
  EXPECT_GE(samples, 1u);
  // Restart works after a stop.
  sampler.Start();
  sampler.Stop();
  EXPECT_GE(registry.Snapshot().series.at("p").samples, samples);
}

TEST(MetricsSamplerTest, ConcurrentStartStopNeverLeaksTheLoop) {
  // Regression test: Start() used to race Stop()'s join window — a Start
  // that slipped in between Stop's stop_=true and its join() reset the
  // stop flag under the old loop, leaving a sampler thread running forever
  // and the next Stop() hung. Two threads hammering Start/Stop must
  // terminate, and after the final Stop no further samples may appear.
  MetricsRegistry registry;
  registry.RegisterProbe("p", [] { return int64_t{1}; });
  MetricsSampler sampler(&registry, std::chrono::microseconds(20));

  std::atomic<bool> go{false};
  std::thread starter([&] {
    while (!go.load()) {
    }
    for (int i = 0; i < 200; ++i) sampler.Start();
  });
  std::thread stopper([&] {
    while (!go.load()) {
    }
    for (int i = 0; i < 200; ++i) sampler.Stop();
  });
  go.store(true);
  starter.join();
  stopper.join();

  sampler.Stop();  // Whatever the interleaving left behind, shut it down.
  const uint64_t settled = registry.Snapshot().series.at("p").samples;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(registry.Snapshot().series.at("p").samples, settled)
      << "a sampler loop survived Stop()";
}

/// Minimal JSON well-formedness walker: validates balanced braces/brackets,
/// string escapes, and that top-level content is one object. Not a parser —
/// just enough to catch emission bugs (unescaped quotes, trailing commas
/// are caught structurally below).
bool JsonWellFormed(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        prev_significant = c;
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        if (prev_significant == ',') return false;  // Trailing comma.
        stack.pop_back();
        prev_significant = c;
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        if (prev_significant == ',') return false;
        stack.pop_back();
        prev_significant = c;
        break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) {
          prev_significant = c;
        }
    }
  }
  return stack.empty() && !in_string;
}

TEST(ActivationTracerTest, ChromeJsonIsWellFormed) {
  ActivationTracer tracer;
  const auto origin = tracer.origin();
  TraceBuffer* b0 = tracer.AddBuffer("scan \"weird\\name\"", 0);
  TraceBuffer* b1 = tracer.AddBuffer("join", 3);
  using std::chrono::microseconds;
  b0->Record(0, origin + microseconds(10), origin + microseconds(25), 4, 1);
  b0->Record(1, origin + microseconds(30), origin + microseconds(31), 1, 1);
  b1->Record(7, origin + microseconds(5), origin + microseconds(500), 64, 8);
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The escaped operation name round-trips without breaking the JSON.
  EXPECT_NE(json.find("scan \\\"weird\\\\name\\\""), std::string::npos);
}

TEST(ActivationTracerTest, EmptyTracerStillEmitsValidJson) {
  ActivationTracer tracer;
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_EQ(json, "{\"traceEvents\":[]}");
}

TEST(ActivationTracerTest, AggregatesBusyTimeAndUnits) {
  ActivationTracer tracer;
  const auto origin = tracer.origin();
  TraceBuffer* t0 = tracer.AddBuffer("op", 0);
  TraceBuffer* t1 = tracer.AddBuffer("op", 1);
  tracer.AddBuffer("other", 0)->Record(0, origin, origin, 100, 1);
  using std::chrono::microseconds;
  t0->Record(0, origin, origin + microseconds(1000), 10, 2);
  t0->Record(2, origin + microseconds(2000), origin + microseconds(2500), 5,
             1);
  t1->Record(2, origin + microseconds(100), origin + microseconds(600), 7, 1);

  const std::vector<double> busy = tracer.BusySecondsPerThread("op");
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_NEAR(busy[0], 1.5e-3, 1e-12);
  EXPECT_NEAR(busy[1], 0.5e-3, 1e-12);

  const std::vector<uint64_t> units = tracer.UnitsPerInstance("op");
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0], 10u);
  EXPECT_EQ(units[1], 0u);
  EXPECT_EQ(units[2], 12u);  // 5 from thread 0 + 7 from thread 1.
}

TEST(ActivationTracerTest, ConcurrentAddBufferIsRaceFree) {
  // Worker threads create their buffers concurrently on startup; buffer
  // creation must serialize while the returned buffers stay single-writer.
  ActivationTracer tracer;
  const auto origin = tracer.origin();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, origin, t] {
      TraceBuffer* buffer =
          tracer.AddBuffer("op" + std::to_string(t % 2),
                           static_cast<uint32_t>(t));
      for (int i = 0; i < 1'000; ++i) {
        buffer->Record(static_cast<uint32_t>(i % 4), origin, origin, 1, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t total = 0;
  for (uint64_t u : tracer.UnitsPerInstance("op0")) total += u;
  for (uint64_t u : tracer.UnitsPerInstance("op1")) total += u;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * 1'000u);
  EXPECT_TRUE(JsonWellFormed(tracer.ToChromeJson()));
}

}  // namespace
}  // namespace dbs3
