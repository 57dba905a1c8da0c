// Tests for the observability layer (src/obs): histogram bucket layout,
// counter thread-local cells and flush-on-thread-exit, registry
// snapshots and samplers, span gates, and all three exporters (JSON
// lines, Prometheus text, human summary).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/traceio.hpp"

namespace {

using namespace dnh;

// ---------------------------------------------------------------------
// Histogram bucket layout.

TEST(ObsHistogram, FirstBucketsAreExact) {
  // Values below kSubBuckets get a bucket each: upper == index == value.
  for (std::uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(obs::Histogram::bucket_index(v), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(v), v);
  }
}

TEST(ObsHistogram, IndexUpperRoundTrip) {
  // Every bucket's inclusive upper bound maps back to that bucket, and
  // the next value up maps to the next bucket.
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t upper = obs::Histogram::bucket_upper(i);
    EXPECT_EQ(obs::Histogram::bucket_index(upper), i) << "upper=" << upper;
    EXPECT_EQ(obs::Histogram::bucket_index(upper + 1), i + 1);
  }
}

TEST(ObsHistogram, UppersStrictlyIncrease) {
  for (std::size_t i = 1; i < obs::Histogram::kBuckets; ++i)
    EXPECT_GT(obs::Histogram::bucket_upper(i),
              obs::Histogram::bucket_upper(i - 1));
}

TEST(ObsHistogram, LastBucketCoversUint64Max) {
  EXPECT_EQ(obs::Histogram::bucket_index(UINT64_MAX),
            obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_upper(obs::Histogram::kBuckets - 1),
            UINT64_MAX);
}

TEST(ObsHistogram, RelativeWidthBounded) {
  // Log-linear with 4 sub-buckets: above the linear range, bucket width
  // is at most 25% of the bucket's lower bound.
  for (std::size_t i = obs::Histogram::kSubBuckets + 1;
       i < obs::Histogram::kBuckets; ++i) {
    const double lo =
        static_cast<double>(obs::Histogram::bucket_upper(i - 1)) + 1;
    const double hi = static_cast<double>(obs::Histogram::bucket_upper(i));
    EXPECT_LE((hi - lo + 1) / lo, 0.2500001) << "bucket " << i;
  }
}

TEST(ObsHistogram, ObserveCountSumQuantile) {
  obs::Registry registry;
  obs::Histogram hist = registry.histogram("h");
  for (std::uint64_t v = 1; v <= 100; ++v) hist.observe(v);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 5050u);

  const auto snap = registry.collect();
  const auto& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, 100u);
  EXPECT_EQ(hs.sum, 5050u);
  EXPECT_NEAR(hs.mean(), 50.5, 1e-9);
  // Quantiles return a bucket upper bound: within 25% of the true value.
  EXPECT_NEAR(hs.quantile(0.5), 50.0, 50.0 * 0.25);
  EXPECT_NEAR(hs.quantile(0.99), 99.0, 99.0 * 0.25);
  EXPECT_EQ(hs.quantile(0.0), 1.0);  // smallest observed bucket
}

// ---------------------------------------------------------------------
// Counters.

TEST(ObsCounter, SingleThreadExact) {
  obs::Registry registry;
  obs::Counter c = registry.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(registry.counter("c").value(), 42u);
}

TEST(ObsCounter, DefaultHandleIsInert) {
  obs::Counter c;
  EXPECT_FALSE(c.valid());
  c.inc();  // must not crash
  EXPECT_EQ(c.value(), 0u);
  obs::Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 0);
  obs::Histogram h;
  h.observe(1);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsCounter, ThreadExitFlushPreservesTotal) {
  // Worker threads increment and exit; their thread-local cells must be
  // folded into the retired sum so the total is exact after join.
  obs::Registry registry;
  obs::Counter c = registry.counter("flushed");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&c] {
        for (int i = 0; i < kPerThread; ++i) c.inc();
      });
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsCounter, ConcurrentWithReader) {
  // A reader polling value() while writers increment must never see the
  // total exceed the true count, and must see the exact total at the end.
  obs::Registry registry;
  obs::Counter c = registry.counter("live");
  std::atomic<bool> stop{false};
  std::thread writer{[&] {
    for (int i = 0; i < 200000; ++i) c.inc();
    stop.store(true);
  }};
  std::uint64_t last = 0;
  while (!stop.load()) {
    const std::uint64_t v = c.value();
    EXPECT_GE(v, last);  // monotone from a single reader's view
    last = v;
  }
  writer.join();
  EXPECT_EQ(c.value(), 200000u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Registry registry;
  obs::Gauge g = registry.gauge("g");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  const auto snap = registry.collect();
  EXPECT_EQ(snap.gauges.at("g"), 7);
}

// ---------------------------------------------------------------------
// Registry: snapshots, samplers, reset.

TEST(ObsRegistry, SamplerRunsOnSnapshotOnly) {
  obs::Registry registry;
  obs::Gauge g = registry.gauge("sampled");
  int runs = 0;
  auto handle = registry.add_sampler([&] {
    ++runs;
    g.set(runs);
  });
  (void)registry.collect();  // collect() must NOT run samplers
  EXPECT_EQ(runs, 0);
  auto snap = registry.snapshot();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(snap.gauges.at("sampled"), 1);
  handle.reset();
  (void)registry.snapshot();  // unregistered: not invoked again
  EXPECT_EQ(runs, 1);
}

TEST(ObsRegistry, SamplerHandleUnregistersOnDestruction) {
  obs::Registry registry;
  int runs = 0;
  {
    auto handle = registry.add_sampler([&] { ++runs; });
    (void)registry.snapshot();
  }
  (void)registry.snapshot();
  EXPECT_EQ(runs, 1);
}

// Regression: SamplerHandle used to hold a raw Registry* — a handle
// outliving its registry dereferenced freed memory on reset()/destruction.
// The handle now shares ownership of the sampler set, so destroying the
// registry first must leave the handle safe (and its reset() a no-op).
TEST(ObsRegistry, SamplerHandleOutlivesRegistry) {
  int runs = 0;
  obs::Registry::SamplerHandle handle;
  {
    obs::Registry registry;
    handle = registry.add_sampler([&] { ++runs; });
    (void)registry.snapshot();
  }
  EXPECT_EQ(runs, 1);
  handle.reset();  // must not touch the destroyed registry
}

TEST(ObsRegistry, SamplerHandleDestructionAfterRegistryIsSafe) {
  auto registry = std::make_unique<obs::Registry>();
  auto handle = registry->add_sampler([] {});
  registry.reset();
  // handle's destructor fires at scope exit, after the registry is gone.
}

// Destroying the registry mid-lifetime detaches still-registered samplers:
// no callback may fire once its registry is gone (the snapshot machinery
// dies with it), but handles stay valid.
TEST(ObsRegistry, RegistryDestructionDetachesSamplers) {
  int runs = 0;
  obs::Registry::SamplerHandle handle;
  {
    obs::Registry registry;
    handle = registry.add_sampler([&] { ++runs; });
  }
  EXPECT_EQ(runs, 0);
  handle.reset();
  EXPECT_EQ(runs, 0);
}

TEST(ObsRegistry, ResetZeroesEverythingKeepsHandles) {
  obs::Registry registry;
  obs::Counter c = registry.counter("c");
  obs::Gauge g = registry.gauge("g");
  obs::Histogram h = registry.histogram("h");
  c.add(5);
  g.set(5);
  h.observe(5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // handles stay live after reset
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRegistry, GlobalIsSameInstance) {
  obs::Counter a = obs::Registry::global().counter("dnh_test_global_total");
  obs::Counter b = obs::Registry::global().counter("dnh_test_global_total");
  const std::uint64_t before = a.value();
  b.inc();
  EXPECT_EQ(a.value(), before + 1);
}

// ---------------------------------------------------------------------
// Span gates and timers.

TEST(ObsTrace, GateAdmitsOneInN) {
  obs::SampleGate gate{16};
  int admitted = 0;
  for (int i = 0; i < 160; ++i) admitted += gate.admit();
  EXPECT_EQ(admitted, 10);
  EXPECT_TRUE(obs::SampleGate{1}.admit());  // every==1 admits everything
}

TEST(ObsTrace, GateRoundsUpToPowerOfTwo) {
  obs::SampleGate gate{10};  // rounds to 16
  EXPECT_EQ(gate.mask, 15u);
}

TEST(ObsTrace, SpanRecordsIntoHistogram) {
  obs::Registry registry;
  obs::Histogram h = registry.histogram("span_ns");
  { obs::SpanTimer span{h}; }
  EXPECT_EQ(h.count(), 1u);
  {
    obs::SpanTimer span{h};
    span.stop();
    span.stop();  // idempotent
  }
  EXPECT_EQ(h.count(), 2u);
}

TEST(ObsTrace, GatedSpanRecordsSampledSubset) {
  obs::Registry registry;
  obs::Histogram h = registry.histogram("gated_ns");
  obs::SampleGate gate{8};
  for (int i = 0; i < 64; ++i) obs::SpanTimer span{h, gate};
  EXPECT_EQ(h.count(), 8u);
  // The gate's rate travels with the recorded spans.
  const obs::Snapshot snap = registry.collect();
  EXPECT_EQ(snap.histograms.at("gated_ns").sample_every, 8u);
}

// ---------------------------------------------------------------------
// Exporters.

/// Tiny JSON sanity checks (not a full parser): balanced braces, the
/// expected top-level keys in order, and extractable integer fields.
bool looks_like_snapshot_json(const std::string& line) {
  return line.size() > 2 && line.front() == '{' && line.back() == '}' &&
         line.find("\"ts_ms\":") != std::string::npos &&
         line.find("\"counters\":{") != std::string::npos &&
         line.find("\"gauges\":{") != std::string::npos &&
         line.find("\"histograms\":{") != std::string::npos;
}

std::uint64_t json_uint_field(const std::string& line,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return UINT64_MAX;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ObsExport, JsonLineGolden) {
  // A hand-built snapshot serializes to a byte-exact line: the format is
  // a contract with external tailers, not an implementation detail.
  obs::Snapshot snap;
  snap.wall_unix_ms = 1700000000123;
  snap.counters["dnh_frames_total"] = 42;
  snap.gauges["dnh_depth{shard=0}"] = -3;
  obs::HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 9;
  hist.buckets.push_back({3, 1});
  hist.buckets.push_back({7, 1});
  snap.histograms["dnh_stage_x_ns"] = hist;

  EXPECT_EQ(obs::to_json_line(snap),
            "{\"ts_ms\":1700000000123,"
            "\"counters\":{\"dnh_frames_total\":42},"
            "\"gauges\":{\"dnh_depth{shard=0}\":-3},"
            "\"histograms\":{\"dnh_stage_x_ns\":"
            "{\"count\":2,\"sum\":9,\"buckets\":[[3,1],[7,1]]}}}");
}

TEST(ObsExport, PrometheusRoundTrip) {
  obs::Registry registry;
  registry.counter("dnh_events_total{kind=a}").add(7);
  registry.counter("dnh_events_total{kind=b}").add(3);
  registry.gauge("dnh_depth{shard=1}").set(12);
  obs::Histogram h = registry.histogram("dnh_lat_ns");
  h.observe(1);
  h.observe(100);

  const std::string text = obs::to_prometheus(registry.collect());

  // Parse the exposition text back into (metric-with-labels -> value).
  std::map<std::string, double> values;
  std::istringstream in{text};
  std::string line;
  int type_lines = 0;
  int help_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      ++type_lines;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      ++help_lines;
      continue;
    }
    ASSERT_NE(line.front(), '#') << "unexpected comment: " << line;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    values[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  EXPECT_EQ(type_lines, 3);  // one per base name
  EXPECT_EQ(help_lines, 3);  // paired with every TYPE line
  EXPECT_EQ(values.at("dnh_events_total{kind=\"a\"}"), 7);
  EXPECT_EQ(values.at("dnh_events_total{kind=\"b\"}"), 3);
  EXPECT_EQ(values.at("dnh_depth{shard=\"1\"}"), 12);
  EXPECT_EQ(values.at("dnh_lat_ns_count"), 2);
  EXPECT_EQ(values.at("dnh_lat_ns_sum"), 101);
  EXPECT_EQ(values.at("dnh_lat_ns_bucket{le=\"+Inf\"}"), 2);
  // Cumulative bucket counts: some le-bucket holds exactly the first obs.
  double below_two = -1;
  for (const auto& [key, value] : values) {
    if (key.rfind("dnh_lat_ns_bucket{le=\"1\"}", 0) == 0) below_two = value;
  }
  EXPECT_EQ(below_two, 1);
}

TEST(ObsExport, JsonlExporterWritesWellFormedLines) {
  obs::Registry registry;
  obs::Counter c = registry.counter("dnh_test_events_total");
  c.add(5);

  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_obs.jsonl")
          .string();
  std::remove(path.c_str());
  {
    obs::JsonlExporter::Options options;
    options.path = path;
    options.interval = util::Duration::micros(5000);  // 5ms cadence
    obs::JsonlExporter exporter{registry, options};
    ASSERT_TRUE(exporter.start());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    c.add(5);
    exporter.stop();
    EXPECT_GE(exporter.lines_written(), 3u);  // initial + ticks + final
  }

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);
  for (const auto& l : lines)
    EXPECT_TRUE(looks_like_snapshot_json(l)) << l;
  // The first line sees the pre-start count, the last the final count.
  EXPECT_EQ(json_uint_field(lines.front(), "dnh_test_events_total"), 5u);
  EXPECT_EQ(json_uint_field(lines.back(), "dnh_test_events_total"), 10u);
  // Timestamps never regress across lines.
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_LE(json_uint_field(lines[i - 1], "ts_ms"),
              json_uint_field(lines[i], "ts_ms"));
  std::remove(path.c_str());
}

TEST(ObsExport, HumanSummaryShowsStagesAndCounters) {
  obs::Registry registry;
  registry.counter("dnh_frames_total").add(1234);
  obs::Histogram stage = registry.histogram("dnh_stage_decode_ns");
  for (int i = 0; i < 10; ++i) stage.observe(1000);
  const std::string text = obs::human_summary(registry.collect());
  EXPECT_NE(text.find("dnh_stage_decode_ns"), std::string::npos);
  EXPECT_NE(text.find("dnh_frames_total"), std::string::npos);
  EXPECT_NE(text.find("1,234"), std::string::npos);
}

TEST(ObsExport, HumanSummaryScalesSampledStagesByTheirRate) {
  // A stage timed 1 in 64 and a fully timed one with the same raw span
  // sum: the sampled stage stands for 64x the time, so it must get 64/65
  // of the share, not half of it.
  obs::Registry registry;
  obs::Histogram sampled = registry.histogram("dnh_stage_a_sampled_ns");
  obs::Histogram timed = registry.histogram("dnh_stage_b_timed_ns");
  for (int i = 0; i < 10; ++i) {
    sampled.observe(1000, 64);
    timed.observe(1000);
  }
  const obs::Snapshot snap = registry.collect();
  const auto& a = snap.histograms.at("dnh_stage_a_sampled_ns");
  const auto& b = snap.histograms.at("dnh_stage_b_timed_ns");
  EXPECT_EQ(a.sample_every, 64u);
  EXPECT_EQ(b.sample_every, 1u);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.estimated_sum(), 640000.0);
  EXPECT_DOUBLE_EQ(b.estimated_sum(), 10000.0);

  const std::string text = obs::human_summary(snap);
  const auto row = [&](const std::string& name) {
    const auto at = text.find(name);
    EXPECT_NE(at, std::string::npos) << text;
    return text.substr(at, text.find('\n', at) - at);
  };
  const std::string row_a = row("dnh_stage_a_sampled_ns");
  const std::string row_b = row("dnh_stage_b_timed_ns");
  EXPECT_NE(row_a.find("1/64"), std::string::npos) << row_a;
  EXPECT_NE(row_a.find("640.0us"), std::string::npos) << row_a;
  EXPECT_NE(row_a.find("98.5%"), std::string::npos) << row_a;
  EXPECT_NE(row_b.find("all"), std::string::npos) << row_b;
  EXPECT_NE(row_b.find("10.0us"), std::string::npos) << row_b;
  EXPECT_NE(row_b.find("1.5%"), std::string::npos) << row_b;
}

TEST(ObsExport, FormatNs) {
  EXPECT_EQ(obs::format_ns(870), "870ns");
  EXPECT_EQ(obs::format_ns(12400), "12.4us");
  EXPECT_EQ(obs::format_ns(1.03e9), "1.03s");
}

TEST(ObsExport, PrometheusEscapesLabelValues) {
  // Exposition-format conformance: backslashes and quotes inside a label
  // value must be escaped or scrapers reject the whole exposition.
  obs::Snapshot snap;
  snap.counters["dnh_weird_total{path=a\"b\\c}"] = 1;
  const std::string text = obs::to_prometheus(snap);
  EXPECT_NE(text.find("dnh_weird_total{path=\"a\\\"b\\\\c\"} 1"),
            std::string::npos)
      << text;
}

TEST(ObsExport, PrometheusPairsHelpWithEveryType) {
  obs::Snapshot snap;
  snap.counters["dnh_frames_total"] = 3;
  snap.gauges["dnh_made_up_gauge"] = 1;  // unknown name -> fallback help
  const std::string text = obs::to_prometheus(snap);
  EXPECT_NE(text.find("# HELP dnh_frames_total "), std::string::npos);
  EXPECT_NE(text.find("# TYPE dnh_frames_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP dnh_made_up_gauge "), std::string::npos);
  // HELP precedes TYPE for the same family.
  EXPECT_LT(text.find("# HELP dnh_frames_total"),
            text.find("# TYPE dnh_frames_total"));
}

TEST(ObsExport, JsonlExporterSubIntervalRunStillWritesSnapshots) {
  // Regression: a run shorter than --metrics-interval must still leave a
  // first (t=0) line and a final line — monitoring of short runs depends
  // on it. The interval here is far longer than the test.
  obs::Registry registry;
  registry.counter("dnh_test_short_run_total").add(7);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_obs_short.jsonl")
          .string();
  std::remove(path.c_str());
  {
    obs::JsonlExporter::Options options;
    options.path = path;
    options.interval = util::Duration::hours(1);
    obs::JsonlExporter exporter{registry, options};
    ASSERT_TRUE(exporter.start());
    exporter.stop();
    EXPECT_GE(exporter.lines_written(), 2u);  // t=0 baseline + final
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u);
  for (const auto& l : lines) {
    EXPECT_TRUE(looks_like_snapshot_json(l)) << l;
    EXPECT_EQ(json_uint_field(l, "dnh_test_short_run_total"), 7u);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Flight recorder: rings, recorder, excerpt.

TEST(ObsFlight, RingKeepsNewestEventsAcrossWraparound) {
  obs::TraceRing ring{16};
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::uint64_t i = 0; i < 16 * 10 + 3; ++i)
    ring.record(i, obs::TraceStage::kShard, obs::TraceKind::kFrameBatch,
                /*seq=*/i, /*shard=*/2, /*arg=*/i);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(ring.total(), 163u);
  // Exactly the newest `capacity` events, oldest first, nothing torn.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 163 - 16 + i);
    EXPECT_EQ(events[i].seq, events[i].arg);
    EXPECT_EQ(events[i].stage, obs::TraceStage::kShard);
    EXPECT_EQ(events[i].kind, obs::TraceKind::kFrameBatch);
    EXPECT_EQ(events[i].shard, 2u);
  }
}

TEST(ObsFlight, RingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::TraceRing{1}.capacity(), 8u);
  EXPECT_EQ(obs::TraceRing{9}.capacity(), 16u);
  EXPECT_EQ(obs::TraceRing{64}.capacity(), 64u);
}

TEST(ObsFlight, RecorderSnapshotCarriesLabelsAndEvents) {
  obs::FlightRecorder recorder{64};
  recorder.set_thread_label("test-thread");
  recorder.record(obs::TraceStage::kDispatch,
                  obs::TraceKind::kWindowDispatched, /*seq=*/7, obs::kNoShard,
                  /*arg=*/4);
  recorder.record(obs::TraceStage::kMerge, obs::TraceKind::kWindowEmitted,
                  /*seq=*/7);
  const auto threads = recorder.snapshot();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].label, "test-thread");
  EXPECT_EQ(threads[0].total, 2u);
  ASSERT_EQ(threads[0].events.size(), 2u);
  EXPECT_EQ(threads[0].events[0].kind, obs::TraceKind::kWindowDispatched);
  EXPECT_EQ(threads[0].events[0].seq, 7u);
  EXPECT_EQ(threads[0].events[0].arg, 4u);
  EXPECT_EQ(threads[0].events[1].kind, obs::TraceKind::kWindowEmitted);
  EXPECT_LE(threads[0].events[0].ts_ns, threads[0].events[1].ts_ns);
}

TEST(ObsFlight, DisabledRecorderDropsEventsButKeepsDumps) {
  obs::FlightRecorder recorder{64};
  recorder.record(obs::TraceStage::kCli, obs::TraceKind::kThreadStart);
  recorder.set_enabled(false);
  recorder.record(obs::TraceStage::kCli, obs::TraceKind::kSourceOpen);
  recorder.set_enabled(true);
  const auto threads = recorder.snapshot();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].total, 1u);
  EXPECT_EQ(threads[0].events[0].kind, obs::TraceKind::kThreadStart);
}

TEST(ObsFlight, RecorderAtADeadRecordersAddressGetsItsOwnRing) {
  // Two recorders built one after the other in the same stack slot: the
  // second must register its own ring, not reuse the thread's cached
  // ring of the first.
  alignas(obs::FlightRecorder) unsigned char slot[sizeof(obs::FlightRecorder)];
  auto* first = new (slot) obs::FlightRecorder{64};
  first->record(obs::TraceStage::kCli, obs::TraceKind::kThreadStart);
  ASSERT_EQ(first->snapshot().size(), 1u);
  first->~FlightRecorder();
  auto* second = new (slot) obs::FlightRecorder{64};
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  second->record(obs::TraceStage::kCli, obs::TraceKind::kSourceOpen);
  const auto threads = second->snapshot();
  second->~FlightRecorder();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].total, 1u);
  EXPECT_EQ(threads[0].events[0].kind, obs::TraceKind::kSourceOpen);
}

TEST(ObsFlight, ConcurrentWritersSnapshotAndExcerptRaceFree) {
  // The TSan contract: dump/excerpt readers race the per-thread writers
  // and must stay warning-free while never returning a torn event.
  obs::FlightRecorder recorder{256};
  constexpr int kWriters = 4;
  constexpr std::uint64_t kEvents = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      recorder.set_thread_label("writer-" + std::to_string(w));
      for (std::uint64_t i = 0; i < kEvents; ++i)
        recorder.record(obs::TraceStage::kShard, obs::TraceKind::kFrameBatch,
                        /*seq=*/i, static_cast<unsigned>(w), /*arg=*/i);
    });
  }
  std::thread reader{[&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& thread : recorder.snapshot()) {
        // Untorn invariant: within one ring, args are consecutive.
        for (std::size_t i = 1; i < thread.events.size(); ++i)
          EXPECT_EQ(thread.events[i].arg, thread.events[i - 1].arg + 1);
      }
      (void)recorder.excerpt(3);
    }
  }};
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const auto threads = recorder.snapshot();
  ASSERT_EQ(threads.size(), static_cast<std::size_t>(kWriters));
  for (const auto& thread : threads) {
    EXPECT_EQ(thread.total, kEvents);
    ASSERT_EQ(thread.events.size(), std::size_t{256});
    EXPECT_EQ(thread.events.back().arg, kEvents - 1);
  }
}

TEST(ObsFlight, ExcerptGroupsByStageAndCapsPerStage) {
  obs::FlightRecorder recorder{64};
  recorder.set_thread_label("solo");
  for (std::uint64_t i = 0; i < 10; ++i)
    recorder.record(obs::TraceStage::kShard, obs::TraceKind::kWindowSealed,
                    /*seq=*/i, /*shard=*/0, /*arg=*/i);
  recorder.record(obs::TraceStage::kMerge, obs::TraceKind::kWindowEmitted,
                  /*seq=*/9);
  const std::string text = recorder.excerpt(2);
  EXPECT_NE(text.find("[shard]"), std::string::npos) << text;
  EXPECT_NE(text.find("[merge]"), std::string::npos) << text;
  EXPECT_NE(text.find("window-emitted"), std::string::npos);
  // Capped at 2 events for the shard stage: seq=8 survives, seq=7 not.
  EXPECT_NE(text.find("seq=8"), std::string::npos) << text;
  EXPECT_EQ(text.find("seq=7"), std::string::npos) << text;
}

TEST(ObsFlight, StageAndKindNamesAreStableAndDistinct) {
  std::set<std::string_view> stage_names;
  for (std::size_t i = 0; i < obs::kTraceStageCount; ++i)
    stage_names.insert(
        obs::trace_stage_name(static_cast<obs::TraceStage>(i)));
  EXPECT_EQ(stage_names.size(), obs::kTraceStageCount);
  std::set<std::string_view> kind_names;
  for (std::size_t i = 0; i < obs::kTraceKindCount; ++i) {
    const auto name =
        obs::trace_kind_name(static_cast<obs::TraceKind>(i));
    EXPECT_FALSE(name.empty());
    kind_names.insert(name);
  }
  EXPECT_EQ(kind_names.size(), obs::kTraceKindCount);
}

// ---------------------------------------------------------------------
// Trace IO: binary dumps, chrome trace, crash paths.

std::vector<obs::ThreadTrace> sample_threads() {
  obs::ThreadTrace a;
  a.ring_id = 0;
  a.label = "dispatch";
  a.total = 2;
  obs::TraceEvent e;
  e.ts_ns = 1500;
  e.seq = 0;
  e.stage = obs::TraceStage::kDispatch;
  e.kind = obs::TraceKind::kWindowDispatched;
  e.arg = 4;
  a.events.push_back(e);
  e.ts_ns = 2750;
  e.kind = obs::TraceKind::kPipelineFinish;
  a.events.push_back(e);
  obs::ThreadTrace b;
  b.ring_id = 1;
  b.label = "shard-0";
  b.total = 1;
  e.ts_ns = 2000;
  e.stage = obs::TraceStage::kShard;
  e.kind = obs::TraceKind::kWindowSealed;
  e.shard = 0;
  b.events.push_back(e);
  return {a, b};
}

TEST(ObsTraceIo, BinaryDumpRoundTripIsByteExact) {
  const auto threads = sample_threads();
  const auto frame = obs::encode_trace_frame(threads);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_trace.dnht")
          .string();
  ASSERT_TRUE(obs::write_binary_dump(path, threads));
  std::string error;
  const auto loaded = obs::read_binary_dump(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(error.empty()) << error;
  // Re-encoding the decoded dump reproduces the original bytes exactly:
  // nothing was lost, reordered, or re-quantized on the way through.
  EXPECT_EQ(obs::encode_trace_frame(*loaded), frame);
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].label, "dispatch");
  EXPECT_EQ((*loaded)[1].label, "shard-0");
  ASSERT_EQ((*loaded)[0].events.size(), 2u);
  EXPECT_EQ((*loaded)[0].events[1].kind, obs::TraceKind::kPipelineFinish);
  EXPECT_EQ((*loaded)[1].events[0].shard, 0u);
  std::remove(path.c_str());
}

TEST(ObsTraceIo, ReadDegradesOverTornTrailingFrame) {
  const auto threads = sample_threads();
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_trace_torn.dnht")
          .string();
  ASSERT_TRUE(obs::write_binary_dump(path, threads));
  {
    // A second frame whose payload was cut off mid-write (crash while
    // appending): the intact first frame must still be served.
    std::ofstream out{path, std::ios::binary | std::ios::app};
    const char torn[] = {'D', 'N', 'H', 'T', 0x40, 0, 0, 0, 1, 2, 3, 4, 9};
    out.write(torn, sizeof torn);
  }
  std::string error;
  const auto loaded = obs::read_binary_dump(path, &error);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_FALSE(error.empty());  // damage is reported, not hidden
  std::remove(path.c_str());
}

TEST(ObsTraceIo, ReadRejectsMissingAndForeignFiles) {
  std::string error;
  EXPECT_FALSE(obs::read_binary_dump("/nonexistent/x.dnht", &error));
  EXPECT_FALSE(error.empty());
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_trace_bad.dnht")
          .string();
  std::ofstream{path} << "this is not a trace dump";
  EXPECT_FALSE(obs::read_binary_dump(path, &error));
  std::remove(path.c_str());
}

TEST(ObsTraceIo, ChromeTraceShapesEventsAndThreadNames) {
  const std::string json = obs::to_chrome_trace(sample_threads());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"window-sealed\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // 1500 ns -> 1.500 us: the ns fraction survives the us-based format.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"shard\""), std::string::npos);
}

TEST(ObsTraceIo, SignalSafeDumpReadsBackIntact) {
  obs::FlightRecorder recorder{64};
  recorder.set_thread_label("sig-test");
  for (std::uint64_t i = 0; i < 20; ++i)
    recorder.record(obs::TraceStage::kSpill, obs::TraceKind::kWindowSpilled,
                    /*seq=*/i, /*shard=*/1, /*arg=*/i * 100);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_trace_sig.dnht")
          .string();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(obs::signal_safe_dump(fd, recorder));
  ::close(fd);
  std::string error;
  const auto loaded = obs::read_binary_dump(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].label, "sig-test");
  ASSERT_EQ((*loaded)[0].events.size(), 20u);
  EXPECT_EQ((*loaded)[0].events[19].arg, 1900u);
  std::remove(path.c_str());
}

TEST(ObsTraceIo, PeriodicDumpWritesFirstDumpSynchronously) {
  obs::FlightRecorder recorder{64};
  recorder.record(obs::TraceStage::kCli, obs::TraceKind::kThreadStart);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnh_test_trace_per.dnht")
          .string();
  std::remove(path.c_str());
  obs::PeriodicTraceDump dump{recorder, path, util::Duration::hours(1)};
  dump.start();
  // The interval never elapses in this test, yet the file already holds a
  // complete dump: kill -9 right after start still leaves forensics.
  EXPECT_TRUE(obs::read_binary_dump(path).has_value());
  recorder.record(obs::TraceStage::kCli, obs::TraceKind::kSourceDone);
  dump.stop();
  const auto loaded = obs::read_binary_dump(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].events.size(), 2u);  // final dump covers stop()
  EXPECT_GE(dump.dumps(), 2u);
  std::remove(path.c_str());
}

}  // namespace
