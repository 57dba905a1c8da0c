// Tests for the sharded parallel ingestion pipeline: SPSC ring semantics,
// dispatch determinism, the merge stage's bit-identity guarantee against
// the single-threaded Sniffer, and backpressure accounting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "header_peek_corpus.hpp"
#include "core/flowdb_io.hpp"
#include "core/sniffer.hpp"
#include "dns/message.hpp"
#include "faultinject/faultinject.hpp"
#include "flow/table.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "packet/build.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/spsc_ring.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"
#include "util/rng.hpp"

namespace dnh {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(pipeline::SpscRing<int>{1}.capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>{2}.capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(pipeline::SpscRing<int>{1000}.capacity(), 1024u);
}

TEST(SpscRing, FifoOrderAndFullEmpty) {
  pipeline::SpscRing<int> ring{4};
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));  // starts empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));  // full at capacity
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // drained
  // Wrap-around: cursors keep counting past capacity.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(lap * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

TEST(SpscRing, ProduceRecyclesSlotStorage) {
  pipeline::SpscRing<std::vector<int>> ring{2};
  ASSERT_TRUE(ring.try_produce([](std::vector<int>& slot) {
    slot.assign(100, 7);
  }));
  ASSERT_TRUE(ring.try_consume([](std::vector<int>& slot) {
    EXPECT_EQ(slot.size(), 100u);
  }));
  // The consumed slot keeps its heap buffer; the next lap's producer sees
  // capacity it can reuse without allocating.
  ASSERT_TRUE(ring.try_push(std::vector<int>{}));  // advance to slot 1
  std::vector<int> sink;
  ASSERT_TRUE(ring.try_pop(sink));
  bool recycled_capacity = false;
  ASSERT_TRUE(ring.try_produce([&](std::vector<int>& slot) {
    recycled_capacity = slot.capacity() >= 100;
    slot.assign(3, 1);
  }));
  EXPECT_TRUE(recycled_capacity);
}

TEST(SpscRing, CrossThreadStressPreservesSequence) {
  constexpr int kItems = 200000;
  pipeline::SpscRing<int> ring{64};
  std::thread producer{[&] {
    for (int i = 0; i < kItems;) {
      if (ring.try_push(int{i})) ++i;
    }
  }};
  std::int64_t sum = 0;
  int expected = 0;
  while (expected < kItems) {
    int value = -1;
    if (!ring.try_pop(value)) continue;
    ASSERT_EQ(value, expected);  // strict FIFO across threads
    sum += value;
    ++expected;
  }
  producer.join();
  EXPECT_EQ(sum, std::int64_t{kItems} * (kItems - 1) / 2);
}

// ------------------------------------------------------- pipeline fixture

trafficgen::TraceProfile pipeline_profile() {
  auto p = trafficgen::profile_eu1_ftth();
  p.name = "pipeline";
  p.duration = util::Duration::minutes(40);
  p.n_clients = 50;
  return p;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() /
           ("dnh_pipeline_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_path_ = (dir_ / "trace.pcap").string();
    trafficgen::Simulator sim{pipeline_profile()};
    ASSERT_TRUE(sim.write_pcap(pcap_path_));
    frames_ = new std::vector<pcap::Frame>;
    std::string error;
    ASSERT_TRUE(pcap::read_any_capture(
        pcap_path_,
        [&](const pcap::Frame& frame) { frames_->push_back(frame); },
        error));
    ASSERT_GT(frames_->size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete frames_;
    frames_ = nullptr;
    fs::remove_all(dir_);
  }

  /// Canonicalized single-threaded reference result.
  struct Baseline {
    core::FlowDatabase db;
    std::vector<core::DnsEvent> dns_log;
    core::SnifferStats stats;
  };
  static Baseline run_baseline() {
    core::Sniffer sniffer;
    for (const auto& frame : *frames_)
      sniffer.on_frame(frame.data, frame.timestamp);
    sniffer.finish();
    Baseline out;
    out.stats = sniffer.stats();
    out.db = sniffer.take_database();
    out.dns_log = sniffer.take_dns_log();
    pipeline::canonicalize(out.db);
    pipeline::canonicalize(out.dns_log);
    return out;
  }

  static std::string tsv(const core::FlowDatabase& db) {
    std::ostringstream out;
    core::write_flow_tsv(db, out);
    return out.str();
  }

  static void expect_stats_equal(const core::SnifferStats& a,
                                 const core::SnifferStats& b) {
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.dns_responses, b.dns_responses);
    EXPECT_EQ(a.dns_parse_failures, b.dns_parse_failures);
    EXPECT_EQ(a.dns_queries, b.dns_queries);
    EXPECT_EQ(a.dns_tcp_messages, b.dns_tcp_messages);
    EXPECT_EQ(a.flows_exported, b.flows_exported);
    EXPECT_EQ(a.flows_tagged_at_start, b.flows_tagged_at_start);
    EXPECT_EQ(a.flows_tagged_at_export, b.flows_tagged_at_export);
    EXPECT_EQ(a.degradation.malformed_total(),
              b.degradation.malformed_total());
    EXPECT_EQ(a.degradation.unsupported_frames,
              b.degradation.unsupported_frames);
  }

  static fs::path dir_;
  static std::string pcap_path_;
  static std::vector<pcap::Frame>* frames_;
};

fs::path PipelineTest::dir_;
std::string PipelineTest::pcap_path_;
std::vector<pcap::Frame>* PipelineTest::frames_ = nullptr;

// ------------------------------------------------------------ dispatching

TEST_F(PipelineTest, ShardForIsDeterministicAndCoversShards) {
  std::vector<std::size_t> counts(4, 0);
  for (const auto& frame : *frames_) {
    const std::size_t shard = pipeline::ShardedAnalyzer::shard_for(
        frame.data, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, pipeline::ShardedAnalyzer::shard_for(frame.data, 4));
    ++counts[shard];
    EXPECT_EQ(pipeline::ShardedAnalyzer::shard_for(frame.data, 1), 0u);
  }
  // 50 clients hashed over 4 shards: every shard must see traffic.
  for (std::size_t shard = 0; shard < 4; ++shard)
    EXPECT_GT(counts[shard], 0u) << "shard " << shard << " got no frames";
}

// The dispatch rule read through the full decoder: decode_frame, the
// DNS-port rule, flow::orient, then the splitmix64 finalizer reduced mod
// `shards`. shard_for reads the same rule from a header peek and must
// agree with this oracle on every frame, accepted or not.
std::size_t decode_oracle_shard(net::BytesView frame, std::size_t shards) {
  const auto pkt = packet::decode_frame(frame, util::Timestamp{});
  if (!pkt || !pkt->is_ipv4()) return 0;
  net::Ipv4Address client;
  if (pkt->src_port() == dns::kDnsPort)
    client = pkt->dst_v4();
  else if (pkt->dst_port() == dns::kDnsPort)
    client = pkt->src_v4();
  else
    client = flow::orient(*pkt).key.client_ip;
  std::uint64_t x = client.value();
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

TEST_F(PipelineTest, ShardForMatchesDecodeOracle) {
  std::vector<net::Bytes> corpus = testcorpus::header_peek_corpus(20121114);
  for (const auto& frame : *frames_) corpus.push_back(frame.data);
  for (std::size_t shards = 2; shards <= 8; ++shards) {
    std::vector<std::size_t> counts(shards, 0);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::size_t shard =
          pipeline::ShardedAnalyzer::shard_for(corpus[i], shards);
      ASSERT_EQ(shard, decode_oracle_shard(corpus[i], shards))
          << "frame " << i << ", " << shards << " shards";
      ++counts[shard];
    }
    for (std::size_t s = 0; s < shards; ++s)
      EXPECT_GT(counts[s], 0u) << "shard " << s << " of " << shards;
  }
}

// Connections whose two ports are both ephemeral with server > client are
// the trap for per-packet dispatch: the SYN orients by its flags (sender =
// client) while data packets orient by the port heuristic (higher port =
// client), so the two directions hash to DIFFERENT shards and the
// connection would fork into half-flows. The affinity table must pin the
// whole connection to the first packet's shard.
TEST_F(PipelineTest, AmbiguousPortConnectionsDoNotForkAcrossShards) {
  using namespace packet::tcpflags;
  constexpr std::size_t kConnections = 32;
  std::vector<pcap::Frame> frames;
  bool directions_disagree = false;
  for (std::size_t i = 0; i < kConnections; ++i) {
    packet::FrameSpec c2s;
    c2s.src_ip = net::Ipv4Address(0x0a000001 + (static_cast<std::uint32_t>(i) << 8));
    c2s.dst_ip = net::Ipv4Address(0xcb000002 + (static_cast<std::uint32_t>(i) << 8));
    c2s.src_port = static_cast<std::uint16_t>(50000 + i);  // client (SYN sender)
    c2s.dst_port = static_cast<std::uint16_t>(55000 + i);  // "server", higher port
    packet::FrameSpec s2c = c2s;
    std::swap(s2c.src_ip, s2c.dst_ip);
    std::swap(s2c.src_port, s2c.dst_port);

    const auto t = [&](int step) {
      return util::Timestamp::from_micros(1'000'000 + static_cast<std::int64_t>(i) * 10'000 + step * 1'000);
    };
    const net::Bytes payload{'h', 'i'};
    const auto push = [&](int step, net::Bytes bytes) {
      frames.push_back(packet::make_pcap_frame(t(step), std::move(bytes)));
    };
    push(0, packet::build_tcp_frame(c2s, kSyn, 0, 0, {}));
    push(1, packet::build_tcp_frame(s2c, kSyn | kAck, 0, 1, {}));
    push(2, packet::build_tcp_frame(c2s, kAck | kPsh, 1, 1, payload));
    push(3, packet::build_tcp_frame(s2c, kAck | kPsh, 1, 3, payload));
    push(4, packet::build_tcp_frame(c2s, kFin | kAck, 3, 3, {}));
    push(5, packet::build_tcp_frame(s2c, kFin | kAck, 3, 4, {}));

    // Confirm the premise: the stateless heuristic really does send the
    // two directions of some connection to different shards.
    directions_disagree |=
        pipeline::ShardedAnalyzer::shard_for(frames[frames.size() - 6].data, 8) !=
        pipeline::ShardedAnalyzer::shard_for(frames[frames.size() - 3].data, 8);
  }
  ASSERT_TRUE(directions_disagree);
  std::sort(frames.begin(), frames.end(),
            [](const pcap::Frame& a, const pcap::Frame& b) {
              return a.timestamp < b.timestamp;
            });

  core::Sniffer sniffer;
  for (const auto& frame : frames) sniffer.on_frame(frame.data, frame.timestamp);
  sniffer.finish();
  core::FlowDatabase single = sniffer.take_database();
  pipeline::canonicalize(single);
  ASSERT_EQ(single.size(), kConnections);

  pipeline::PipelineConfig config;
  config.shards = 8;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  for (const auto& frame : frames) analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(merged.db.size(), kConnections);
  EXPECT_EQ(tsv(merged.db), tsv(single));
}

// ------------------------------------------------------------ determinism

TEST_F(PipelineTest, FourShardsBitIdenticalToSingleThread) {
  const Baseline baseline = run_baseline();

  pipeline::PipelineConfig config;
  config.shards = 4;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(tsv(merged.db), tsv(baseline.db));
  ASSERT_EQ(merged.dns_log.size(), baseline.dns_log.size());
  for (std::size_t i = 0; i < merged.dns_log.size(); ++i) {
    EXPECT_EQ(merged.dns_log[i].time, baseline.dns_log[i].time);
    EXPECT_EQ(merged.dns_log[i].client, baseline.dns_log[i].client);
    EXPECT_EQ(merged.dns_log[i].fqdn, baseline.dns_log[i].fqdn);
    EXPECT_EQ(merged.dns_log[i].servers, baseline.dns_log[i].servers);
  }
  expect_stats_equal(analyzer.stats().merged, baseline.stats);

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, frames_->size());
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.windows_merged, 1u);
  ASSERT_EQ(stats.shards.size(), 4u);
  std::uint64_t enqueued = 0, processed = 0;
  for (const auto& shard : stats.shards) {
    enqueued += shard.frames_enqueued;
    processed += shard.frames_processed;
    EXPECT_EQ(shard.frames_enqueued, shard.frames_processed);
  }
  EXPECT_EQ(enqueued, frames_->size());
  EXPECT_EQ(processed, frames_->size());
}

TEST_F(PipelineTest, ShardCountIsInvisibleAcrossCounts) {
  const Baseline baseline = run_baseline();
  const std::string reference = tsv(baseline.db);
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    pipeline::PipelineConfig config;
    config.shards = shards;
    core::AnalysisWindow merged;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
    ASSERT_TRUE(analyzer.process_pcap(pcap_path_));
    analyzer.finish();
    EXPECT_EQ(tsv(merged.db), reference) << "shards=" << shards;
    EXPECT_EQ(merged.dns_log.size(), baseline.dns_log.size());
    // The CLI's `summary` counters come from PipelineStats::merged at
    // every --jobs, 1 included; they must match the bare Sniffer's.
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_stats_equal(analyzer.stats().merged, baseline.stats);
  }
}

/// Independent rotation oracle: one bare Sniffer whose database and DNS
/// log are taken at every grid boundary the capture clock crosses, with
/// resolver and open-flow state left in place.
std::vector<core::AnalysisWindow> rotate_bare_sniffer(
    const std::vector<pcap::Frame>& frames, util::Duration window) {
  core::Sniffer sniffer;
  std::vector<core::AnalysisWindow> out;
  util::Timestamp start;
  bool started = false;
  auto rotate = [&] {
    const util::Timestamp end = start + window;
    out.push_back(core::AnalysisWindow{start, end, sniffer.take_database(),
                                       sniffer.take_dns_log()});
    start = end;
  };
  const std::int64_t width = window.total_micros();
  for (const auto& frame : frames) {
    if (!started) {
      start = util::Timestamp::from_micros(
          frame.timestamp.micros_since_epoch() / width * width);
      started = true;
    }
    while (frame.timestamp >= start + window) rotate();
    sniffer.on_frame(frame.data, frame.timestamp);
  }
  sniffer.finish();
  if (started) rotate();
  for (auto& w : out) pipeline::canonicalize(w);
  return out;
}

TEST_F(PipelineTest, WindowedRotationMatchesSnifferRotation) {
  const util::Duration window = util::Duration::minutes(10);
  const std::vector<core::AnalysisWindow> expected =
      rotate_bare_sniffer(*frames_, window);

  pipeline::PipelineConfig config;
  config.shards = 3;
  config.window = window;
  std::vector<core::AnalysisWindow> merged_windows;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) {
        merged_windows.push_back(std::move(w));
      }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  ASSERT_EQ(merged_windows.size(), expected.size());
  ASSERT_GE(merged_windows.size(), 4u);  // 40 min / 10 min + final partial
  for (std::size_t i = 0; i < merged_windows.size(); ++i) {
    EXPECT_EQ(merged_windows[i].start, expected[i].start) << "w" << i;
    EXPECT_EQ(merged_windows[i].end, expected[i].end) << "w" << i;
    EXPECT_EQ(tsv(merged_windows[i].db), tsv(expected[i].db))
        << "window " << i;
    EXPECT_EQ(merged_windows[i].dns_log.size(), expected[i].dns_log.size())
        << "window " << i;
  }
  EXPECT_EQ(analyzer.stats().windows_merged, merged_windows.size());
}

// --------------------------------------------------------- window rotation

/// Window rotation on the one ingest path: a single-shard ShardedAnalyzer
/// with hourly windows, fed hand-built DNS/TCP exchanges.
class WindowRotation : public ::testing::Test {
 protected:
  const net::Ipv4Address kClient{10, 0, 0, 7};
  const net::Ipv4Address kResolver{10, 200, 0, 1};
  const net::Ipv4Address kServer{93, 184, 216, 34};

  static pipeline::PipelineConfig hourly() {
    pipeline::PipelineConfig config;
    config.shards = 1;
    config.window = util::Duration::hours(1);
    return config;
  }

  void feed_dns_response(pipeline::ShardedAnalyzer& analyzer,
                         const std::string& fqdn, std::int64_t t) {
    const auto msg = dns::make_a_response(
        1, *dns::DnsName::from_string(fqdn), {kServer}, 300);
    packet::FrameSpec s;
    s.src_ip = kResolver;
    s.dst_ip = kClient;
    s.src_port = 53;
    s.dst_port = 33333;
    analyzer.on_frame(packet::build_udp_frame(s, msg.encode()),
                      util::Timestamp::from_seconds(t));
  }

  /// One DNS response + complete flow at second `t`.
  void feed_exchange(pipeline::ShardedAnalyzer& analyzer, std::int64_t t,
                     const std::string& fqdn, std::uint16_t cport) {
    feed_dns_response(analyzer, fqdn, t);
    packet::FrameSpec s;
    s.src_ip = kClient;
    s.dst_ip = kServer;
    s.src_port = cport;
    s.dst_port = 80;
    packet::FrameSpec back = s;
    std::swap(back.src_ip, back.dst_ip);
    std::swap(back.src_port, back.dst_port);
    analyzer.on_frame(
        packet::build_tcp_frame(s, packet::tcpflags::kSyn, 0, 0, {}),
        util::Timestamp::from_seconds(t + 1));
    analyzer.on_frame(
        packet::build_tcp_frame(
            s, packet::tcpflags::kFin | packet::tcpflags::kAck, 1, 1, {}),
        util::Timestamp::from_seconds(t + 2));
    analyzer.on_frame(
        packet::build_tcp_frame(
            back, packet::tcpflags::kFin | packet::tcpflags::kAck, 1, 2, {}),
        util::Timestamp::from_seconds(t + 3));
  }
};

TEST_F(WindowRotation, RotatesWindowsAndPartitionsFlows) {
  std::vector<core::AnalysisWindow> windows;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  feed_exchange(analyzer, 100, "early.example.com", 50000);
  feed_exchange(analyzer, 4000, "late.example.com", 50001);  // next hour
  analyzer.finish();

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(analyzer.stats().windows_merged, 2u);
  ASSERT_EQ(windows[0].db.size(), 1u);
  EXPECT_EQ(windows[0].db.flows()[0].fqdn, "early.example.com");
  EXPECT_EQ(windows[0].dns_log.size(), 1u);
  ASSERT_EQ(windows[1].db.size(), 1u);
  EXPECT_EQ(windows[1].db.flows()[0].fqdn, "late.example.com");
  // Window boundaries aligned to the hour.
  EXPECT_EQ(windows[0].start.seconds_since_epoch() % 3600, 0);
  EXPECT_EQ(windows[0].end, windows[1].start);
}

TEST_F(WindowRotation, ResolverStateSurvivesRotation) {
  std::vector<core::AnalysisWindow> windows;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  // Response in hour 0; the flow it labels opens in hour 1.
  feed_dns_response(analyzer, "cached.example.com", 3500);
  packet::FrameSpec s;
  s.src_ip = kClient;
  s.dst_ip = kServer;
  s.src_port = 51000;
  s.dst_port = 80;
  analyzer.on_frame(
      packet::build_tcp_frame(s, packet::tcpflags::kSyn, 0, 0, {}),
      util::Timestamp::from_seconds(4200));
  analyzer.finish();

  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].db.size(), 0u);  // flow still open at rotation
  ASSERT_EQ(windows[1].db.size(), 1u);
  EXPECT_EQ(windows[1].db.flows()[0].fqdn, "cached.example.com");
  EXPECT_TRUE(windows[1].db.flows()[0].tagged_at_start);
}

TEST_F(WindowRotation, IdleGapsDeliverEmptyWindows) {
  std::vector<core::AnalysisWindow> windows;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  feed_exchange(analyzer, 100, "a.example.com", 50000);
  // 3-hour silence, then traffic again.
  feed_exchange(analyzer, 3 * 3600 + 100, "b.example.com", 50001);
  analyzer.finish();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].db.size(), 1u);
  EXPECT_EQ(windows[1].db.size(), 0u);
  EXPECT_EQ(windows[2].db.size(), 0u);
  EXPECT_EQ(windows[3].db.size(), 1u);
}

TEST_F(WindowRotation, RotationMovesWindowsWithoutSinkStillCounts) {
  // Null sink: rotation must still retire each window so the next one
  // starts empty, and windows_merged must keep counting.
  pipeline::ShardedAnalyzer unsinked{hourly(), nullptr};
  feed_exchange(unsinked, 100, "a.example.com", 50000);
  feed_exchange(unsinked, 4000, "b.example.com", 50001);
  unsinked.finish();
  EXPECT_EQ(unsinked.stats().windows_merged, 2u);

  // With a sink: each delivered window contains exactly its own flows
  // (rotation really cleared the previous window's state), and the merged
  // count matches the sink invocations.
  std::size_t delivered = 0;
  std::vector<std::size_t> sizes;
  pipeline::ShardedAnalyzer analyzer{
      hourly(), [&](core::AnalysisWindow&& window) {
        ++delivered;
        sizes.push_back(window.db.size());
      }};
  feed_exchange(analyzer, 100, "a.example.com", 50000);
  feed_exchange(analyzer, 4000, "b.example.com", 50001);
  analyzer.finish();
  EXPECT_EQ(analyzer.stats().windows_merged, delivered);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);  // not cumulative: window 0 was moved out
}

// ----------------------------------------------------------- backpressure

TEST(PipelineBackpressure, DropPolicyShedsAndCountsFrames) {
  // Hold both workers hostage until dispatch is done: every frame beyond
  // the queue capacity MUST be shed, deterministically.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  // Undecodable frames all route to shard 0.
  const net::Bytes junk{0xde, 0xad};
  constexpr std::uint64_t kFrames = 100;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  {
    std::lock_guard lock{mutex};
    release = true;
  }
  cv.notify_all();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, kFrames);
  // Queue capacity 2 with held workers: exactly kFrames - 2 shed.
  EXPECT_EQ(stats.frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.shards[0].frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.shards[0].frames_enqueued, 2u);
  EXPECT_EQ(stats.shards[0].queue_high_water, 2u);
  EXPECT_EQ(stats.shards[1].frames_dropped, 0u);
  // Shed load is accounted as degradation, not silently lost.
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.merged.frames,
            stats.frames_dispatched - stats.frames_dropped);
  // Drops are a capacity event, not malformed input: only the two junk
  // frames that reached a worker count as malformed; the 98 shed frames
  // must not inflate the total.
  EXPECT_EQ(stats.merged.degradation.malformed_total(), 2u);
}

TEST(PipelineBackpressure, BlockPolicyIsLosslessAndCountsStalls) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> released{false};

  pipeline::PipelineConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kBlock;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  // The dispatcher will block on the third frame; release the worker from
  // a helper thread once that happens.
  std::thread releaser{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard lock{mutex};
      release = true;
    }
    released.store(true);
    cv.notify_all();
  }};
  const net::Bytes junk{0xde, 0xad};
  constexpr std::uint64_t kFrames = 50;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  EXPECT_TRUE(released.load());  // dispatch 50 > capacity 2 must have stalled
  releaser.join();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.shards[0].frames_enqueued, kFrames);
  EXPECT_EQ(stats.shards[0].frames_processed, kFrames);
  EXPECT_GT(stats.shards[0].blocked_pushes, 0u);
  EXPECT_EQ(stats.merged.frames, kFrames);
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped, 0u);
}

// ------------------------------------------------------------- edge cases

TEST(PipelineEdge, EmptyRunDeliversNoWindow) {
  pipeline::PipelineConfig config;
  config.shards = 3;
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    analyzer.finish();
    EXPECT_EQ(analyzer.stats().frames_dispatched, 0u);
    EXPECT_EQ(analyzer.stats().windows_merged, 0u);
  }
  EXPECT_EQ(windows, 0u);
}

TEST(PipelineEdge, DestructorFinishesWithoutExplicitCall) {
  pipeline::PipelineConfig config;
  config.shards = 2;
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    const net::Bytes junk{0x01, 0x02};
    analyzer.on_frame(junk, util::Timestamp::from_seconds(1));
    // No finish(): the destructor must flush, merge, and join.
  }
  EXPECT_EQ(windows, 1u);
}

TEST(PipelineEdge, MissingCaptureReportsError) {
  pipeline::PipelineConfig config;
  config.shards = 2;
  pipeline::ShardedAnalyzer analyzer{config, nullptr};
  EXPECT_FALSE(analyzer.process_pcap("/nonexistent/trace.pcap"));
  analyzer.finish();
  EXPECT_FALSE(analyzer.error().empty());
}

// ----------------------------------------------------------- canonicalize

TEST(Canonicalize, SortsFlowsAndRebuildsIndexes) {
  core::FlowDatabase db;
  core::TaggedFlow late;
  late.key.client_ip = net::Ipv4Address(0x0a000001);
  late.key.server_ip = net::Ipv4Address(0x08080808);
  late.key.server_port = 443;
  late.first_packet = util::Timestamp::from_seconds(200);
  late.fqdn = "b.example.com";
  core::TaggedFlow early = late;
  early.first_packet = util::Timestamp::from_seconds(100);
  early.fqdn = "a.example.com";
  db.add(late);
  db.add(early);

  pipeline::canonicalize(db);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.flows()[0].fqdn, "a.example.com");
  EXPECT_EQ(db.flows()[1].fqdn, "b.example.com");
  // Indexes rebuilt against the new order.
  ASSERT_EQ(db.by_fqdn("b.example.com").size(), 1u);
  EXPECT_EQ(db.by_fqdn("b.example.com")[0], 1u);
  EXPECT_EQ(db.by_server_port(443).size(), 2u);
}

TEST(Canonicalize, KeepsIdsWithoutGrowingTheTable) {
  core::FlowDatabase db;
  const std::vector<std::string> names = {"c.example.com", "a.example.com",
                                          "", "b.example.com"};
  for (int i = 7; i >= 0; --i) {
    core::TaggedFlow flow;
    flow.first_packet = util::Timestamp::from_seconds(i);
    flow.key.client_ip = net::Ipv4Address(0x0a000000 + i);
    flow.fqdn = names[static_cast<std::size_t>(i) % names.size()];
    db.add(std::move(flow));
  }
  const core::DomainTable& table = *db.domain_table();
  std::map<std::string, core::DomainId> id_of;
  for (const auto& flow : db.flows())
    id_of.emplace(std::string{flow.fqdn}, flow.fqdn_id);
  const std::size_t names_before = table.size();
  const std::size_t bytes_before = table.arena_bytes();

  pipeline::canonicalize(db);
  ASSERT_EQ(db.size(), 8u);
  for (std::size_t i = 0; i < db.size(); ++i) {
    const core::TaggedFlow& flow = db.flows()[i];
    EXPECT_EQ(flow.first_packet, util::Timestamp::from_seconds(
                                     static_cast<std::int64_t>(i)));
    EXPECT_EQ(flow.fqdn_id, id_of.at(std::string{flow.fqdn}));
    EXPECT_EQ(flow.fqdn.data(), table.view(flow.fqdn_id).data());
  }
  EXPECT_EQ(table.size(), names_before);
  EXPECT_EQ(table.arena_bytes(), bytes_before);
}

// ------------------------------------------------------------------ merge

/// Event rows with owned text, comparable after the parts' tables die.
std::vector<std::string> event_rows(const std::vector<core::DnsEvent>& log) {
  std::vector<std::string> rows;
  for (const auto& e : log) {
    std::string row = std::to_string(e.time.micros_since_epoch()) + " " +
                      std::to_string(e.client.value()) + " " +
                      std::string{e.fqdn};
    for (const auto server : e.servers)
      row += " " + std::to_string(server.value());
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(Merge, MatchesCanonicalizedConcatenationAcrossPrivateTables) {
  util::Rng rng{1414};
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i)
    names.push_back("host" + std::to_string(i) + ".example" +
                    std::to_string(i % 7) + ".com");
  for (std::size_t k = 1; k <= 8; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // Each part owns a private table, as a window loaded from spill does;
    // a different pre-interned prefix per part makes the same name carry
    // a different id in every part.
    std::vector<core::AnalysisWindow> parts(k);
    core::FlowDatabase concat_db;
    std::vector<core::DnsEvent> concat_log;
    std::map<std::string, std::set<std::size_t>> parts_of_name;
    for (std::size_t p = 0; p < k; ++p) {
      core::AnalysisWindow& part = parts[p];
      part.start = util::Timestamp::from_seconds(100 + rng.index(10));
      part.end = part.start + util::Duration::seconds(rng.index(100));
      core::DomainTable& table = *part.db.domain_table();
      for (std::size_t i = 0; i < p; ++i)
        table.intern(names[names.size() - 1 - i]);
      // Every third part is empty (k = 1 included: a lone empty part).
      const std::size_t rows = p % 3 == 2 ? 0 : 1 + rng.index(60);
      for (std::size_t i = 0; i < rows; ++i) {
        core::TaggedFlow flow;
        // Few distinct start times and clients: plenty of ties that only
        // later fields of the canonical order break.
        flow.first_packet = util::Timestamp::from_seconds(rng.index(8));
        flow.last_packet = flow.first_packet + util::Duration::seconds(1);
        flow.key.client_ip = net::Ipv4Address(0x0a000000 + rng.index(4));
        flow.key.server_ip = net::Ipv4Address(0x08080800 + rng.index(4));
        flow.key.client_port = static_cast<std::uint16_t>(rng.index(3));
        flow.key.server_port = 443;
        flow.bytes_c2s = rng.index(3);
        if (!rng.chance(0.2)) {
          flow.fqdn = names[rng.index(names.size())];
          parts_of_name[std::string{flow.fqdn}].insert(p);
        }
        concat_db.add(flow);
        part.db.add(std::move(flow));

        core::DnsEvent event;
        event.time = util::Timestamp::from_seconds(rng.index(8));
        event.client = net::Ipv4Address(0x0a000000 + rng.index(4));
        event.fqdn_id = table.intern(names[rng.index(names.size())]);
        event.fqdn = table.view(event.fqdn_id);
        parts_of_name[std::string{event.fqdn}].insert(p);
        for (std::size_t s = rng.index(3); s > 0; --s)
          event.servers.push_back(
              net::Ipv4Address(0x08080800 + rng.index(4)));
        concat_log.push_back(event);
        part.dns_log.push_back(std::move(event));
      }
      pipeline::canonicalize(part);
    }
    pipeline::canonicalize(concat_db);
    pipeline::canonicalize(concat_log);
    const std::vector<std::string> expected_events = event_rows(concat_log);
    util::Timestamp start = parts.front().start;
    util::Timestamp end = parts.front().end;
    for (const auto& part : parts) {
      start = std::min(start, part.start);
      end = std::max(end, part.end);
    }

    const core::AnalysisWindow out = pipeline::merge(std::move(parts));
    std::ostringstream expected_tsv, merged_tsv;
    core::write_flow_tsv(concat_db, expected_tsv);
    core::write_flow_tsv(out.db, merged_tsv);
    EXPECT_EQ(merged_tsv.str(), expected_tsv.str());
    EXPECT_EQ(event_rows(out.dns_log), expected_events);
    EXPECT_EQ(out.start, start);
    EXPECT_EQ(out.end, end);

    // Every label is the output table's own view of its id, and each
    // name has exactly one id however many parts carried it.
    const core::DomainTable& table = *out.db.domain_table();
    std::map<std::string_view, core::DomainId> id_of;
    const auto check = [&](std::string_view fqdn, core::DomainId id) {
      EXPECT_EQ(fqdn.data(), table.view(id).data());
      EXPECT_EQ(fqdn, table.view(id));
      EXPECT_EQ(id_of.emplace(fqdn, id).first->second, id) << fqdn;
    };
    for (const auto& flow : out.db.flows()) check(flow.fqdn, flow.fqdn_id);
    for (const auto& event : out.dns_log) check(event.fqdn, event.fqdn_id);
    // The fresh table holds only the names the rows reference.
    id_of.erase(std::string_view{});
    EXPECT_EQ(table.size(), id_of.size() + 1);
    if (k >= 2) {
      const bool shared = std::any_of(
          parts_of_name.begin(), parts_of_name.end(),
          [](const auto& entry) { return entry.second.size() >= 2; });
      EXPECT_TRUE(shared) << "no name spans two parts: the id check is moot";
    }
  }
  EXPECT_TRUE(pipeline::merge({}).db.flows().empty());
}

TEST(Merge, SinglePartDropsUnreferencedNames) {
  // Like a Sniffer's window: the table is shared with a resolver, so it
  // holds names no row references, and ids follow DNS arrival rather
  // than the rows' canonical order.
  auto shared = std::make_shared<core::DomainTable>();
  for (const char* name : {"resolver-only.example.net", "c.example.com",
                           "b.example.com", "a.example.com",
                           "another-resolver-only.example.net"})
    shared->intern(name);
  std::vector<core::AnalysisWindow> parts(1);
  core::AnalysisWindow& part = parts[0];
  part.db = core::FlowDatabase{shared};
  part.start = util::Timestamp::from_seconds(10);
  part.end = util::Timestamp::from_seconds(20);
  const char* labels[] = {"b.example.com", "", "c.example.com",
                          "a.example.com", "b.example.com"};
  for (int i = 0; i < 5; ++i) {
    core::TaggedFlow flow;
    flow.first_packet = util::Timestamp::from_seconds(i);
    flow.key.client_ip = net::Ipv4Address(0x0a000001);
    flow.fqdn_id = *shared->find(labels[i]);
    part.db.append(std::move(flow));
    core::DnsEvent event;
    event.time = util::Timestamp::from_seconds(4 - i);
    event.fqdn_id = *shared->find(labels[(i + 2) % 5]);
    event.fqdn = shared->view(event.fqdn_id);
    part.dns_log.push_back(std::move(event));
  }
  pipeline::canonicalize(part);
  std::ostringstream expected_tsv;
  core::write_flow_tsv(part.db, expected_tsv);
  const std::vector<std::string> expected_events = event_rows(part.dns_log);

  const core::AnalysisWindow out = pipeline::merge(std::move(parts));
  std::ostringstream merged_tsv;
  core::write_flow_tsv(out.db, merged_tsv);
  EXPECT_EQ(merged_tsv.str(), expected_tsv.str());
  EXPECT_EQ(event_rows(out.dns_log), expected_events);
  EXPECT_EQ(out.start, util::Timestamp::from_seconds(10));
  EXPECT_EQ(out.end, util::Timestamp::from_seconds(20));

  // Only the three referenced names (plus the empty one) survive, with
  // ids minted in first-use order: flows first, then events.
  const core::DomainTable& table = *out.db.domain_table();
  EXPECT_NE(&table, shared.get());
  EXPECT_EQ(table.size(), 4u);
  EXPECT_FALSE(table.find("resolver-only.example.net"));
  core::DomainId next = 1;
  const auto check = [&](std::string_view fqdn, core::DomainId id) {
    EXPECT_EQ(fqdn.data(), table.view(id).data());
    if (id == next) ++next;
    EXPECT_LT(id, next) << fqdn << " skips ahead of first-use order";
  };
  for (const auto& flow : out.db.flows()) check(flow.fqdn, flow.fqdn_id);
  for (const auto& event : out.dns_log) check(event.fqdn, event.fqdn_id);
}

// ------------------------------------------------- lifecycle supervision

TEST(Supervisor, WatchdogFiresOnQuiescenceWithPendingWork) {
  obs::HeartbeatBoard board;
  board.add_stage("dispatch");
  board.add_stage("shard-0");
  std::mutex mu;
  std::condition_variable cv;
  std::optional<pipeline::StallDiagnostic> seen;
  pipeline::WatchdogConfig config;
  config.timeout = util::Duration::millis(50);
  config.poll = util::Duration::millis(10);
  config.pending = [](std::string& what) {
    what = "frames queued in shard rings";
    return true;  // work is always pending, and nothing ever beats
  };
  config.on_stall = [&](const pipeline::StallDiagnostic& diagnostic) {
    std::lock_guard<std::mutex> lock{mu};
    seen = diagnostic;
    cv.notify_one();
  };
  pipeline::Watchdog watchdog{board, config};
  {
    std::unique_lock<std::mutex> lock{mu};
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return seen.has_value(); }));
  }
  watchdog.stop();
  EXPECT_TRUE(watchdog.stalled());
  ASSERT_EQ(seen->stages.size(), 2u);
  EXPECT_EQ(seen->stages[0].name, "dispatch");
  EXPECT_EQ(seen->pending, "frames queued in shard rings");
  EXPECT_GE(seen->stalled_for.total_micros(), 50'000);
  // The rendering names the stages and the pending condition, and ships
  // the flight-recorder excerpt so a stall report is actionable on its
  // own (the forensic contract of docs/observability.md).
  const std::string text = seen->to_string();
  EXPECT_NE(text.find("shard-0"), std::string::npos);
  EXPECT_NE(text.find("frames queued"), std::string::npos);
  EXPECT_FALSE(seen->trace_excerpt.empty());
  EXPECT_NE(text.find("trace excerpt"), std::string::npos);
}

TEST(Supervisor, WatchdogStaysQuietWhenIdleOrBeating) {
  obs::HeartbeatBoard board;
  const auto stage = board.add_stage("worker");
  std::atomic<bool> fired{false};
  std::atomic<bool> pending{false};

  // The watchdog thread's per-poll decision, driven at chosen instants so
  // a descheduled test cannot look like a 40 ms stall.
  const auto t0 = pipeline::QuietClock::Clock::now();
  const auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  pipeline::QuietClock quiet{board, std::chrono::milliseconds(40), t0};
  const std::function<bool(std::string&)> is_pending = [&](std::string&) {
    return pending.load();
  };
  std::string what;
  const auto poll = [&](int ms) {
    if (quiet.stalled(at(ms), is_pending, what)) fired = true;
  };

  // Idle (nothing pending): quiescence is not a stall.
  for (int ms = 10; ms <= 120; ms += 10) poll(ms);
  EXPECT_FALSE(fired.load());

  // Pending but beating: progress resets the clock.
  pending = true;
  for (int i = 0; i < 12; ++i) {
    board.beat(stage);
    poll(130 + 10 * i);
  }
  EXPECT_FALSE(fired.load());

  // Control: the same clock does fire once the beats stop for a full
  // timeout with work still pending.
  poll(240 + 30);
  EXPECT_FALSE(fired.load());
  poll(240 + 40);
  EXPECT_TRUE(fired.load());
}

TEST(Supervisor, DrainFlagRoundTrip) {
  pipeline::reset_drain_flag();
  EXPECT_FALSE(pipeline::drain_requested());
  pipeline::request_drain();
  EXPECT_TRUE(pipeline::drain_requested());
  pipeline::reset_drain_flag();
  EXPECT_FALSE(pipeline::drain_requested());
}

TEST(Supervisor, DrainCheckStopsIngestionThroughTheNormalPath) {
  // A pipeline whose drain_check trips after the first frames must still
  // deliver a merged (partial) window through finish(), not hang or drop
  // the sink.
  auto profile = trafficgen::profile_eu1_ftth();
  profile.name = "drain-test";
  profile.duration = util::Duration::minutes(5);
  profile.n_clients = 8;
  trafficgen::Simulator sim{profile};
  const auto dir = fs::temp_directory_path() /
                   ("dnh_drain_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string pcap = (dir / "drain.pcap").string();
  ASSERT_TRUE(sim.write_pcap(pcap));

  std::atomic<std::uint64_t> frames{0};
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.drain_check = [&] { return frames.fetch_add(1) > 200; };
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    EXPECT_TRUE(analyzer.process_pcap(pcap));
    analyzer.finish();
    EXPECT_EQ(windows, 1u);
    // Dispatch stopped early: far fewer frames than the capture holds.
    EXPECT_LT(analyzer.stats().frames_dispatched, 100'000u);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ metrics/stats parity

TEST_F(PipelineTest, MetricsSnapshotMatchesStatsAfterShardedChaosRun) {
  // The metrics a monitoring agent scrapes and the stats the CLI prints
  // come from different plumbing (registry counters vs struct fields);
  // after a sharded run over a damaged capture they must tell the same
  // story, or one of them is lying.
  obs::Registry::global().reset();

  faultinject::FileFaultConfig file_faults;
  file_faults.seed = 7;
  file_faults.garbage_run_rate = 0.002;
  file_faults.length_lie_rate = 0.001;
  file_faults.truncate_tail = true;
  const std::string chaos_path = (dir_ / "chaos_metrics.pcap").string();
  const auto report =
      faultinject::corrupt_pcap_file(pcap_path_, chaos_path, file_faults);
  ASSERT_TRUE(report.has_value());
  ASSERT_GT(report->faults(), 0u);

  pipeline::PipelineConfig config;
  config.shards = 4;
  config.sniffer.resync_capture = true;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  ASSERT_TRUE(analyzer.process_pcap(chaos_path));
  analyzer.finish();

  const pipeline::PipelineStats& stats = analyzer.stats();
  const core::SnifferStats& sniff = stats.merged;
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto family_sum = [&](const std::string& prefix) {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : snap.counters)
      if (name.rfind(prefix, 0) == 0) sum += value;
    return sum;
  };

  // SnifferStats (merged across shards) vs counters.
  EXPECT_EQ(counter("dnh_frames_total"), sniff.frames);
  EXPECT_EQ(family_sum("dnh_decode_errors_total"), sniff.decode_failures);
  EXPECT_EQ(counter("dnh_dns_responses_total"), sniff.dns_responses);
  EXPECT_EQ(family_sum("dnh_dns_parse_errors_total"),
            sniff.dns_parse_failures);
  EXPECT_EQ(counter("dnh_dns_queries_total"), sniff.dns_queries);
  EXPECT_EQ(counter("dnh_dns_tcp_messages_total"), sniff.dns_tcp_messages);
  EXPECT_EQ(counter("dnh_flows_exported_total"), sniff.flows_exported);
  EXPECT_EQ(counter("dnh_flows_tagged_start_total"),
            sniff.flows_tagged_at_start);
  EXPECT_EQ(counter("dnh_flows_tagged_late_total"),
            sniff.flows_tagged_at_export);

  // PipelineStats vs counters.
  EXPECT_EQ(counter("dnh_pipeline_frames_dispatched_total"),
            stats.frames_dispatched);
  EXPECT_EQ(counter("dnh_pipeline_frames_dropped_total"),
            stats.frames_dropped);
  EXPECT_EQ(counter("dnh_pipeline_windows_merged_total"),
            stats.windows_merged);

  // Capture corruption (the chaos actually hit) vs the pcap counters.
  EXPECT_GT(sniff.degradation.capture_resyncs, 0u);
  EXPECT_EQ(counter("dnh_pcap_resyncs_total"),
            sniff.degradation.capture_resyncs);
  EXPECT_EQ(counter("dnh_pcap_bytes_skipped_total"),
            sniff.degradation.capture_bytes_skipped);
  EXPECT_EQ(counter("dnh_pcap_truncated_tails_total"),
            sniff.degradation.capture_truncated_tails);
}

// ------------------------------------------------ causal window tracing

TEST_F(PipelineTest, WindowLifecycleLeavesCausalTraceChain) {
  // Every rotated window must leave a dispatched -> sealed -> ingested ->
  // emitted chain in the flight recorder, all stamped with the same
  // WindowTraceId (the window sequence number). Only events recorded
  // after t0 count — the global recorder also holds earlier tests' runs.
  auto& recorder = obs::FlightRecorder::global();
  recorder.set_enabled(true);
  const std::uint64_t t0 = recorder.now_ns();

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.window = util::Duration::minutes(10);
  std::size_t windows = 0;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&&) { ++windows; }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();
  ASSERT_GE(windows, 4u);

  std::map<std::uint64_t, std::set<obs::TraceKind>> by_seq;
  std::uint64_t max_emitted = 0;
  for (const auto& thread : recorder.snapshot()) {
    for (const auto& event : thread.events) {
      if (event.ts_ns < t0 || event.seq == obs::kNoSeq) continue;
      by_seq[event.seq].insert(event.kind);
      if (event.kind == obs::TraceKind::kWindowEmitted)
        max_emitted = std::max(max_emitted, event.seq);
    }
  }
  // The final (partial) window is sealed by shutdown, not by a rotation
  // broadcast, so the full four-stage chain is asserted for the rotated
  // windows only.
  for (std::uint64_t seq = 0; seq + 1 < windows; ++seq) {
    const auto& kinds = by_seq[seq];
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowDispatched)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowSealed)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kMergeIngested)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowEmitted)) << seq;
  }
  EXPECT_EQ(max_emitted, windows - 1);  // every window reached the sink
}

TEST(Canonicalize, OrdersDnsEventsByTimeThenClientThenName) {
  std::vector<core::DnsEvent> log;
  const auto client_a = net::Ipv4Address(1);
  const auto client_b = net::Ipv4Address(2);
  log.push_back({util::Timestamp::from_seconds(5), client_b, "z.com", {}});
  log.push_back({util::Timestamp::from_seconds(5), client_a, "z.com", {}});
  log.push_back({util::Timestamp::from_seconds(5), client_a, "a.com", {}});
  log.push_back({util::Timestamp::from_seconds(1), client_b, "m.com", {}});
  pipeline::canonicalize(log);
  EXPECT_EQ(log[0].fqdn, "m.com");
  EXPECT_EQ(log[1].fqdn, "a.com");
  EXPECT_EQ(log[2].fqdn, "z.com");
  EXPECT_EQ(log[2].client, client_a);
  EXPECT_EQ(log[3].client, client_b);
}

}  // namespace
}  // namespace dnh
