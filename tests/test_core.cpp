#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>

#include "core/flowdb.hpp"
#include "core/policy.hpp"
#include "core/sniffer.hpp"
#include "dns/message.hpp"
#include "packet/build.hpp"

namespace dnh::core {
namespace {

using net::Ipv4Address;
using util::Timestamp;

// --------------------------------------------------------------- FlowDb

TaggedFlow make_flow(std::string_view fqdn, Ipv4Address server,
                     std::uint16_t port = 80,
                     Ipv4Address client = Ipv4Address{10, 0, 0, 1}) {
  TaggedFlow flow;
  flow.key.client_ip = client;
  flow.key.server_ip = server;
  flow.key.client_port = 50000;
  flow.key.server_port = port;
  flow.fqdn = fqdn;
  flow.protocol = flow::ProtocolClass::kHttp;
  return flow;
}

TEST(FlowDb, IndexesByFqdnSldServerAndPort) {
  FlowDatabase db;
  const Ipv4Address s1{1, 1, 1, 1};
  const Ipv4Address s2{2, 2, 2, 2};
  db.add(make_flow("www.zynga.com", s1, 443));
  db.add(make_flow("static.zynga.com", s2, 80));
  db.add(make_flow("www.linkedin.com", s1, 443));
  db.add(make_flow("", s2, 6881));  // unlabeled

  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.by_fqdn("www.zynga.com").size(), 1u);
  EXPECT_EQ(db.by_second_level("zynga.com").size(), 2u);
  EXPECT_EQ(db.by_server(s1).size(), 2u);
  EXPECT_EQ(db.by_server_port(443).size(), 2u);
  EXPECT_EQ(db.by_fqdn("absent.example.com").size(), 0u);

  // An add after a query is visible to the next query.
  db.add(make_flow("games.zynga.com", s1, 443));
  const auto zynga = db.by_second_level("zynga.com");
  ASSERT_EQ(zynga.size(), 3u);
  EXPECT_EQ(zynga.back(), 4u);
  EXPECT_EQ(db.by_fqdn("games.zynga.com").size(), 1u);
  EXPECT_EQ(db.by_server(s1).size(), 3u);
  EXPECT_EQ(db.by_server_port(443).size(), 3u);

  // Rows ascend within each key.
  for (const auto rows :
       {zynga, db.by_server(s1), db.by_server(s2), db.by_server_port(443)}) {
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  }
  const std::vector<FlowDatabase::FlowIndex> on_s1(db.by_server(s1).begin(),
                                                   db.by_server(s1).end());
  EXPECT_EQ(on_s1, (std::vector<FlowDatabase::FlowIndex>{0, 2, 4}));

  // take_flows leaves every index empty.
  EXPECT_EQ(db.take_flows().size(), 5u);
  EXPECT_TRUE(db.by_fqdn("www.zynga.com").empty());
  EXPECT_TRUE(db.by_second_level("zynga.com").empty());
  EXPECT_TRUE(db.by_server(s1).empty());
  EXPECT_TRUE(db.by_server_port(443).empty());

  // Four threads racing the first queries on a fresh database all get
  // the same spans: the indexes are built once (and TSan stays quiet).
  FlowDatabase fresh;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::string fqdn = "cdn" + std::to_string(i % 37) + ".example.com";
    fresh.add(make_flow(fqdn, Ipv4Address{i % 11},
                        static_cast<std::uint16_t>(80 + i % 3)));
  }
  using Spans = std::vector<std::span<const FlowDatabase::FlowIndex>>;
  const auto query = [&fresh] {
    return Spans{fresh.by_fqdn("cdn5.example.com"),
                 fresh.by_second_level("example.com"),
                 fresh.by_server(Ipv4Address{3}), fresh.by_server_port(81)};
  };
  std::vector<Spans> seen(4);
  std::vector<std::thread> threads;
  for (auto& out : seen)
    threads.emplace_back([&out, &query] { out = query(); });
  for (auto& thread : threads) thread.join();
  for (const auto& spans : seen) {
    ASSERT_EQ(spans.size(), 4u);
    for (std::size_t q = 0; q < spans.size(); ++q) {
      EXPECT_EQ(spans[q].data(), seen[0][q].data());
      EXPECT_EQ(spans[q].size(), seen[0][q].size());
    }
  }
  EXPECT_EQ(seen[0][0].size(), 54u);    // i % 37 == 5
  EXPECT_EQ(seen[0][1].size(), 2000u);  // every flow
  EXPECT_EQ(seen[0][2].size(), 182u);   // i % 11 == 3
  EXPECT_EQ(seen[0][3].size(), 667u);   // i % 3 == 1
}

TEST(FlowDb, SecondLevelAccessor) {
  const auto flow = make_flow("smtp2.mail.google.com", Ipv4Address{1, 2, 3, 4});
  EXPECT_EQ(flow.second_level(), "google.com");
}

TEST(FlowDb, UnlabeledFlowsNotInNameIndexes) {
  FlowDatabase db;
  db.add(make_flow("", Ipv4Address{1, 1, 1, 1}));
  EXPECT_EQ(db.by_second_level("").size(), 0u);
}

// --------------------------------------------------------------- Policy

TEST(Policy, SuffixMatchingSemantics) {
  EXPECT_TRUE(domain_suffix_match("zynga.com", "zynga.com"));
  EXPECT_TRUE(domain_suffix_match("poker.zynga.com", "zynga.com"));
  EXPECT_FALSE(domain_suffix_match("notzynga.com", "zynga.com"));
  EXPECT_FALSE(domain_suffix_match("zynga.com.evil.net", "zynga.com"));
  EXPECT_FALSE(domain_suffix_match("", "zynga.com"));
  EXPECT_FALSE(domain_suffix_match("a.com", ""));
}

TEST(Policy, LongestSuffixWins) {
  PolicyEnforcer enforcer;
  enforcer.add_rule("google.com", PolicyAction::kDeprioritize);
  enforcer.add_rule("mail.google.com", PolicyAction::kPrioritize);
  EXPECT_EQ(enforcer.decide("mail.google.com"), PolicyAction::kPrioritize);
  EXPECT_EQ(enforcer.decide("smtp.mail.google.com"),
            PolicyAction::kPrioritize);
  EXPECT_EQ(enforcer.decide("docs.google.com"),
            PolicyAction::kDeprioritize);
  EXPECT_EQ(enforcer.decide("example.org"), PolicyAction::kAllow);
}

TEST(Policy, ThePaperScenario) {
  // Block Zynga, prioritize Dropbox — both on the same EC2 addresses.
  PolicyEnforcer enforcer;
  enforcer.add_rule("zynga.com", PolicyAction::kBlock);
  enforcer.add_rule("dropbox.com", PolicyAction::kPrioritize);
  EXPECT_EQ(enforcer.decide("fishville.facebook.zynga.com"),
            PolicyAction::kBlock);
  EXPECT_EQ(enforcer.decide("client.dropbox.com"),
            PolicyAction::kPrioritize);
  const auto& stats = enforcer.stats();
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(stats.prioritized, 1u);
  EXPECT_EQ(stats.decisions, 2u);
}

TEST(Policy, UnlabeledGetsDefault) {
  PolicyEnforcer enforcer{PolicyAction::kRateLimit};
  EXPECT_EQ(enforcer.decide(""), PolicyAction::kRateLimit);
  EXPECT_EQ(enforcer.stats().unlabeled, 1u);
  EXPECT_EQ(enforcer.stats().rate_limited, 1u);
}

TEST(Policy, CaseInsensitiveRules) {
  PolicyEnforcer enforcer;
  enforcer.add_rule("Zynga.COM", PolicyAction::kBlock);
  EXPECT_EQ(enforcer.decide("www.zynga.com"), PolicyAction::kBlock);
}

TEST(Policy, ActionNames) {
  EXPECT_EQ(policy_action_name(PolicyAction::kBlock), "block");
  EXPECT_EQ(policy_action_name(PolicyAction::kAllow), "allow");
}

// --------------------------------------------------------------- Sniffer

class SnifferTest : public ::testing::Test {
 protected:
  static constexpr std::uint16_t kClientDnsPort = 33333;
  const Ipv4Address kClient{10, 0, 0, 7};
  const Ipv4Address kResolver{10, 200, 0, 1};
  const Ipv4Address kServer{93, 184, 216, 34};

  packet::FrameSpec udp_spec(Ipv4Address src, Ipv4Address dst,
                             std::uint16_t sport, std::uint16_t dport) {
    packet::FrameSpec s;
    s.src_ip = src;
    s.dst_ip = dst;
    s.src_port = sport;
    s.dst_port = dport;
    return s;
  }

  void feed_dns_response(Sniffer& sniffer, const std::string& fqdn,
                         std::vector<Ipv4Address> answers,
                         std::int64_t t_seconds) {
    const auto name = dns::DnsName::from_string(fqdn);
    ASSERT_TRUE(name);
    const auto msg = dns::make_a_response(1, *name, answers, 300);
    const auto frame = packet::build_udp_frame(
        udp_spec(kResolver, kClient, 53, kClientDnsPort), msg.encode());
    sniffer.on_frame(frame, Timestamp::from_seconds(t_seconds));
  }

  void feed_tcp(Sniffer& sniffer, Ipv4Address src, Ipv4Address dst,
                std::uint16_t sport, std::uint16_t dport,
                std::uint8_t flags, std::int64_t t_seconds,
                net::BytesView payload = {}) {
    packet::FrameSpec s;
    s.src_ip = src;
    s.dst_ip = dst;
    s.src_port = sport;
    s.dst_port = dport;
    const auto frame = packet::build_tcp_frame(s, flags, 0, 0, payload);
    sniffer.on_frame(frame, Timestamp::from_seconds(t_seconds));
  }
};

TEST_F(SnifferTest, TagsFlowFromPrecedingDnsResponse) {
  Sniffer sniffer;
  feed_dns_response(sniffer, "www.example.com", {kServer}, 100);
  feed_tcp(sniffer, kClient, kServer, 50000, 80, packet::tcpflags::kSyn,
           101);
  sniffer.finish();

  ASSERT_EQ(sniffer.database().size(), 1u);
  const auto& flow = sniffer.database().flows()[0];
  EXPECT_EQ(flow.fqdn, "www.example.com");
  EXPECT_TRUE(flow.tagged_at_start);
  EXPECT_EQ(flow.dns_response_time.seconds_since_epoch(), 100);
  EXPECT_EQ(sniffer.stats().dns_responses, 1u);
  EXPECT_EQ(sniffer.stats().flows_tagged_at_start, 1u);
}

TEST_F(SnifferTest, FlowWithoutDnsIsUnlabeled) {
  Sniffer sniffer;
  feed_tcp(sniffer, kClient, kServer, 50000, 80, packet::tcpflags::kSyn, 1);
  sniffer.finish();
  ASSERT_EQ(sniffer.database().size(), 1u);
  EXPECT_FALSE(sniffer.database().flows()[0].labeled());
}

TEST_F(SnifferTest, DnsForOtherClientDoesNotTag) {
  Sniffer sniffer;
  const Ipv4Address other{10, 0, 0, 99};
  // Response delivered to kClient; flow initiated by `other`.
  feed_dns_response(sniffer, "www.example.com", {kServer}, 100);
  feed_tcp(sniffer, other, kServer, 50000, 80, packet::tcpflags::kSyn, 101);
  sniffer.finish();
  ASSERT_EQ(sniffer.database().size(), 1u);
  EXPECT_FALSE(sniffer.database().flows()[0].labeled());
}

TEST_F(SnifferTest, FlowStartHookSeesLabelBeforeAnyPayload) {
  Sniffer sniffer;
  std::string hooked_label;
  sniffer.set_flow_start_hook(
      [&](const flow::FlowRecord& flow, std::string_view fqdn) {
        hooked_label = std::string{fqdn};
        EXPECT_EQ(flow.total_packets(), 1u);  // the SYN
      });
  feed_dns_response(sniffer, "blocked.zynga.com", {kServer}, 10);
  feed_tcp(sniffer, kClient, kServer, 50000, 443, packet::tcpflags::kSyn,
           11);
  EXPECT_EQ(hooked_label, "blocked.zynga.com");
}

TEST_F(SnifferTest, DnsQueriesCountedNotStored) {
  Sniffer sniffer;
  const auto name = dns::DnsName::from_string("q.example.com");
  const auto query = dns::make_query(7, *name);
  const auto frame = packet::build_udp_frame(
      udp_spec(kClient, kResolver, kClientDnsPort, 53), query.encode());
  sniffer.on_frame(frame, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().dns_queries, 1u);
  EXPECT_EQ(sniffer.stats().dns_responses, 0u);
  EXPECT_TRUE(sniffer.dns_log().empty());
}

TEST_F(SnifferTest, MalformedDnsCountsAsParseFailure) {
  Sniffer sniffer;
  const net::Bytes junk{1, 2, 3};
  const auto frame =
      packet::build_udp_frame(udp_spec(kResolver, kClient, 53, 1234), junk);
  sniffer.on_frame(frame, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().dns_parse_failures, 1u);
}

TEST_F(SnifferTest, UndecodableFrameCounted) {
  Sniffer sniffer;
  const net::Bytes junk{1, 2, 3, 4, 5};
  sniffer.on_frame(junk, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().decode_failures, 1u);
}

TEST_F(SnifferTest, DnsLogRecordsAnswers) {
  Sniffer sniffer;
  feed_dns_response(sniffer, "multi.example.com",
                    {kServer, Ipv4Address{93, 184, 216, 35}}, 55);
  ASSERT_EQ(sniffer.dns_log().size(), 1u);
  EXPECT_EQ(sniffer.dns_log()[0].fqdn, "multi.example.com");
  EXPECT_EQ(sniffer.dns_log()[0].servers.size(), 2u);
  EXPECT_EQ(sniffer.dns_log()[0].client, kClient);
}

TEST_F(SnifferTest, DnsLogCanBeDisabled) {
  SnifferConfig config;
  config.record_dns_log = false;
  Sniffer sniffer{config};
  feed_dns_response(sniffer, "x.example.com", {kServer}, 1);
  EXPECT_TRUE(sniffer.dns_log().empty());
  // Resolver still works.
  feed_tcp(sniffer, kClient, kServer, 50000, 80, packet::tcpflags::kSyn, 2);
  sniffer.finish();
  EXPECT_EQ(sniffer.database().flows()[0].fqdn, "x.example.com");
}

TEST_F(SnifferTest, LateTagAtExportWhenDnsRacesFlow) {
  Sniffer sniffer;
  // Flow starts BEFORE the response is observed (race).
  feed_tcp(sniffer, kClient, kServer, 50000, 80, packet::tcpflags::kSyn, 100);
  feed_dns_response(sniffer, "race.example.com", {kServer}, 100);
  feed_tcp(sniffer, kClient, kServer, 50000, 80,
           packet::tcpflags::kFin | packet::tcpflags::kAck, 101);
  feed_tcp(sniffer, kServer, kClient, 80, 50000,
           packet::tcpflags::kFin | packet::tcpflags::kAck, 102);
  ASSERT_EQ(sniffer.database().size(), 1u);
  const auto& flow = sniffer.database().flows()[0];
  EXPECT_EQ(flow.fqdn, "race.example.com");
  EXPECT_FALSE(flow.tagged_at_start);
  EXPECT_EQ(sniffer.stats().flows_tagged_at_export, 1u);
}

TEST_F(SnifferTest, ProcessPcapMissingFileFails) {
  Sniffer sniffer;
  EXPECT_FALSE(sniffer.process_pcap("/nonexistent/file.pcap"));
  EXPECT_FALSE(sniffer.error().empty());
}

// ------------------------------------------------- degraded-mode counters

TEST_F(SnifferTest, TruncatedFrameClassifiedInDegradation) {
  Sniffer sniffer;
  sniffer.on_frame(net::Bytes{1, 2, 3, 4, 5}, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().decode_failures, 1u);
  EXPECT_EQ(sniffer.degradation().frames_truncated, 1u);
  EXPECT_EQ(sniffer.degradation().malformed_total(), 1u);
}

TEST_F(SnifferTest, TimestampRegressionCountedButFrameStillProcessed) {
  Sniffer sniffer;
  feed_tcp(sniffer, kClient, kServer, 50000, 80, packet::tcpflags::kSyn, 100);
  // Capture clock steps backwards; the frame must still reach the flow
  // table (dropping it would skew analytics worse than the bad clock).
  feed_tcp(sniffer, kClient, kServer, 50000, 80,
           packet::tcpflags::kFin | packet::tcpflags::kAck, 50);
  EXPECT_EQ(sniffer.degradation().timestamp_regressions, 1u);
  EXPECT_EQ(sniffer.stats().frames, 2u);
}

TEST_F(SnifferTest, DnsPointerLoopClassified) {
  Sniffer sniffer;
  // Minimal response whose QNAME is a compression pointer to itself.
  const net::Bytes wire{0x00, 0x01, 0x81, 0x80, 0x00, 0x01, 0x00, 0x00,
                        0x00, 0x00, 0x00, 0x00, 0xc0, 0x0c, 0x00, 0x01,
                        0x00, 0x01};
  const auto frame = packet::build_udp_frame(
      udp_spec(kResolver, kClient, 53, kClientDnsPort), wire);
  sniffer.on_frame(frame, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().dns_parse_failures, 1u);
  EXPECT_EQ(sniffer.degradation().dns_pointer_loops, 1u);
}

TEST_F(SnifferTest, TruncatedDnsClassified) {
  Sniffer sniffer;
  const auto frame = packet::build_udp_frame(
      udp_spec(kResolver, kClient, 53, kClientDnsPort),
      net::Bytes{0x00, 0x01, 0x81});
  sniffer.on_frame(frame, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().dns_parse_failures, 1u);
  EXPECT_EQ(sniffer.degradation().dns_truncated, 1u);
}

TEST_F(SnifferTest, DnsLogCapEvictsOldestHalf) {
  SnifferConfig config;
  config.max_dns_log = 4;
  Sniffer sniffer{config};
  for (int i = 0; i < 5; ++i)
    feed_dns_response(sniffer,
                      "h" + std::to_string(i) + ".example.com",
                      {kServer}, i + 1);
  // The 5th insert hits the cap: the oldest half (2 events) is evicted.
  EXPECT_EQ(sniffer.degradation().dns_log_evictions, 2u);
  ASSERT_EQ(sniffer.dns_log().size(), 3u);
  EXPECT_EQ(sniffer.dns_log().front().fqdn, "h2.example.com");
  EXPECT_EQ(sniffer.dns_log().back().fqdn, "h4.example.com");
}

}  // namespace
}  // namespace dnh::core

namespace dnh::core {
namespace {

class TcpDnsTest : public SnifferTest {
 protected:
  /// Feeds a DNS response over TCP, optionally split into `segments`.
  void feed_tcp_dns(Sniffer& sniffer, const std::string& fqdn,
                    std::vector<Ipv4Address> answers, int segments,
                    std::int64_t t = 100,
                    std::uint16_t client_port = 45555) {
    const auto name = dns::DnsName::from_string(fqdn);
    ASSERT_TRUE(name);
    const auto wire = dns::make_a_response(9, *name, answers, 60).encode();
    net::ByteWriter framed;
    framed.write_u16(static_cast<std::uint16_t>(wire.size()));
    framed.write_bytes(wire);
    const auto& bytes = framed.data();

    const std::size_t per_segment =
        (bytes.size() + segments - 1) / segments;
    std::size_t offset = 0;
    int i = 0;
    while (offset < bytes.size()) {
      const std::size_t n = std::min(per_segment, bytes.size() - offset);
      packet::FrameSpec spec;
      spec.src_ip = kResolver;
      spec.dst_ip = kClient;
      spec.src_port = 53;
      spec.dst_port = client_port;
      const auto frame = packet::build_tcp_frame(
          spec, packet::tcpflags::kAck | packet::tcpflags::kPsh, 1, 1,
          net::BytesView{bytes.data() + offset, n});
      sniffer.on_frame(frame, Timestamp::from_seconds(t + i++));
      offset += n;
    }
  }
};

TEST_F(TcpDnsTest, SingleSegmentResponseTags) {
  Sniffer sniffer;
  feed_tcp_dns(sniffer, "big.example.com", {kServer}, 1);
  EXPECT_EQ(sniffer.stats().dns_tcp_messages, 1u);
  feed_tcp(sniffer, kClient, kServer, 50000, 80, packet::tcpflags::kSyn,
           200);
  sniffer.finish();
  EXPECT_EQ(sniffer.database().flows()[0].fqdn, "big.example.com");
}

TEST_F(TcpDnsTest, ResponseSplitAcrossSegmentsReassembles) {
  Sniffer sniffer;
  std::vector<Ipv4Address> answers;
  for (int i = 0; i < 20; ++i)
    answers.push_back(Ipv4Address{93, 184, 0, static_cast<std::uint8_t>(i)});
  feed_tcp_dns(sniffer, "many.example.com", answers, 3);
  EXPECT_EQ(sniffer.stats().dns_responses, 1u);
  EXPECT_EQ(sniffer.stats().dns_tcp_messages, 1u);
  // Every answer address became a resolver key.
  feed_tcp(sniffer, kClient, answers[17], 50000, 80,
           packet::tcpflags::kSyn, 300);
  sniffer.finish();
  EXPECT_EQ(sniffer.database().flows()[0].fqdn, "many.example.com");
}

TEST_F(TcpDnsTest, TwoMessagesInOneSegment) {
  Sniffer sniffer;
  net::ByteWriter both;
  for (const char* fqdn : {"one.example.com", "two.example.com"}) {
    const auto wire =
        dns::make_a_response(3, *dns::DnsName::from_string(fqdn),
                             {kServer}, 60)
            .encode();
    both.write_u16(static_cast<std::uint16_t>(wire.size()));
    both.write_bytes(wire);
  }
  packet::FrameSpec spec;
  spec.src_ip = kResolver;
  spec.dst_ip = kClient;
  spec.src_port = 53;
  spec.dst_port = 40123;
  const auto frame = packet::build_tcp_frame(
      spec, packet::tcpflags::kAck, 1, 1, both.data());
  sniffer.on_frame(frame, Timestamp::from_seconds(5));
  EXPECT_EQ(sniffer.stats().dns_tcp_messages, 2u);
  EXPECT_EQ(sniffer.stats().dns_responses, 2u);
}

TEST_F(TcpDnsTest, TcpDnsFlowsNotInDatabase) {
  Sniffer sniffer;
  feed_tcp_dns(sniffer, "x.example.com", {kServer}, 2);
  sniffer.finish();
  EXPECT_EQ(sniffer.database().size(), 0u);  // DNS traffic is not tagged
}

TEST_F(TcpDnsTest, QueriesTowardPort53Counted) {
  Sniffer sniffer;
  packet::FrameSpec spec;
  spec.src_ip = kClient;
  spec.dst_ip = kResolver;
  spec.src_port = 40123;
  spec.dst_port = 53;
  const auto frame = packet::build_tcp_frame(
      spec, packet::tcpflags::kSyn, 0, 0, {});
  sniffer.on_frame(frame, Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().dns_queries, 1u);
}

TEST_F(TcpDnsTest, RunawayStreamIsDropped) {
  Sniffer sniffer;
  // A bogus length prefix of 0xffff followed by junk far beyond the cap.
  packet::FrameSpec spec;
  spec.src_ip = kResolver;
  spec.dst_ip = kClient;
  spec.src_port = 53;
  spec.dst_port = 41000;
  net::Bytes junk(60000, 0xee);
  junk[0] = 0xff;
  junk[1] = 0xff;
  for (int i = 0; i < 3; ++i) {
    const auto frame = packet::build_tcp_frame(
        spec, packet::tcpflags::kAck, 1, 1, junk);
    sniffer.on_frame(frame, Timestamp::from_seconds(i));
  }
  // No crash, no runaway memory; no message completed.
  EXPECT_EQ(sniffer.stats().dns_tcp_messages, 0u);
  EXPECT_GE(sniffer.degradation().tcp_dns_overflows, 1u);
}

TEST_F(TcpDnsTest, LengthPrefixLargerThanBufferJustWaits) {
  // A length prefix claiming 0x7000 bytes with only a handful delivered is
  // not an error — the rest may arrive later. Nothing completes, nothing
  // is counted as an overflow.
  Sniffer sniffer;
  packet::FrameSpec spec;
  spec.src_ip = kResolver;
  spec.dst_ip = kClient;
  spec.src_port = 53;
  spec.dst_port = 42000;
  const net::Bytes partial{0x70, 0x00, 0xde, 0xad, 0xbe, 0xef};
  sniffer.on_frame(
      packet::build_tcp_frame(spec, packet::tcpflags::kAck, 1, 1, partial),
      Timestamp::from_seconds(1));
  EXPECT_EQ(sniffer.stats().dns_tcp_messages, 0u);
  EXPECT_EQ(sniffer.degradation().tcp_dns_overflows, 0u);
  EXPECT_EQ(sniffer.degradation().malformed_total(), 0u);
}

TEST_F(TcpDnsTest, BufferCapEvictsWhenNewStreamsArrive) {
  SnifferConfig config;
  config.max_tcp_dns_buffers = 2;
  Sniffer sniffer{config};
  // Three half-finished streams from distinct client ports: the third must
  // evict one of the first two rather than grow state.
  for (std::uint16_t port : {std::uint16_t{40001}, std::uint16_t{40002},
                             std::uint16_t{40003}}) {
    packet::FrameSpec spec;
    spec.src_ip = kResolver;
    spec.dst_ip = kClient;
    spec.src_port = 53;
    spec.dst_port = port;
    const net::Bytes partial{0x01, 0x00, 0x42};  // incomplete message
    sniffer.on_frame(
        packet::build_tcp_frame(spec, packet::tcpflags::kAck, 1, 1, partial),
        Timestamp::from_seconds(port));
  }
  EXPECT_EQ(sniffer.degradation().tcp_dns_buffer_evictions, 1u);
  // An existing stream continuing does NOT evict anything.
  packet::FrameSpec spec;
  spec.src_ip = kResolver;
  spec.dst_ip = kClient;
  spec.src_port = 53;
  spec.dst_port = 40003;
  sniffer.on_frame(
      packet::build_tcp_frame(spec, packet::tcpflags::kAck, 1, 1,
                              net::Bytes{0x43}),
      Timestamp::from_seconds(99));
  EXPECT_EQ(sniffer.degradation().tcp_dns_buffer_evictions, 1u);
}

}  // namespace
}  // namespace dnh::core

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "core/flowdb_io.hpp"
#include "util/rng.hpp"

namespace dnh::core {
namespace {

TaggedFlow full_flow() {
  TaggedFlow flow;
  flow.key.client_ip = Ipv4Address{10, 0, 0, 3};
  flow.key.server_ip = Ipv4Address{93, 184, 216, 34};
  flow.key.client_port = 50123;
  flow.key.server_port = 443;
  flow.key.transport = flow::Transport::kTcp;
  flow.first_packet = Timestamp::from_micros(1301616000123456);
  flow.last_packet = Timestamp::from_micros(1301616003123456);
  flow.packets_c2s = 7;
  flow.packets_s2c = 9;
  flow.bytes_c2s = 1234;
  flow.bytes_s2c = 56789;
  flow.protocol = flow::ProtocolClass::kTls;
  flow.fqdn = "mail.google.com";
  flow.dns_response_time = Timestamp::from_micros(1301616000000001);
  flow.tagged_at_start = true;
  flow.dpi_label = "mail.google.com";
  flow.cert_cn = "*.google.com";
  flow.cert_san = {"*.google.com", "google.com"};
  flow.has_certificate = true;
  return flow;
}

TEST(FlowDbIo, RoundTripsEveryField) {
  FlowDatabase db;
  db.add(full_flow());
  TaggedFlow bare;  // all defaults / empty strings
  bare.key.client_ip = Ipv4Address{10, 0, 0, 4};
  bare.key.server_ip = Ipv4Address{2, 3, 4, 5};
  bare.key.transport = flow::Transport::kUdp;
  db.add(bare);

  std::stringstream stream;
  EXPECT_EQ(write_flow_tsv(db, stream), 2u);
  const auto back = read_flow_tsv(stream);
  ASSERT_TRUE(back);
  ASSERT_EQ(back->size(), 2u);

  const auto& a = back->flows()[0];
  const auto want = full_flow();
  EXPECT_EQ(a.key, want.key);
  EXPECT_EQ(a.first_packet, want.first_packet);
  EXPECT_EQ(a.last_packet, want.last_packet);
  EXPECT_EQ(a.packets_c2s, want.packets_c2s);
  EXPECT_EQ(a.bytes_s2c, want.bytes_s2c);
  EXPECT_EQ(a.protocol, want.protocol);
  EXPECT_EQ(a.fqdn, want.fqdn);
  EXPECT_EQ(a.dns_response_time, want.dns_response_time);
  EXPECT_TRUE(a.tagged_at_start);
  EXPECT_EQ(a.dpi_label, want.dpi_label);
  EXPECT_EQ(a.cert_cn, want.cert_cn);
  EXPECT_EQ(a.cert_san, want.cert_san);
  EXPECT_TRUE(a.has_certificate);

  const auto& b = back->flows()[1];
  EXPECT_FALSE(b.labeled());
  EXPECT_EQ(b.key.transport, flow::Transport::kUdp);
  EXPECT_TRUE(b.cert_san.empty());
}

TEST(FlowDbIo, IndexesRebuiltOnLoad) {
  FlowDatabase db;
  db.add(full_flow());
  std::stringstream stream;
  write_flow_tsv(db, stream);
  const auto back = read_flow_tsv(stream);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->by_fqdn("mail.google.com").size(), 1u);
  EXPECT_EQ(back->by_second_level("google.com").size(), 1u);
  EXPECT_EQ(back->by_server_port(443).size(), 1u);
}

TEST(FlowDbIo, RejectsBadHeader) {
  std::stringstream stream{"#something-else v9\n"};
  EXPECT_FALSE(read_flow_tsv(stream));
}

TEST(FlowDbIo, RejectsMalformedRow) {
  FlowDatabase db;
  db.add(full_flow());
  std::stringstream stream;
  write_flow_tsv(db, stream);
  std::string text = stream.str();
  text += "garbage\trow\n";
  std::stringstream bad{text};
  EXPECT_FALSE(read_flow_tsv(bad));
}

TEST(FlowDbIo, RejectsBadAddressAndProtocol) {
  FlowDatabase db;
  db.add(full_flow());
  std::stringstream stream;
  write_flow_tsv(db, stream);
  std::string good = stream.str();
  {
    std::string text = good;
    const auto pos = text.find("10.0.0.3");
    text.replace(pos, 8, "10.0.0.x");
    std::stringstream bad{text};
    EXPECT_FALSE(read_flow_tsv(bad));
  }
}

TEST(FlowDbIo, MissingFileYieldsNullopt) {
  EXPECT_FALSE(read_flow_tsv(std::string{"/nonexistent/db.tsv"}));
}

TEST(FlowDbIo, EmptyDatabaseRoundTrips) {
  FlowDatabase db;
  std::stringstream stream;
  EXPECT_EQ(write_flow_tsv(db, stream), 0u);
  const auto back = read_flow_tsv(stream);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->size(), 0u);
}

/// Serializes one good flow and returns the TSV text.
std::string one_flow_tsv() {
  FlowDatabase db;
  db.add(full_flow());
  std::stringstream stream;
  write_flow_tsv(db, stream);
  return stream.str();
}

TEST(FlowDbIo, LenientReadSkipsAndCountsMalformedRows) {
  std::string text = one_flow_tsv();
  const std::string good_row = text.substr(text.rfind("10.0.0.3"));
  text += "garbage\trow\n";                                 // field count
  std::string bad_ip = good_row;
  bad_ip.replace(bad_ip.find("10.0.0.3"), 8, "10.0.0.x");  // address
  text += bad_ip;
  std::string bad_num = good_row;
  bad_num.replace(bad_num.find("50123"), 5, "fifty");      // number
  text += bad_num;
  std::string bad_transport = good_row;
  bad_transport.replace(bad_transport.find("\ttcp\t"), 5, "\tsctp\t");
  text += bad_transport;
  text += good_row;  // a second good copy after the junk

  std::stringstream in{text};
  TsvRowErrors errors;
  const auto db = read_flow_tsv(in, TsvReadMode::kLenient, errors);
  ASSERT_TRUE(db);
  EXPECT_EQ(db->size(), 2u);  // both good rows survive
  EXPECT_EQ(errors.bad_field_count, 1u);
  EXPECT_EQ(errors.bad_address, 1u);
  EXPECT_EQ(errors.bad_number, 1u);
  EXPECT_EQ(errors.bad_transport, 1u);
  EXPECT_EQ(errors.total(), 4u);
  // Indexes include only the surviving rows.
  EXPECT_EQ(db->by_fqdn("mail.google.com").size(), 2u);
}

TEST(FlowDbIo, StrictReadStillFailsAndRecordsFirstError) {
  std::string text = one_flow_tsv() + "garbage\trow\n";
  std::stringstream in{text};
  TsvRowErrors errors;
  EXPECT_FALSE(read_flow_tsv(in, TsvReadMode::kStrict, errors));
  EXPECT_EQ(errors.bad_field_count, 1u);
  EXPECT_EQ(errors.total(), 1u);
}

TEST(FlowDbIo, LenientStillRejectsBadHeader) {
  std::stringstream in{"#something-else v9\n"};
  TsvRowErrors errors;
  EXPECT_FALSE(read_flow_tsv(in, TsvReadMode::kLenient, errors));
}

/// The iostream formatter write_flow_tsv used before it formatted into a
/// buffer of its own: the byte oracle for the flows-TSV writer.
std::string oracle_flow_tsv(const FlowDatabase& db) {
  std::ostringstream out;
  out << "#dnhunter-flows v1" << '\n'
      << "#client_ip\tserver_ip\tclient_port\tserver_port\ttransport\t"
         "first_us\tlast_us\tpkts_c2s\tpkts_s2c\tbytes_c2s\tbytes_s2c\t"
         "protocol\tfqdn\tdns_response_us\ttagged_at_start\tdpi_label\t"
         "cert_cn\tcert_san\thas_certificate\n";
  const auto join_san = [](const std::vector<std::string>& san) {
    std::string joined;
    for (const auto& name : san) {
      if (!joined.empty()) joined += ',';
      joined += name;
    }
    return joined;
  };
  for (const auto& flow : db.flows()) {
    out << flow.key.client_ip.to_string() << '\t'
        << flow.key.server_ip.to_string() << '\t' << flow.key.client_port
        << '\t' << flow.key.server_port << '\t'
        << (flow.key.transport == flow::Transport::kTcp ? "tcp" : "udp")
        << '\t' << flow.first_packet.micros_since_epoch() << '\t'
        << flow.last_packet.micros_since_epoch() << '\t' << flow.packets_c2s
        << '\t' << flow.packets_s2c << '\t' << flow.bytes_c2s << '\t'
        << flow.bytes_s2c << '\t' << static_cast<int>(flow.protocol) << '\t'
        << flow.fqdn << '\t' << flow.dns_response_time.micros_since_epoch()
        << '\t' << (flow.tagged_at_start ? 1 : 0) << '\t' << flow.dpi_label
        << '\t' << flow.cert_cn << '\t' << join_san(flow.cert_san) << '\t'
        << (flow.has_certificate ? 1 : 0) << '\n';
  }
  return std::move(out).str();
}

TEST(FlowDbIo, WriterMatchesStreamOracle) {
  constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t times[] = {kMin, -1, 0, kMax, 1301616000123456};
  const std::uint64_t counts[] = {0, 1, 4294967296, kMaxCount};
  const std::uint32_t addresses[] = {0, 0xffffffff, 0x0a000003, 0x5db8d822};
  const std::uint16_t ports[] = {0, 65535, 443, 53};

  util::Rng rng{2718};
  const auto name = [&rng](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
      s += static_cast<char>('a' + rng.index(26));
    return s + ".example.com";
  };
  FlowDatabase db;
  // Enough rows that the 64 KiB buffer flushes many times, with every
  // edge value and every protocol class mixed in.
  for (std::size_t i = 0; i < 6000; ++i) {
    TaggedFlow flow;
    flow.key.client_ip = Ipv4Address{rng.chance(0.3)
                                         ? addresses[rng.index(4)]
                                         : static_cast<std::uint32_t>(
                                               rng.next_u64())};
    flow.key.server_ip = Ipv4Address{addresses[rng.index(4)] ^
                                     static_cast<std::uint32_t>(
                                         rng.chance(0.5) ? 0 : rng.next_u64())};
    flow.key.client_port = rng.chance(0.5)
                               ? ports[rng.index(4)]
                               : static_cast<std::uint16_t>(rng.next_u64());
    flow.key.server_port = ports[rng.index(4)];
    flow.key.transport =
        rng.chance(0.5) ? flow::Transport::kTcp : flow::Transport::kUdp;
    flow.first_packet = Timestamp::from_micros(times[rng.index(5)]);
    flow.last_packet = Timestamp::from_micros(
        rng.chance(0.5) ? times[rng.index(5)]
                        : static_cast<std::int64_t>(rng.next_u64()));
    flow.packets_c2s = counts[rng.index(4)];
    flow.packets_s2c = rng.next_u64();
    flow.bytes_c2s = counts[rng.index(4)];
    flow.bytes_s2c = rng.next_u64() >> rng.index(64);
    flow.protocol = static_cast<flow::ProtocolClass>(
        i % (static_cast<std::size_t>(flow::ProtocolClass::kOther) + 1));
    // add() interns the label; the view only has to outlive that call.
    const std::string label = rng.chance(0.7) ? name(1 + rng.index(20)) : "";
    flow.fqdn = label;
    flow.dns_response_time = Timestamp::from_micros(times[rng.index(5)]);
    flow.tagged_at_start = rng.chance(0.5);
    if (rng.chance(0.5)) flow.dpi_label = name(rng.index(30));
    if (rng.chance(0.3)) flow.cert_cn = name(rng.index(10));
    const std::size_t sans[] = {0, 1, 2, 50};
    for (std::size_t n = sans[rng.index(4)]; n > 0; --n)
      flow.cert_san.push_back(name(rng.index(12)));
    flow.has_certificate = rng.chance(0.5);
    db.add(std::move(flow));
  }
  // A field longer than the whole buffer, first with the buffer part
  // full, then as the only row after it.
  TaggedFlow huge = full_flow();
  huge.dpi_label = std::string(100 * 1024, 'x') + ".example.com";
  db.add(huge);
  db.add(full_flow());
  huge.cert_san.assign(50, "san.example.com");
  db.add(std::move(huge));

  const std::string expected = oracle_flow_tsv(db);
  std::ostringstream out;
  EXPECT_EQ(write_flow_tsv(db, out), db.size());
  EXPECT_TRUE(out.str() == expected) << "ostream overload differs";

  const std::string path = ::testing::TempDir() + "dnh_flow_oracle_" +
                           std::to_string(::getpid()) + ".tsv";
  EXPECT_EQ(write_flow_tsv(db, path), db.size());
  std::ifstream in{path, std::ios::binary};
  const std::string written{std::istreambuf_iterator<char>{in}, {}};
  std::remove(path.c_str());
  EXPECT_TRUE(written == expected) << "path overload differs";
}

TEST(FlowDbIo, CleanLenientReadReportsNoErrors) {
  std::stringstream in{one_flow_tsv()};
  TsvRowErrors errors;
  const auto db = read_flow_tsv(in, TsvReadMode::kLenient, errors);
  ASSERT_TRUE(db);
  EXPECT_EQ(db->size(), 1u);
  EXPECT_EQ(errors.total(), 0u);
}

}  // namespace
}  // namespace dnh::core
