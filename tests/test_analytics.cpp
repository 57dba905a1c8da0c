#include <gtest/gtest.h>

#include <deque>

#include "analytics/anomaly.hpp"
#include "analytics/content.hpp"
#include "analytics/delay.hpp"
#include "analytics/dimensioning.hpp"
#include "analytics/domain_tree.hpp"
#include "analytics/service_tags.hpp"
#include "analytics/spatial.hpp"
#include "analytics/temporal.hpp"
#include "analytics/tokenizer.hpp"
#include "analytics/volume.hpp"
#include "dns/domain.hpp"

namespace dnh::analytics {
namespace {

using core::DnsEvent;
using core::FlowDatabase;
using core::TaggedFlow;
using net::Ipv4Address;
using util::Duration;
using util::Timestamp;

// ------------------------------------------------------------ tokenizer

TEST(Domain, SecondLevelExtraction) {
  EXPECT_EQ(dns::second_level_domain("www.example.com"), "example.com");
  EXPECT_EQ(dns::second_level_domain("example.com"), "example.com");
  EXPECT_EQ(dns::second_level_domain("a.b.c.example.co.uk"),
            "example.co.uk");
  EXPECT_EQ(dns::second_level_domain("localhost"), "localhost");
  EXPECT_EQ(dns::effective_tld("www.example.com"), "com");
  EXPECT_EQ(dns::effective_tld("x.example.co.uk"), "co.uk");
  EXPECT_EQ(dns::subdomain_part("smtp2.mail.google.com"), "smtp2.mail");
  EXPECT_EQ(dns::subdomain_part("google.com"), "");
}

TEST(Tokenizer, DigitNormalization) {
  EXPECT_EQ(normalize_digits("smtp2"), "smtpN");
  EXPECT_EQ(normalize_digits("media4"), "mediaN");
  EXPECT_EQ(normalize_digits("12"), "N");
  EXPECT_EQ(normalize_digits("a1b22c"), "aNbNc");
  EXPECT_EQ(normalize_digits("nodigits"), "nodigits");
  EXPECT_EQ(normalize_digits("MiXeD3"), "mixedN");
}

TEST(Tokenizer, PaperExample) {
  // "smtp2.mail.google.com generates the list of tokens {smtpN, mail}".
  const auto tokens = fqdn_tokens("smtp2.mail.google.com");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "smtpN");
  EXPECT_EQ(tokens[1], "mail");
}

TEST(Tokenizer, SplitsNonAlphanumerics) {
  const auto tokens = fqdn_tokens("fb_client_1.photos-a.zynga.com");
  // fb_client_1 -> fb, client, N ; photos-a -> photos, a
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "fb");
  EXPECT_EQ(tokens[1], "client");
  EXPECT_EQ(tokens[2], "N");
  EXPECT_EQ(tokens[3], "photos");
  EXPECT_EQ(tokens[4], "a");
}

TEST(Tokenizer, NoSubdomainYieldsNoTokens) {
  EXPECT_TRUE(fqdn_tokens("google.com").empty());
}

// --------------------------------------------------------- fixture data

// Gives a dynamically built name process lifetime so string_view fields
// (DnsEvent::fqdn, TaggedFlow::fqdn) stay valid without a DomainTable.
std::string_view pooled(std::string name) {
  static auto* pool = new std::deque<std::string>;
  pool->push_back(std::move(name));
  return pool->back();
}

TaggedFlow flow(std::string_view fqdn, Ipv4Address client,
                Ipv4Address server, std::uint16_t port,
                std::int64_t t_seconds = 100,
                std::int64_t dns_t_micros = -1) {
  TaggedFlow f;
  f.key.client_ip = client;
  f.key.server_ip = server;
  f.key.client_port = 50000;
  f.key.server_port = port;
  f.fqdn = fqdn;
  f.first_packet = Timestamp::from_seconds(t_seconds);
  f.last_packet = f.first_packet + Duration::seconds(1);
  f.protocol = flow::ProtocolClass::kHttp;
  if (dns_t_micros >= 0) {
    f.dns_response_time = Timestamp::from_micros(dns_t_micros);
    f.tagged_at_start = true;
  }
  return f;
}

const Ipv4Address kC1{10, 0, 0, 1};
const Ipv4Address kC2{10, 0, 0, 2};
const Ipv4Address kAkamai1{23, 0, 0, 1};
const Ipv4Address kAkamai2{23, 0, 0, 2};
const Ipv4Address kAmazon1{54, 224, 0, 1};

orgdb::OrgDb test_orgs() {
  orgdb::OrgDb orgs;
  orgs.add(net::cidr(Ipv4Address{23, 0, 0, 0}, 16), "akamai");
  orgs.add(net::cidr(Ipv4Address{54, 224, 0, 0}, 16), "amazon");
  orgs.finalize();
  return orgs;
}

// ----------------------------------------------------------- service tags

TEST(ServiceTags, LogScoreDampsHeavyClients) {
  FlowDatabase db;
  // Client 1 opens 100 smtp flows; clients 2..11 one "pop" flow each.
  for (int i = 0; i < 100; ++i)
    db.add(flow("smtp1.mail.libero.it", kC1, kAkamai1, 25));
  for (int i = 0; i < 10; ++i)
    db.add(flow("pop.mail.libero.it",
                Ipv4Address{10, 0, 1, static_cast<std::uint8_t>(i)},
                kAkamai1, 25));
  const auto tags = extract_service_tags(db, 25, {.top_k = 3});
  ASSERT_GE(tags.size(), 2u);
  // Raw counts would rank smtpN (100) over pop (10); the log score
  // ranks by client spread: mail appears for all 11 clients.
  EXPECT_EQ(tags[0].token, "mail");
  // pop: 10 clients * log(2) ~ 6.9 > smtpN: 1 client * log(101) ~ 4.6.
  EXPECT_EQ(tags[1].token, "pop");
}

TEST(ServiceTags, RawCountAblationRanksDifferently) {
  FlowDatabase db;
  for (int i = 0; i < 100; ++i)
    db.add(flow("smtp1.mail.libero.it", kC1, kAkamai1, 25));
  for (int i = 0; i < 10; ++i)
    db.add(flow("pop.mail.libero.it",
                Ipv4Address{10, 0, 1, static_cast<std::uint8_t>(i)},
                kAkamai1, 25));
  const auto raw =
      extract_service_tags(db, 25, {.top_k = 3, .raw_counts = true});
  ASSERT_GE(raw.size(), 2u);
  EXPECT_EQ(raw[0].token, "mail");  // on every flow either way
  EXPECT_EQ(raw[1].token, "smtpN");  // raw volume wins without the log
}

TEST(ServiceTags, EmptyPortYieldsNothing) {
  FlowDatabase db;
  EXPECT_TRUE(extract_service_tags(db, 9999).empty());
}

TEST(ServiceTags, TopKTruncates) {
  FlowDatabase db;
  for (int i = 0; i < 20; ++i)
    db.add(flow(std::string(1, static_cast<char>('a' + i)) +
                    "tok.x.example.com",
                kC1, kAkamai1, 80));
  EXPECT_EQ(extract_service_tags(db, 80, {.top_k = 5}).size(), 5u);
}

// ----------------------------------------------------------- spatial

TEST(Spatial, DiscoversServersPerFqdnAndOrganization) {
  FlowDatabase db;
  db.add(flow("media1.linkedin.com", kC1, kAkamai1, 80));
  db.add(flow("media1.linkedin.com", kC2, kAkamai1, 80));
  db.add(flow("media2.linkedin.com", kC1, kAkamai2, 80));
  db.add(flow("www.linkedin.com", kC1, kAmazon1, 443));
  const auto orgs = test_orgs();

  const auto report = spatial_discovery(db, orgs, "media1.linkedin.com");
  EXPECT_EQ(report.second_level, "linkedin.com");
  ASSERT_EQ(report.fqdn_servers.size(), 1u);
  EXPECT_EQ(report.fqdn_servers[0].server, kAkamai1);
  EXPECT_EQ(report.fqdn_servers[0].flows, 2u);
  EXPECT_EQ(report.fqdn_servers[0].organization, "akamai");
  EXPECT_EQ(report.organization_servers.size(), 3u);
  // Ranked by flows: akamai1 first.
  EXPECT_EQ(report.organization_servers[0].server, kAkamai1);
}

TEST(Spatial, HostingBreakdownShares) {
  FlowDatabase db;
  for (int i = 0; i < 86; ++i)
    db.add(flow("game.zynga.com", kC1, kAmazon1, 443));
  for (int i = 0; i < 14; ++i)
    db.add(flow("static.zynga.com", kC1, kAkamai1, 443));
  const auto orgs = test_orgs();
  const auto breakdown = hosting_breakdown(db, orgs, "zynga.com");
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].host_org, "amazon");
  EXPECT_NEAR(breakdown[0].flow_share, 0.86, 1e-9);
  EXPECT_EQ(breakdown[0].servers, 1u);
}

// ----------------------------------------------------------- content

TEST(Content, DiscoversDomainsOnProvider) {
  FlowDatabase db;
  db.add(flow("d1.cloudfront.net", kC1, kAmazon1, 80));
  db.add(flow("d2.cloudfront.net", kC2, kAmazon1, 80));
  db.add(flow("www.zynga.com", kC1, kAmazon1, 443));
  db.add(flow("static.ak.fbcdn.net", kC1, kAkamai1, 80));
  const auto orgs = test_orgs();

  const auto report =
      content_discovery_by_provider(db, orgs, "amazon", 10);
  EXPECT_EQ(report.provider, "amazon");
  EXPECT_EQ(report.total_flows, 3u);
  EXPECT_EQ(report.distinct_fqdns, 3u);
  ASSERT_GE(report.domains.size(), 2u);
  EXPECT_EQ(report.domains[0].name, "cloudfront.net");
  EXPECT_NEAR(report.domains[0].flow_share, 2.0 / 3.0, 1e-9);
}

TEST(Content, FqdnGranularity) {
  FlowDatabase db;
  db.add(flow("d1.cloudfront.net", kC1, kAmazon1, 80));
  db.add(flow("d2.cloudfront.net", kC1, kAmazon1, 80));
  std::set<Ipv4Address> servers{kAmazon1};
  const auto report = content_discovery(db, servers, 10, true);
  EXPECT_EQ(report.domains.size(), 2u);
}

// ----------------------------------------------------------- domain tree

TEST(DomainTree, BuildsTokenTreeWithHostingGroups) {
  FlowDatabase db;
  db.add(flow("media1.linkedin.com", kC1, kAkamai1, 80));
  db.add(flow("media2.linkedin.com", kC1, kAkamai1, 80));
  db.add(flow("www.linkedin.com", kC1, kAmazon1, 443));
  const auto orgs = test_orgs();
  const auto tree = build_domain_tree(db, orgs, "linkedin.com");

  EXPECT_EQ(tree.total_flows, 3u);
  ASSERT_EQ(tree.hosting.size(), 2u);
  EXPECT_EQ(tree.hosting.at("akamai").flows, 2u);
  EXPECT_EQ(tree.hosting.at("akamai").servers, 1u);
  // mediaN normalization merges media1/media2 into one branch.
  EXPECT_EQ(tree.hosting.at("akamai").fqdns.size(), 1u);
  EXPECT_TRUE(tree.hosting.at("akamai").fqdns.count("mediaN"));
  ASSERT_EQ(tree.root.children.size(), 2u);  // mediaN, www
  EXPECT_EQ(tree.root.children.at("mediaN")->flows, 2u);

  const std::string rendered = render_domain_tree(tree);
  EXPECT_NE(rendered.find("mediaN"), std::string::npos);
  EXPECT_NE(rendered.find("[akamai]"), std::string::npos);
}

TEST(DomainTree, MultiLabelBranches) {
  FlowDatabase db;
  db.add(flow("iphone.stats.zynga.com", kC1, kAmazon1, 443));
  const auto orgs = test_orgs();
  const auto tree = build_domain_tree(db, orgs, "zynga.com");
  // Path: root -> stats -> iphone.
  ASSERT_TRUE(tree.root.children.count("stats"));
  EXPECT_TRUE(tree.root.children.at("stats")->children.count("iphone"));
}

// ----------------------------------------------------------- temporal

TEST(Temporal, DistinctServersPerBin) {
  FlowDatabase db;
  const auto start = Timestamp::from_seconds(0);
  db.add(flow("a.x.com", kC1, kAkamai1, 80, 100));
  db.add(flow("a.x.com", kC1, kAkamai2, 80, 200));
  db.add(flow("a.x.com", kC1, kAkamai1, 80, 700));  // second bin
  const auto series = distinct_servers_timeline(
      db, "x.com", start, Timestamp::from_seconds(1200),
      Duration::minutes(10));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.at(0), 2.0);
  EXPECT_DOUBLE_EQ(series.at(1), 1.0);
}

TEST(Temporal, DistinctFqdnsPerProvider) {
  FlowDatabase db;
  db.add(flow("a.x.com", kC1, kAkamai1, 80, 100));
  db.add(flow("b.x.com", kC1, kAkamai1, 80, 150));
  db.add(flow("c.x.com", kC1, kAmazon1, 80, 160));
  const auto orgs = test_orgs();
  const auto series = distinct_fqdns_timeline(
      db, orgs, "akamai", Timestamp::from_seconds(0),
      Timestamp::from_seconds(600), Duration::minutes(10));
  EXPECT_DOUBLE_EQ(series.at(0), 2.0);
  EXPECT_EQ(distinct_fqdns_total(db, orgs, "akamai"), 2u);
  EXPECT_EQ(distinct_fqdns_total(db, orgs, "amazon"), 1u);
}

TEST(Temporal, BirthProcessMonotone) {
  FlowDatabase db;
  for (int i = 0; i < 50; ++i)
    db.add(flow("f" + std::to_string(i) + ".x.com", kC1,
                Ipv4Address{23, 0, 0, static_cast<std::uint8_t>(i % 5)}, 80,
                i * 100));
  const auto birth =
      birth_process(db, Timestamp::from_seconds(0),
                    Timestamp::from_seconds(5400), Duration::minutes(10));
  ASSERT_FALSE(birth.unique_fqdns.empty());
  for (std::size_t i = 1; i < birth.unique_fqdns.size(); ++i) {
    EXPECT_GE(birth.unique_fqdns[i], birth.unique_fqdns[i - 1]);
    EXPECT_GE(birth.unique_servers[i], birth.unique_servers[i - 1]);
  }
  EXPECT_EQ(birth.unique_fqdns.back(), 50u);
  EXPECT_EQ(birth.unique_servers.back(), 5u);
  EXPECT_EQ(birth.unique_slds.back(), 1u);
}

TEST(Temporal, TrackerTimelineOrdersByFirstActivity) {
  FlowDatabase db;
  // t2 becomes active before t1.
  db.add(flow("t2.appspot.com", kC1, kAkamai1, 80, 1000));
  db.add(flow("t1.appspot.com", kC1, kAkamai1, 80, 50000));
  db.add(flow("t1.appspot.com", kC1, kAkamai1, 80, 90000));
  const auto timeline = tracker_timeline(
      db, {"t1.appspot.com", "t2.appspot.com", "t3.appspot.com"},
      Timestamp::from_seconds(0), Timestamp::from_seconds(100000),
      Duration::hours(4));
  ASSERT_EQ(timeline.fqdns.size(), 2u);  // t3 never active: dropped
  EXPECT_EQ(timeline.fqdns[0], "t2.appspot.com");
  EXPECT_EQ(timeline.fqdns[1], "t1.appspot.com");
  EXPECT_TRUE(timeline.active[0][0]);
  EXPECT_FALSE(timeline.active[0][4]);
}

TEST(Temporal, DnsRateBinsResponses) {
  std::vector<DnsEvent> log;
  for (int i = 0; i < 30; ++i)
    log.push_back({Timestamp::from_seconds(i * 30), kC1, "x.com", {}});
  const auto series =
      dns_response_rate(log, Timestamp::from_seconds(0),
                        Timestamp::from_seconds(1200), Duration::minutes(10));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.at(0), 20.0);
  EXPECT_DOUBLE_EQ(series.at(1), 10.0);
}

// ----------------------------------------------------------- delay

TEST(Delay, FirstAndAnyFlowDelays) {
  std::vector<DnsEvent> log;
  const auto t0 = Timestamp::from_seconds(1000);
  log.push_back({t0, kC1, "a.x.com", {kAkamai1}});

  FlowDatabase db;
  // Two flows from the same response: 0.5 s and 10 s later.
  db.add(flow("a.x.com", kC1, kAkamai1, 80, 0, t0.micros_since_epoch()));
  auto& f1 = const_cast<TaggedFlow&>(db.flows()[0]);
  f1.first_packet = t0 + Duration::millis(500);
  db.add(flow("a.x.com", kC1, kAkamai1, 80, 0, t0.micros_since_epoch()));
  auto& f2 = const_cast<TaggedFlow&>(db.flows()[1]);
  f2.first_packet = t0 + Duration::seconds(10);

  const auto report = analyze_delays(log, db);
  EXPECT_EQ(report.responses, 1u);
  EXPECT_EQ(report.useless_responses, 0u);
  ASSERT_EQ(report.first_flow_delay.count(), 1u);
  EXPECT_NEAR(report.first_flow_delay.max(), 0.5, 1e-6);
  EXPECT_EQ(report.any_flow_delay.count(), 2u);
  EXPECT_NEAR(report.any_flow_delay.max(), 10.0, 1e-6);
}

TEST(Delay, UselessResponsesCounted) {
  std::vector<DnsEvent> log;
  log.push_back({Timestamp::from_seconds(1), kC1, "used.x.com", {kAkamai1}});
  log.push_back(
      {Timestamp::from_seconds(2), kC1, "prefetched.x.com", {kAkamai2}});

  FlowDatabase db;
  db.add(flow("used.x.com", kC1, kAkamai1, 80, 0,
              Timestamp::from_seconds(1).micros_since_epoch()));
  auto& f = const_cast<TaggedFlow&>(db.flows()[0]);
  f.first_packet = Timestamp::from_seconds(2);

  const auto report = analyze_delays(log, db);
  EXPECT_EQ(report.responses, 2u);
  EXPECT_EQ(report.useless_responses, 1u);
  EXPECT_NEAR(report.useless_fraction(), 0.5, 1e-9);
}

// ----------------------------------------------------------- dimensioning

TEST(Dimensioning, EfficiencyGrowsWithClistSize) {
  // 50 clients resolving distinct names, then opening flows much later:
  // a small Clist evicts entries before the flows arrive.
  std::vector<DnsEvent> log;
  FlowDatabase db;
  for (int i = 0; i < 50; ++i) {
    const Ipv4Address client{10, 0, 0, static_cast<std::uint8_t>(i)};
    const Ipv4Address server{23, 0, 1, static_cast<std::uint8_t>(i)};
    const auto t = Timestamp::from_seconds(i);
    const auto name = pooled("s" + std::to_string(i) + ".x.com");
    log.push_back({t, client, name, {server}});
    db.add(flow(name, client, server, 80, 1000 + i,
                t.micros_since_epoch()));
  }
  const auto sweep = clist_efficiency_sweep(log, db, {5, 25, 50, 100});
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_LT(sweep[0].efficiency, sweep[1].efficiency);
  EXPECT_LT(sweep[1].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(sweep[2].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(sweep[3].efficiency, 1.0);
  EXPECT_EQ(sweep[0].lookups, 50u);  // all flows resolvable at full size
}

TEST(Dimensioning, AnswersPerResponseHistogram) {
  std::vector<DnsEvent> log;
  log.push_back({Timestamp::from_seconds(1), kC1, "a.x", {kAkamai1}});
  log.push_back(
      {Timestamp::from_seconds(2), kC1, "b.x", {kAkamai1, kAkamai2}});
  log.push_back({Timestamp::from_seconds(3), kC1, "c.x", {}});
  const auto histogram = answers_per_response(log, 10);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 1u);
  EXPECT_EQ(histogram[2], 1u);
}

TEST(Dimensioning, ConfusionSplitsRedirectsFromRealConflicts) {
  std::vector<DnsEvent> log;
  // Same client+server rebinds google.com -> www.google.com (redirect,
  // same 2LD) and later -> unrelated.example.org (cross-org conflict).
  log.push_back({Timestamp::from_seconds(1), kC1, "google.com", {kAkamai1}});
  log.push_back(
      {Timestamp::from_seconds(2), kC1, "www.google.com", {kAkamai1}});
  log.push_back(
      {Timestamp::from_seconds(3), kC1, "unrelated.example.org", {kAkamai1}});

  FlowDatabase db;
  db.add(flow("www.google.com", kC1, kAkamai1, 80, 10,
              Timestamp::from_seconds(2).micros_since_epoch()));

  const auto report = confusion_analysis(log, db);
  EXPECT_EQ(report.different_fqdn, 2u);
  EXPECT_EQ(report.different_organization, 1u);
  EXPECT_EQ(report.lookups, 1u);
  EXPECT_DOUBLE_EQ(report.confusion_rate(), 1.0);
  EXPECT_DOUBLE_EQ(report.raw_replacement_rate(), 2.0);
}

}  // namespace
}  // namespace dnh::analytics

namespace dnh::analytics {
namespace {

// ----------------------------------------------------------- anomaly

orgdb::OrgDb anomaly_orgs() {
  orgdb::OrgDb orgs;
  orgs.add(net::cidr(Ipv4Address{23, 0, 0, 0}, 16), "akamai");
  orgs.add(net::cidr(Ipv4Address{54, 224, 0, 0}, 16), "amazon");
  orgs.finalize();
  return orgs;
}

DnsEvent dns_event(std::int64_t t, std::string_view fqdn,
                   std::vector<Ipv4Address> servers) {
  return {Timestamp::from_seconds(t), Ipv4Address{10, 0, 0, 1}, fqdn,
          std::move(servers)};
}

TEST(Anomaly, FlagsOutOfProfileAnswerAfterStableHistory) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 3}};
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(detector.observe(dns_event(
        i, "www.bank.example", {Ipv4Address{23, 0, 0, 10}})));
  }
  // A poisoned response pointing at an unrelated network.
  const auto anomaly = detector.observe(
      dns_event(100, "www.bank.example", {Ipv4Address{198, 51, 100, 66}}));
  ASSERT_TRUE(anomaly);
  EXPECT_EQ(anomaly->fqdn, "www.bank.example");
  EXPECT_EQ(anomaly->suspicious_server.to_string(), "198.51.100.66");
  ASSERT_EQ(anomaly->known_orgs.size(), 1u);
  EXPECT_EQ(anomaly->known_orgs[0], "akamai");
}

TEST(Anomaly, SilentDuringLearningPhase) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 5}};
  // Different network on the 3rd response: still learning, no alarm.
  EXPECT_FALSE(detector.observe(dns_event(1, "a.x", {Ipv4Address{23, 0, 0, 1}})));
  EXPECT_FALSE(detector.observe(dns_event(2, "a.x", {Ipv4Address{23, 0, 0, 2}})));
  EXPECT_FALSE(detector.observe(
      dns_event(3, "a.x", {Ipv4Address{54, 224, 0, 9}})));
}

TEST(Anomaly, CdnRotationInsideProfileIsSilent) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 2}};
  for (int i = 0; i < 10; ++i) {
    // Rotating akamai edges: different IPs, same organization.
    EXPECT_FALSE(detector.observe(dns_event(
        i, "static.cdn.example",
        {Ipv4Address{23, 0, static_cast<std::uint8_t>(i), 7}})));
  }
}

TEST(Anomaly, PartialOverlapIsSilent) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 2}};
  for (int i = 0; i < 4; ++i)
    detector.observe(dns_event(i, "multi.example",
                               {Ipv4Address{23, 0, 0, 1}}));
  // New answer list mixes a known network with a new one: multi-CDN
  // onboarding, not poisoning.
  EXPECT_FALSE(detector.observe(dns_event(
      10, "multi.example",
      {Ipv4Address{23, 0, 0, 2}, Ipv4Address{54, 224, 0, 1}})));
  // The new network is now learned: answers purely from it are fine.
  EXPECT_FALSE(detector.observe(
      dns_event(11, "multi.example", {Ipv4Address{54, 224, 0, 2}})));
}

TEST(Anomaly, MigrationFiresOnlyOnce) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 2}};
  for (int i = 0; i < 4; ++i)
    detector.observe(dns_event(i, "moved.example",
                               {Ipv4Address{23, 0, 0, 1}}));
  EXPECT_TRUE(detector.observe(
      dns_event(10, "moved.example", {Ipv4Address{54, 224, 0, 1}})));
  EXPECT_FALSE(detector.observe(
      dns_event(11, "moved.example", {Ipv4Address{54, 224, 0, 2}})));
}

TEST(Anomaly, UnallocatedSpaceUsesPrefixIdentity) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 2}};
  for (int i = 0; i < 4; ++i)
    detector.observe(dns_event(i, "p.example",
                               {Ipv4Address{198, 51, 0, 1}}));
  // Same /16: silent.
  EXPECT_FALSE(detector.observe(
      dns_event(10, "p.example", {Ipv4Address{198, 51, 200, 1}})));
  // Different /16 in unallocated space: flagged.
  const auto anomaly = detector.observe(
      dns_event(11, "p.example", {Ipv4Address{203, 0, 113, 5}}));
  ASSERT_TRUE(anomaly);
  EXPECT_EQ(anomaly->observed_org, "203.0.0.0/16");
}

TEST(Anomaly, ScanProcessesWholeLog) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs, {.min_history = 1}};
  std::vector<DnsEvent> log;
  for (int i = 0; i < 3; ++i)
    log.push_back(dns_event(i, "s.example", {Ipv4Address{23, 0, 0, 1}}));
  log.push_back(dns_event(9, "s.example", {Ipv4Address{54, 224, 0, 1}}));
  const auto anomalies = detector.scan(log);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(detector.responses_seen(), 4u);
}

TEST(Anomaly, EmptyAnswerListsIgnored) {
  const auto orgs = anomaly_orgs();
  DnsAnomalyDetector detector{orgs};
  EXPECT_FALSE(detector.observe(dns_event(1, "nx.example", {})));
}

}  // namespace
}  // namespace dnh::analytics

namespace dnh::analytics {
namespace {

// ----------------------------------------------------------- volume

core::FlowDatabase volume_db() {
  core::FlowDatabase db;
  auto add = [&](std::string_view fqdn, std::uint64_t bytes,
                 flow::ProtocolClass cls = flow::ProtocolClass::kHttp) {
    core::TaggedFlow f;
    f.key.client_ip = kC1;
    f.key.server_ip = kAkamai1;
    f.fqdn = fqdn;
    f.bytes_s2c = bytes;
    f.protocol = cls;
    db.add(std::move(f));
  };
  add("mail.google.com", 1000, flow::ProtocolClass::kTls);
  add("docs.google.com", 3000, flow::ProtocolClass::kTls);
  add("www.example.org", 6000);
  add("", 500, flow::ProtocolClass::kP2p);  // unlabeled peer flow
  return db;
}

TEST(Volume, TldDepthAggregation) {
  const auto report = traffic_by_domain(volume_db(), 1);
  EXPECT_EQ(report.total_flows, 3u);
  EXPECT_EQ(report.total_bytes, 10000u);
  EXPECT_EQ(report.unlabeled_flows, 1u);
  EXPECT_EQ(report.unlabeled_bytes, 500u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].name, "org");
  EXPECT_NEAR(report.rows[0].byte_share, 0.6, 1e-9);
  EXPECT_EQ(report.rows[1].name, "com");
  EXPECT_EQ(report.rows[1].flows, 2u);
}

TEST(Volume, OrganizationDepthAggregation) {
  const auto report = traffic_by_domain(volume_db(), 2);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].name, "example.org");
  EXPECT_EQ(report.rows[1].name, "google.com");
  EXPECT_EQ(report.rows[1].bytes, 4000u);
}

TEST(Volume, FqdnDepthAggregation) {
  const auto report = traffic_by_domain(volume_db(), 3);
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_EQ(report.rows[0].name, "www.example.org");
  EXPECT_EQ(report.rows[1].name, "docs.google.com");
  EXPECT_EQ(report.rows[2].name, "mail.google.com");
}

TEST(Volume, DepthBeyondLabelsClampsToFqdn) {
  const auto report = traffic_by_domain(volume_db(), 9);
  for (const auto& row : report.rows)
    EXPECT_NE(row.name.find('.'), std::string::npos);
  EXPECT_EQ(report.rows.size(), 3u);
}

TEST(Volume, TopKTruncates) {
  const auto report = traffic_by_domain(volume_db(), 3, 1);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].name, "www.example.org");
}

TEST(Volume, ProtocolBreakdownCoversAllFlows) {
  const auto rows = traffic_by_protocol(volume_db());
  std::uint64_t flows = 0;
  double share = 0.0;
  for (const auto& [cls, row] : rows) {
    flows += row.flows;
    share += row.byte_share;
  }
  EXPECT_EQ(flows, 4u);
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_EQ(rows[0].first, flow::ProtocolClass::kHttp);  // most bytes
}

}  // namespace
}  // namespace dnh::analytics

#include "analytics/cdn_tracking.hpp"

namespace dnh::analytics {
namespace {

TEST(CdnTracking, BinsHostingMixOverTime) {
  FlowDatabase db;
  // Hour 0: self-hosted. Hour 1: migrated to akamai. Hour 2: akamai.
  for (int i = 0; i < 5; ++i)
    db.add(flow("www.moved.com", kC1, kAmazon1, 80, 100 + i));
  for (int i = 0; i < 5; ++i)
    db.add(flow("www.moved.com", kC1, kAkamai1, 80, 3700 + i));
  for (int i = 0; i < 5; ++i)
    db.add(flow("www.moved.com", kC1, kAkamai2, 80, 7300 + i));
  const auto orgs = test_orgs();

  const auto report = track_hosting(
      db, orgs, "moved.com", Timestamp::from_seconds(0),
      Timestamp::from_seconds(3 * 3600), Duration::hours(1));
  ASSERT_EQ(report.bins.size(), 3u);
  EXPECT_EQ(report.bins[0].dominant(), "amazon");
  EXPECT_EQ(report.bins[1].dominant(), "akamai");
  EXPECT_EQ(report.bins[2].dominant(), "akamai");
  ASSERT_EQ(report.switches.size(), 1u);
  EXPECT_EQ(report.switches[0].from, "amazon");
  EXPECT_EQ(report.switches[0].to, "akamai");
  EXPECT_EQ(report.switches[0].at_seconds, 3600);
  ASSERT_EQ(report.hosts_seen.size(), 2u);
}

TEST(CdnTracking, EmptyBinsDoNotBreakStreaks) {
  FlowDatabase db;
  db.add(flow("a.stable.com", kC1, kAkamai1, 80, 100));
  // Gap in hour 1, same host again in hour 2: no switch.
  db.add(flow("a.stable.com", kC1, kAkamai2, 80, 7300));
  const auto orgs = test_orgs();
  const auto report = track_hosting(
      db, orgs, "stable.com", Timestamp::from_seconds(0),
      Timestamp::from_seconds(3 * 3600), Duration::hours(1));
  EXPECT_TRUE(report.switches.empty());
  EXPECT_EQ(report.bins[1].flows, 0u);
}

TEST(CdnTracking, MixedBinDominantIsBusiest) {
  HostingBin bin;
  bin.hosts["akamai"] = 3;
  bin.hosts["amazon"] = 7;
  EXPECT_EQ(bin.dominant(), "amazon");
  EXPECT_EQ(HostingBin{}.dominant(), "");
}

TEST(CdnTracking, UnknownDomainYieldsEmptyReport) {
  FlowDatabase db;
  const auto orgs = test_orgs();
  const auto report = track_hosting(
      db, orgs, "absent.com", Timestamp::from_seconds(0),
      Timestamp::from_seconds(3600), Duration::hours(1));
  EXPECT_TRUE(report.switches.empty());
  EXPECT_TRUE(report.hosts_seen.empty());
  for (const auto& bin : report.bins) EXPECT_EQ(bin.flows, 0u);
}

}  // namespace
}  // namespace dnh::analytics

#include "analytics/dga.hpp"
#include "trafficgen/simulator.hpp"

namespace dnh::analytics {
namespace {

TEST(Dga, NaturalNamesScoreLow) {
  for (const char* fqdn :
       {"www.facebook.com", "mail.google.com", "static.linkedin.com",
        "tracker.openbittorrent.com", "www.dailymotion.com",
        "pop.mail.libero.it"}) {
    EXPECT_LT(name_randomness(fqdn), 0.45) << fqdn;
  }
}

TEST(Dga, GeneratedNamesScoreHigh) {
  for (const char* fqdn :
       {"xkqwzejvhtpq.com", "qj7rz0pktx2m.net", "zzqxjwvkpyt.biz",
        "wxkcvbzqjhfd.info", "hjq8wkzxv9pl.ru"}) {
    EXPECT_GT(name_randomness(fqdn), 0.45) << fqdn;
  }
}

TEST(Dga, ShortNamesAreNeutral) {
  EXPECT_DOUBLE_EQ(name_randomness("ab.com"), 0.0);
  EXPECT_DOUBLE_EQ(name_randomness("x.io"), 0.0);
}

TEST(Dga, DetectorFlagsInfectedClientOnly) {
  std::vector<core::DnsEvent> log;
  const Ipv4Address infected{10, 0, 0, 66};
  const Ipv4Address clean{10, 0, 0, 5};
  util::Rng rng{5};
  // Clean client: normal resolutions, all answered.
  const char* normal[] = {"www.facebook.com", "mail.google.com",
                          "static.ak.fbcdn.net", "www.youtube.com"};
  for (int i = 0; i < 40; ++i)
    log.push_back({Timestamp::from_seconds(i), clean, normal[i % 4],
                   {Ipv4Address{23, 0, 0, 1}}});
  // Infected client: random names, mostly NXDOMAIN.
  for (int i = 0; i < 60; ++i) {
    std::string name;
    for (int j = 0; j < 12; ++j)
      name += static_cast<char>('a' + rng.uniform(0, 25));
    name += ".com";
    core::DnsEvent event{Timestamp::from_seconds(i), infected,
                         pooled(std::move(name)), {}};
    if (i % 20 == 0) event.servers = {Ipv4Address{198, 18, 0, 1}};
    log.push_back(std::move(event));
  }

  const auto suspects = detect_dga_clients(log);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].client, infected);
  EXPECT_GT(suspects[0].nxdomain_ratio, 0.9);
  EXPECT_GT(suspects[0].mean_randomness, 0.45);
  EXPECT_LE(suspects[0].sample_names.size(), 5u);
  EXPECT_GT(suspects[0].distinct_slds, 50u);
}

TEST(Dga, BelowMinQueriesIgnored) {
  std::vector<core::DnsEvent> log;
  for (int i = 0; i < 5; ++i)
    log.push_back({Timestamp::from_seconds(i), kC1,
                   "zzqxjwvkpyt.biz", {}});
  EXPECT_TRUE(detect_dga_clients(log, {.min_queries = 20}).empty());
}

TEST(Dga, HighFailureNaturalNamesNotFlagged) {
  // A client with many failures but natural names (e.g. typo bursts /
  // stale bookmarks) must not be flagged.
  std::vector<core::DnsEvent> log;
  const char* names[] = {"www.oldsite.com", "blog.myfriend.net",
                         "forum.retired.org", "mail.defunct.com"};
  for (int i = 0; i < 40; ++i)
    log.push_back({Timestamp::from_seconds(i), kC1, names[i % 4], {}});
  EXPECT_TRUE(detect_dga_clients(log).empty());
}

TEST(Dga, EndToEndThroughGenerator) {
  auto profile = trafficgen::profile_eu1_ftth();
  profile.name = "dga-test";
  profile.duration = util::Duration::hours(2);
  profile.n_clients = 30;
  profile.dga_client_fraction = 0.1;
  profile.world.tail_organizations = 150;
  trafficgen::Simulator sim{profile};
  const auto trace = sim.run_events();

  const auto suspects = detect_dga_clients(trace.dns_log);
  EXPECT_GE(suspects.size(), 1u);
  for (const auto& suspect : suspects) {
    EXPECT_GT(suspect.nxdomain_ratio, 0.4);
    EXPECT_GT(suspect.mean_randomness, 0.45);
  }
}

}  // namespace
}  // namespace dnh::analytics

#include "analytics/tangle.hpp"

namespace dnh::analytics {
namespace {

TEST(Tangle, SharedServersFormEdges) {
  FlowDatabase db;
  // zynga and dropbox share kAmazon1; linkedin is isolated.
  db.add(flow("poker.zynga.com", kC1, kAmazon1, 443));
  db.add(flow("client.dropbox.com", kC2, kAmazon1, 443));
  db.add(flow("www.zynga.com", kC1, kAkamai2, 443));
  db.add(flow("www.linkedin.com", kC1, kAkamai1, 443));

  const auto report = tangle_graph(db);
  EXPECT_EQ(report.organizations, 3u);
  EXPECT_EQ(report.entangled_orgs, 2u);
  EXPECT_EQ(report.multi_tenant_servers, 1u);
  ASSERT_EQ(report.pairs.size(), 1u);
  const auto& edge = report.pairs[0];
  EXPECT_EQ(edge.org_a, "dropbox.com");
  EXPECT_EQ(edge.org_b, "zynga.com");
  EXPECT_EQ(edge.shared_servers, 1u);
  EXPECT_EQ(edge.servers_a, 1u);
  EXPECT_EQ(edge.servers_b, 2u);
  EXPECT_NEAR(edge.jaccard(), 0.5, 1e-9);
  EXPECT_NEAR(report.entangled_fraction(), 2.0 / 3.0, 1e-9);
}

TEST(Tangle, MinSharedFiltersWeakEdges) {
  FlowDatabase db;
  db.add(flow("a.one.com", kC1, kAmazon1, 80));
  db.add(flow("b.two.com", kC1, kAmazon1, 80));
  db.add(flow("a.one.com", kC1, kAkamai1, 80));
  db.add(flow("b.two.com", kC1, kAkamai1, 80));
  EXPECT_EQ(tangle_graph(db, 0, 2).pairs.size(), 1u);
  EXPECT_EQ(tangle_graph(db, 0, 3).pairs.size(), 0u);
}

TEST(Tangle, NoSharedServersNoEdges) {
  FlowDatabase db;
  db.add(flow("a.one.com", kC1, kAmazon1, 80));
  db.add(flow("b.two.com", kC1, kAkamai1, 80));
  const auto report = tangle_graph(db);
  EXPECT_TRUE(report.pairs.empty());
  EXPECT_EQ(report.entangled_orgs, 0u);
  EXPECT_DOUBLE_EQ(report.entangled_fraction(), 0.0);
}

TEST(Tangle, UnlabeledFlowsIgnored) {
  FlowDatabase db;
  db.add(flow("", kC1, kAmazon1, 6881));
  db.add(flow("", kC2, kAmazon1, 6882));
  const auto report = tangle_graph(db);
  EXPECT_EQ(report.organizations, 0u);
  EXPECT_EQ(report.multi_tenant_servers, 0u);
}

}  // namespace
}  // namespace dnh::analytics

// ------------------------------------------------------- query oracle
//
// The batch queries count by dense ids (SLD rank, DomainId, server rank).
// The string-keyed implementations they replaced are kept here verbatim
// as the oracle: both must return the same rows, in the same order, with
// the same scores to the last bit.

#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

namespace dnh::analytics {
namespace {
namespace oracle {

ContentReport build_report(
    const core::FlowDatabase& db,
    const std::vector<std::span<const core::FlowDatabase::FlowIndex>>&
        flow_lists,
    std::string provider, std::size_t top_k, bool fqdn_granularity) {
  ContentReport report;
  report.provider = std::move(provider);
  std::map<std::string, std::uint64_t> counts;
  std::set<std::string> fqdns;
  for (const auto list : flow_lists) {
    for (const auto index : list) {
      const auto& flow = db.flow(index);
      if (!flow.labeled()) continue;
      ++report.total_flows;
      fqdns.emplace(flow.fqdn);
      const std::string key = std::string{
          fqdn_granularity ? flow.fqdn : flow.second_level()};
      ++counts[key];
    }
  }
  report.distinct_fqdns = fqdns.size();
  report.domains.reserve(counts.size());
  for (const auto& [name, flows] : counts) {
    report.domains.push_back(
        {name, flows,
         report.total_flows ? static_cast<double>(flows) /
                                  static_cast<double>(report.total_flows)
                            : 0.0});
  }
  std::sort(report.domains.begin(), report.domains.end(),
            [](const HostedDomain& a, const HostedDomain& b) {
              if (a.flows != b.flows) return a.flows > b.flows;
              return a.name < b.name;
            });
  if (top_k > 0 && report.domains.size() > top_k)
    report.domains.resize(top_k);
  return report;
}

ContentReport content_discovery(const core::FlowDatabase& db,
                                const std::set<net::Ipv4Address>& servers,
                                std::size_t top_k, bool fqdn_granularity) {
  std::vector<std::span<const core::FlowDatabase::FlowIndex>> lists;
  lists.reserve(servers.size());
  for (const auto server : servers) lists.push_back(db.by_server(server));
  return build_report(db, lists, "custom-set", top_k, fqdn_granularity);
}

ContentReport content_discovery_by_provider(const core::FlowDatabase& db,
                                            const orgdb::OrgDb& orgs,
                                            const std::string& provider,
                                            std::size_t top_k,
                                            bool fqdn_granularity) {
  std::set<net::Ipv4Address> servers;
  for (const auto& flow : db.flows()) {
    if (servers.count(flow.key.server_ip)) continue;
    if (orgs.lookup_or(flow.key.server_ip) == provider)
      servers.insert(flow.key.server_ip);
  }
  auto report = content_discovery(db, servers, top_k, fqdn_granularity);
  report.provider = provider;
  return report;
}

TangleReport tangle_graph(const core::FlowDatabase& db, std::size_t top_k,
                          std::size_t min_shared) {
  std::map<net::Ipv4Address, std::set<std::string>> orgs_on_server;
  std::map<std::string, std::set<net::Ipv4Address>> servers_of_org;
  for (const auto& flow : db.flows()) {
    if (!flow.labeled()) continue;
    const std::string sld{flow.second_level()};
    orgs_on_server[flow.key.server_ip].insert(sld);
    servers_of_org[sld].insert(flow.key.server_ip);
  }
  TangleReport report;
  report.organizations = servers_of_org.size();
  std::map<std::pair<std::string, std::string>, std::size_t> shared;
  std::set<std::string> entangled;
  for (const auto& [server, orgs] : orgs_on_server) {
    if (orgs.size() < 2) continue;
    ++report.multi_tenant_servers;
    for (auto a = orgs.begin(); a != orgs.end(); ++a) {
      entangled.insert(*a);
      for (auto b = std::next(a); b != orgs.end(); ++b)
        ++shared[{*a, *b}];
    }
  }
  report.entangled_orgs = entangled.size();
  report.pairs.reserve(shared.size());
  for (const auto& [pair, count] : shared) {
    if (count < min_shared) continue;
    TanglePair edge;
    edge.org_a = pair.first;
    edge.org_b = pair.second;
    edge.shared_servers = count;
    edge.servers_a = servers_of_org[pair.first].size();
    edge.servers_b = servers_of_org[pair.second].size();
    report.pairs.push_back(std::move(edge));
  }
  std::sort(report.pairs.begin(), report.pairs.end(),
            [](const TanglePair& a, const TanglePair& b) {
              if (a.shared_servers != b.shared_servers)
                return a.shared_servers > b.shared_servers;
              return std::tie(a.org_a, a.org_b) < std::tie(b.org_a, b.org_b);
            });
  if (top_k > 0 && report.pairs.size() > top_k) report.pairs.resize(top_k);
  return report;
}

std::vector<RankedServer> rank_servers(
    const core::FlowDatabase& db, const orgdb::OrgDb& orgs,
    std::span<const core::FlowDatabase::FlowIndex> flows) {
  std::map<net::Ipv4Address, std::uint64_t> counts;
  for (const auto index : flows) ++counts[db.flow(index).key.server_ip];
  std::vector<RankedServer> out;
  out.reserve(counts.size());
  for (const auto& [server, count] : counts)
    out.push_back({server, count, orgs.lookup_or(server)});
  std::sort(out.begin(), out.end(),
            [](const RankedServer& a, const RankedServer& b) {
              if (a.flows != b.flows) return a.flows > b.flows;
              return a.server < b.server;
            });
  return out;
}

SpatialReport spatial_discovery(const core::FlowDatabase& db,
                                const orgdb::OrgDb& orgs,
                                const std::string& fqdn) {
  SpatialReport report;
  report.fqdn = fqdn;
  report.second_level = std::string{dns::second_level_domain(fqdn)};
  report.fqdn_servers = rank_servers(db, orgs, db.by_fqdn(fqdn));
  report.organization_servers =
      rank_servers(db, orgs, db.by_second_level(report.second_level));
  return report;
}

std::vector<HostingSummary> hosting_breakdown(const core::FlowDatabase& db,
                                              const orgdb::OrgDb& orgs,
                                              const std::string& sld) {
  struct Acc {
    std::set<net::Ipv4Address> servers;
    std::uint64_t flows = 0;
  };
  std::map<std::string, Acc> accs;
  std::uint64_t total = 0;
  for (const auto index : db.by_second_level(sld)) {
    const auto& flow = db.flow(index);
    Acc& acc = accs[orgs.lookup_or(flow.key.server_ip)];
    acc.servers.insert(flow.key.server_ip);
    ++acc.flows;
    ++total;
  }
  std::vector<HostingSummary> out;
  for (const auto& [host, acc] : accs) {
    out.push_back({host, acc.servers.size(), acc.flows,
                   total ? static_cast<double>(acc.flows) /
                               static_cast<double>(total)
                         : 0.0});
  }
  std::sort(out.begin(), out.end(),
            [](const HostingSummary& a, const HostingSummary& b) {
              return a.flows > b.flows;
            });
  return out;
}

std::vector<ServiceTag> rank(
    const std::map<std::string,
                   std::unordered_map<std::uint32_t, std::uint64_t>>&
        per_token_client_counts,
    const TagExtractionOptions& options) {
  std::vector<ServiceTag> tags;
  tags.reserve(per_token_client_counts.size());
  for (const auto& [token, clients] : per_token_client_counts) {
    double score = 0.0;
    for (const auto& [client, count] : clients) {
      score += options.raw_counts
                   ? static_cast<double>(count)
                   : std::log(static_cast<double>(count) + 1.0);
    }
    tags.push_back({token, score});
  }
  std::sort(tags.begin(), tags.end(),
            [](const ServiceTag& a, const ServiceTag& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.token < b.token;
            });
  if (options.top_k > 0 && tags.size() > options.top_k)
    tags.resize(options.top_k);
  return tags;
}

std::vector<ServiceTag> extract_tags_for_flows(
    const core::FlowDatabase& db,
    std::span<const core::FlowDatabase::FlowIndex> flows,
    const TagExtractionOptions& options) {
  std::map<std::string, std::unordered_map<std::uint32_t, std::uint64_t>>
      counts;
  for (const auto index : flows) {
    const auto& flow = db.flow(index);
    if (!flow.labeled()) continue;
    for (const auto& token : fqdn_tokens(flow.fqdn))
      ++counts[token][flow.key.client_ip.value()];
  }
  return rank(counts, options);
}

}  // namespace oracle

void expect_same(const ContentReport& want, const ContentReport& got) {
  EXPECT_EQ(want.provider, got.provider);
  EXPECT_EQ(want.total_flows, got.total_flows);
  EXPECT_EQ(want.distinct_fqdns, got.distinct_fqdns);
  ASSERT_EQ(want.domains.size(), got.domains.size());
  for (std::size_t i = 0; i < want.domains.size(); ++i) {
    EXPECT_EQ(want.domains[i].name, got.domains[i].name) << i;
    EXPECT_EQ(want.domains[i].flows, got.domains[i].flows) << i;
    EXPECT_EQ(want.domains[i].flow_share, got.domains[i].flow_share) << i;
  }
}

void expect_same(const TangleReport& want, const TangleReport& got) {
  EXPECT_EQ(want.organizations, got.organizations);
  EXPECT_EQ(want.entangled_orgs, got.entangled_orgs);
  EXPECT_EQ(want.multi_tenant_servers, got.multi_tenant_servers);
  ASSERT_EQ(want.pairs.size(), got.pairs.size());
  for (std::size_t i = 0; i < want.pairs.size(); ++i) {
    EXPECT_EQ(want.pairs[i].org_a, got.pairs[i].org_a) << i;
    EXPECT_EQ(want.pairs[i].org_b, got.pairs[i].org_b) << i;
    EXPECT_EQ(want.pairs[i].shared_servers, got.pairs[i].shared_servers) << i;
    EXPECT_EQ(want.pairs[i].servers_a, got.pairs[i].servers_a) << i;
    EXPECT_EQ(want.pairs[i].servers_b, got.pairs[i].servers_b) << i;
  }
}

void expect_same(const std::vector<RankedServer>& want,
                 const std::vector<RankedServer>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].server, got[i].server) << i;
    EXPECT_EQ(want[i].flows, got[i].flows) << i;
    EXPECT_EQ(want[i].organization, got[i].organization) << i;
  }
}

void expect_same(const std::vector<HostingSummary>& want,
                 const std::vector<HostingSummary>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].host_org, got[i].host_org) << i;
    EXPECT_EQ(want[i].servers, got[i].servers) << i;
    EXPECT_EQ(want[i].flows, got[i].flows) << i;
    EXPECT_EQ(want[i].flow_share, got[i].flow_share) << i;
  }
}

void expect_same(const std::vector<ServiceTag>& want,
                 const std::vector<ServiceTag>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].token, got[i].token) << i;
    EXPECT_EQ(want[i].score, got[i].score) << i;  // exact, not a tolerance
  }
}

/// Runs every query both ways over `db`: each server port, each FQDN and
/// SLD, each provider `orgs` knows plus "unknown", at several top_k.
void expect_queries_match(const FlowDatabase& db, const orgdb::OrgDb& orgs) {
  std::set<std::uint16_t> ports;
  std::set<std::string> fqdns;
  std::set<std::string> providers{"unknown", "no-such-provider"};
  for (const auto& f : db.flows()) {
    ports.insert(f.key.server_port);
    if (f.labeled()) fqdns.emplace(f.fqdn);
  }
  for (const auto& range : orgs.ranges()) providers.insert(range.organization);

  for (const auto port : ports) {
    for (const TagExtractionOptions options :
         {TagExtractionOptions{}, TagExtractionOptions{0, false},
          TagExtractionOptions{3, true}}) {
      SCOPED_TRACE(port);
      expect_same(
          oracle::extract_tags_for_flows(db, db.by_server_port(port), options),
          extract_service_tags(db, port, options));
    }
  }
  for (const auto& fqdn : fqdns) {
    SCOPED_TRACE(fqdn);
    const auto want = oracle::spatial_discovery(db, orgs, fqdn);
    const auto got = spatial_discovery(db, orgs, fqdn);
    EXPECT_EQ(want.second_level, got.second_level);
    expect_same(want.fqdn_servers, got.fqdn_servers);
    expect_same(want.organization_servers, got.organization_servers);
    expect_same(oracle::hosting_breakdown(db, orgs, want.second_level),
                hosting_breakdown(db, orgs, want.second_level));
  }
  for (const auto& provider : providers) {
    for (const std::size_t top_k : {0, 1, 10}) {
      for (const bool fine : {false, true}) {
        SCOPED_TRACE(provider + " top_k " + std::to_string(top_k) +
                     (fine ? " fqdn" : " sld"));
        expect_same(oracle::content_discovery_by_provider(db, orgs, provider,
                                                          top_k, fine),
                    content_discovery_by_provider(db, orgs, provider, top_k,
                                                  fine));
      }
    }
  }
  std::set<Ipv4Address> some_servers;
  for (std::size_t i = 0; i < db.size(); i += 7)
    some_servers.insert(db.flow(static_cast<std::uint32_t>(i)).key.server_ip);
  for (const bool fine : {false, true})
    expect_same(oracle::content_discovery(db, some_servers, 10, fine),
                content_discovery(db, some_servers, 10, fine));
  for (const std::size_t top_k : {0, 20})
    for (const std::size_t min_shared : {1, 2, 3})
      expect_same(oracle::tangle_graph(db, top_k, min_shared),
                  tangle_graph(db, top_k, min_shared));
}

TEST(QueryOracle, MatchesOnGeneratedTraffic) {
  for (const auto& make :
       {trafficgen::profile_eu1_adsl2, trafficgen::profile_us_3g}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      auto profile = make();
      profile.name = "oracle";
      profile.duration = Duration::minutes(60);
      profile.n_clients = 200;
      profile.world.tail_organizations = 120;
      profile.seed = profile.seed * 1'000'003ULL + seed;
      SCOPED_TRACE(profile.name + " seed " + std::to_string(seed));
      trafficgen::Simulator sim{profile};
      const auto trace = sim.run_events();
      ASSERT_GT(trace.db.size(), 100u);
      expect_queries_match(trace.db, sim.world().org_db());
    }
  }
}

TEST(QueryOracle, EmptyDatabase) {
  const FlowDatabase db;
  expect_queries_match(db, test_orgs());
  EXPECT_TRUE(content_discovery_by_provider(db, test_orgs(), "unknown")
                  .domains.empty());
  EXPECT_EQ(tangle_graph(db).organizations, 0u);
}

TEST(QueryOracle, OnlyUnlabeledFlows) {
  FlowDatabase db;
  db.add(flow("", kC1, kAmazon1, 6881));
  db.add(flow("", kC2, kAkamai1, 6882));
  db.add(flow("", kC2, Ipv4Address{192, 0, 2, 1}, 80));
  expect_queries_match(db, test_orgs());
  EXPECT_EQ(content_discovery_by_provider(db, test_orgs(), "unknown")
                .total_flows,
            0u);
}

TEST(QueryOracle, TiesBreakByNameNotByInsertionOrder) {
  // Interned (DomainId) order is the reverse of name order, and every
  // count ties, so only a by-name tie-break gives the oracle's rows.
  FlowDatabase db;
  const Ipv4Address unknown_server{192, 0, 2, 9};
  for (const auto* name : {"z.zeta.com", "y.eta.com", "b.beta.com",
                           "a.alpha.com", "a.beta.com", "x.eta.com"}) {
    for (const auto server : {kAmazon1, kAkamai2, unknown_server}) {
      db.add(flow(name, kC1, server, 443));
      db.add(flow(name, kC2, server, 80));
    }
  }
  db.add(flow("", kC1, kAmazon1, 443));
  expect_queries_match(db, test_orgs());
  const auto report =
      content_discovery_by_provider(db, test_orgs(), "unknown", 2, true);
  ASSERT_EQ(report.domains.size(), 2u);
  EXPECT_EQ(report.domains[0].name, "a.alpha.com");
  EXPECT_EQ(report.domains[1].name, "a.beta.com");
}

}  // namespace
}  // namespace dnh::analytics
