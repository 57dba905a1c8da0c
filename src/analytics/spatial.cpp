#include "analytics/spatial.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "dns/domain.hpp"

namespace dnh::analytics {
namespace {

/// The distinct servers of `flows`, ascending, with their flow counts and
/// hosting orgs. `counts` has a slot per server rank, zero before and after.
std::vector<RankedServer> count_servers(
    const core::FlowDatabase& db, const orgdb::OrgDb& orgs,
    std::span<const core::FlowDatabase::FlowIndex> flows,
    std::vector<std::uint64_t>& counts) {
  std::vector<std::uint32_t> ranks;  // counted at least once
  for (const auto index : flows) {
    const std::uint32_t rank = db.server_rank(index);
    if (counts[rank]++ == 0) ranks.push_back(rank);
  }
  std::sort(ranks.begin(), ranks.end());
  std::vector<RankedServer> out;
  for (const auto rank : ranks) {
    const net::Ipv4Address server = db.servers()[rank];
    out.push_back({server, std::exchange(counts[rank], 0),
                   std::string{orgs.lookup(server).value_or("unknown")}});
  }
  return out;
}

}  // namespace

SpatialReport spatial_discovery(const core::FlowDatabase& db,
                                const orgdb::OrgDb& orgs,
                                const std::string& fqdn) {
  SpatialReport report;
  report.fqdn = fqdn;
  report.second_level = std::string{dns::second_level_domain(fqdn)};
  std::vector<std::uint64_t> counts(db.servers().size());
  const auto rank = [&](std::span<const core::FlowDatabase::FlowIndex> flows) {
    auto out = count_servers(db, orgs, flows, counts);
    std::sort(out.begin(), out.end(),
              [](const RankedServer& a, const RankedServer& b) {
                if (a.flows != b.flows) return a.flows > b.flows;
                return a.server < b.server;
              });
    return out;
  };
  report.fqdn_servers = rank(db.by_fqdn(fqdn));
  report.organization_servers = rank(db.by_second_level(report.second_level));
  return report;
}

std::vector<HostingSummary> hosting_breakdown(const core::FlowDatabase& db,
                                              const orgdb::OrgDb& orgs,
                                              const std::string& sld) {
  const auto flows = db.by_second_level(sld);
  std::vector<std::uint64_t> counts(db.servers().size());
  std::map<std::string, HostingSummary> hosts;  // by org name
  for (const auto& server : count_servers(db, orgs, flows, counts)) {
    auto& host = hosts[server.organization];
    ++host.servers;
    host.flows += server.flows;
  }
  std::vector<HostingSummary> out;
  for (const auto& [name, host] : hosts)
    out.push_back({name, host.servers, host.flows,
                   static_cast<double>(host.flows) /
                       static_cast<double>(flows.size())});
  std::sort(out.begin(), out.end(),
            [](const HostingSummary& a, const HostingSummary& b) {
              return a.flows > b.flows;
            });
  return out;
}

}  // namespace dnh::analytics
