#include "analytics/spatial.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "dns/domain.hpp"

namespace dnh::analytics {
namespace {

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

}  // namespace

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

}  // namespace dnh::analytics
