#include "analytics/content.hpp"

#include <algorithm>
#include <map>

namespace dnh::analytics {
namespace {

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

}  // namespace

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
  // Collect every distinct server seen in the database that the org
  // database attributes to the provider, then aggregate its flows.
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

}  // namespace dnh::analytics
