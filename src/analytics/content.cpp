#include "analytics/content.hpp"

#include <algorithm>

namespace dnh::analytics {
namespace {

using FlowSpan = std::span<const core::FlowDatabase::FlowIndex>;

/// Counts the labeled flows of `lists` into flat vectors indexed by SLD
/// rank (DomainId at FQDN granularity); names are made for the top_k only.
ContentReport build_report(const core::FlowDatabase& db,
                           const std::vector<FlowSpan>& lists,
                           std::string provider, std::size_t top_k,
                           bool fqdn_granularity) {
  ContentReport report{std::move(provider), 0, 0, {}};
  const core::DomainTable& table = *db.domain_table();
  std::vector<std::uint64_t> counts(fqdn_granularity ? table.size()
                                                     : db.sld_count());
  std::vector<bool> seen(table.size());  // per DomainId
  std::vector<std::uint32_t> keys;       // the keys counted at least once
  for (const auto list : lists) {
    for (const auto index : list) {
      const std::uint32_t rank = db.sld_rank(index);
      if (rank == core::FlowDatabase::kNoSld) continue;
      ++report.total_flows;
      const core::DomainId id = db.flows()[index].fqdn_id;
      report.distinct_fqdns += !seen[id];
      seen[id] = true;
      const std::uint32_t key = fqdn_granularity ? id : rank;
      if (counts[key]++ == 0) keys.push_back(key);
    }
  }
  const auto name = [&](std::uint32_t key) {
    return fqdn_granularity ? table.view(key) : db.sld_name(key);
  };
  // Most flows first; ranks order like their names, so only DomainIds
  // need the text to break a tie.
  const std::size_t k = top_k ? std::min(top_k, keys.size()) : keys.size();
  std::partial_sort(keys.begin(), keys.begin() + k, keys.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return fqdn_granularity ? name(a) < name(b) : a < b;
                    });
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t flows = counts[keys[i]];
    report.domains.push_back(
        {std::string{name(keys[i])}, flows,
         static_cast<double>(flows) / static_cast<double>(report.total_flows)});
  }
  return report;
}

}  // namespace

ContentReport content_discovery(const core::FlowDatabase& db,
                                const std::set<net::Ipv4Address>& servers,
                                std::size_t top_k, bool fqdn_granularity) {
  std::vector<FlowSpan> lists;
  lists.reserve(servers.size());
  for (const auto server : servers) lists.push_back(db.by_server(server));
  return build_report(db, lists, "custom-set", top_k, fqdn_granularity);
}

std::vector<FlowSpan> provider_flows(const core::FlowDatabase& db,
                                     const orgdb::OrgDb& orgs,
                                     std::string_view provider) {
  std::vector<FlowSpan> lists;
  for (std::size_t k = 0; k < db.servers().size(); ++k)
    if (orgs.lookup(db.servers()[k]).value_or("unknown") == provider)
      lists.push_back(db.server_flows(k));
  return lists;
}

ContentReport content_discovery_by_provider(const core::FlowDatabase& db,
                                            const orgdb::OrgDb& orgs,
                                            const std::string& provider,
                                            std::size_t top_k,
                                            bool fqdn_granularity) {
  return build_report(db, provider_flows(db, orgs, provider), provider,
                      top_k, fqdn_granularity);
}

}  // namespace dnh::analytics
