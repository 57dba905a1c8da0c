// Content Discovery (paper Sec. 4.2, Algorithm 3): what a CDN or cloud
// provider hosts — the inverse of spatial discovery. Backs Table 5 (top
// domains on Amazon EC2) and Fig. 5's per-CDN FQDN counts.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/flowdb.hpp"
#include "net/ip.hpp"
#include "orgdb/orgdb.hpp"

namespace dnh::analytics {

struct HostedDomain {
  std::string name;          ///< 2LD (or FQDN at fine granularity)
  std::uint64_t flows = 0;
  double flow_share = 0.0;   ///< of all flows served by the provider
};

struct ContentReport {
  std::string provider;
  std::uint64_t total_flows = 0;
  std::size_t distinct_fqdns = 0;
  std::vector<HostedDomain> domains;  ///< ranked by flows
};

/// CONTENT_DISCOVERY over an explicit server set.
ContentReport content_discovery(const core::FlowDatabase& db,
                                const std::set<net::Ipv4Address>& servers,
                                std::size_t top_k = 10,
                                bool fqdn_granularity = false);

/// The flows of each distinct server `orgs` attributes to `provider`.
std::vector<std::span<const core::FlowDatabase::FlowIndex>> provider_flows(
    const core::FlowDatabase& db, const orgdb::OrgDb& orgs,
    std::string_view provider);

/// CONTENT_DISCOVERY for every server the org database attributes to
/// `provider` ("amazon", "akamai", ...).
ContentReport content_discovery_by_provider(const core::FlowDatabase& db,
                                            const orgdb::OrgDb& orgs,
                                            const std::string& provider,
                                            std::size_t top_k = 10,
                                            bool fqdn_granularity = false);

}  // namespace dnh::analytics
