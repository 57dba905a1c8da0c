#include "analytics/tangle.hpp"

#include <algorithm>

#include "util/flat_hash.hpp"

namespace dnh::analytics {

TangleReport tangle_graph(const core::FlowDatabase& db, std::size_t top_k,
                          std::size_t min_shared) {
  // Organizations are SLD ranks; a pair (a < b) is the key a << 32 | b.
  TangleReport report;
  report.organizations = db.sld_count();
  std::vector<std::uint32_t> servers_of_org(db.sld_count());
  std::vector<bool> entangled(db.sld_count());
  util::FlatHash<std::uint64_t, std::uint32_t> shared;
  std::vector<std::uint32_t> orgs;  // on one server, ascending and distinct
  for (std::size_t k = 0; k < db.servers().size(); ++k) {
    orgs.clear();
    for (const auto index : db.server_flows(k)) {
      const std::uint32_t rank = db.sld_rank(index);
      if (rank != core::FlowDatabase::kNoSld) orgs.push_back(rank);
    }
    std::sort(orgs.begin(), orgs.end());
    orgs.erase(std::unique(orgs.begin(), orgs.end()), orgs.end());
    for (const auto org : orgs) ++servers_of_org[org];
    if (orgs.size() < 2) continue;
    ++report.multi_tenant_servers;
    for (auto a = orgs.begin(); a != orgs.end(); ++a) {
      if (!entangled[*a]) ++report.entangled_orgs;
      entangled[*a] = true;
      for (auto b = std::next(a); b != orgs.end(); ++b)
        ++shared[std::uint64_t{*a} << 32 | *b];
    }
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> edges;
  for (const auto& [pair, count] : shared)
    if (count >= min_shared) edges.emplace_back(pair, count);
  // Most shared servers first; rank pairs order like the name pairs.
  const std::size_t k = top_k ? std::min(top_k, edges.size()) : edges.size();
  std::partial_sort(edges.begin(), edges.begin() + k, edges.end(),
                    [](const auto& x, const auto& y) {
                      if (x.second != y.second) return x.second > y.second;
                      return x.first < y.first;
                    });
  report.pairs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto a = static_cast<std::uint32_t>(edges[i].first >> 32);
    const auto b = static_cast<std::uint32_t>(edges[i].first);
    report.pairs.push_back({std::string{db.sld_name(a)},
                            std::string{db.sld_name(b)}, edges[i].second,
                            servers_of_org[a], servers_of_org[b]});
  }
  return report;
}

}  // namespace dnh::analytics
