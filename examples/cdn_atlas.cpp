// CDN atlas: the off-line analyzer's spatial and content discovery on one
// trace — "who serves zynga.com?" (Algorithm 2 + Figs. 7-8) and "what does
// Amazon host here?" (Algorithm 3 + Table 5), from nothing but passively
// tagged flows and a whois join.
//
// Run: ./build/examples/cdn_atlas [2LD] [provider]
#include <cstdio>

#include "analytics/content.hpp"
#include "analytics/domain_tree.hpp"
#include "analytics/spatial.hpp"
#include "core/sniffer.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dnh;
  const std::string sld = argc > 1 ? argv[1] : "zynga.com";
  const std::string provider = argc > 2 ? argv[2] : "amazon";

  auto profile = trafficgen::profile_us_3g();
  trafficgen::Simulator sim{profile};
  const std::string pcap = "/tmp/dnh_atlas.pcap";
  std::printf("generating trace ...\n");
  sim.write_pcap(pcap);

  core::Sniffer sniffer;
  sniffer.process_pcap(pcap);
  sniffer.finish();
  const auto& db = sniffer.database();
  const auto& orgs = sim.world().org_db();

  // ---- spatial discovery: the organization's hosting structure.
  std::printf("\n=== spatial discovery: %s ===\n", sld.c_str());
  const auto tree = analytics::build_domain_tree(db, orgs, sld);
  std::printf("%s", analytics::render_domain_tree(tree).c_str());

  // Top servers for the busiest FQDN of that organization.
  const auto indices = db.by_second_level(sld);
  if (!indices.empty()) {
    const std::string fqdn{db.flow(indices.front()).fqdn};
    const auto report = analytics::spatial_discovery(db, orgs, fqdn);
    std::printf("\nservers delivering %s:\n", fqdn.c_str());
    for (const auto& server : report.fqdn_servers) {
      std::printf("  %-16s %-12s %llu flows\n",
                  server.server.to_string().c_str(),
                  server.organization.c_str(),
                  static_cast<unsigned long long>(server.flows));
    }
  }

  // ---- content discovery: everything the provider hosts here.
  std::printf("\n=== content discovery: %s ===\n", provider.c_str());
  const auto content =
      analytics::content_discovery_by_provider(db, orgs, provider, 12);
  std::printf("%s serves %s labeled flows across %zu FQDNs; top domains:\n",
              provider.c_str(),
              util::with_commas(content.total_flows).c_str(),
              content.distinct_fqdns);
  for (const auto& domain : content.domains) {
    std::printf("  %-24s %6s  %s\n", domain.name.c_str(),
                util::percent(domain.flow_share, 1).c_str(),
                util::hbar(domain.flow_share, 0.3, 30).c_str());
  }
  return 0;
}
