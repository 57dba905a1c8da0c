#include "analytics/cdn_tracking.hpp"

#include <algorithm>
#include <set>

namespace dnh::analytics {

std::string HostingBin::dominant() const {
  std::string best;
  std::uint64_t best_count = 0;
  for (const auto& [host, count] : hosts) {
    if (count > best_count) {
      best = host;
      best_count = count;
    }
  }
  return best;
}

CdnTrackingReport track_hosting(const core::FlowDatabase& db,
                                const orgdb::OrgDb& orgs,
                                const std::string& sld,
                                util::Timestamp start, util::Timestamp end,
                                util::Duration bin) {
  CdnTrackingReport report;
  report.sld = sld;

  const std::int64_t start_s = start.seconds_since_epoch();
  const std::int64_t bin_s =
      std::max<std::int64_t>(bin.total_micros() / 1'000'000, 1);
  const std::int64_t span_s = end.seconds_since_epoch() - start_s;
  const std::size_t n_bins =
      static_cast<std::size_t>(std::max<std::int64_t>(span_s / bin_s, 1));

  report.bins.resize(n_bins);
  for (std::size_t b = 0; b < n_bins; ++b)
    report.bins[b].start_seconds = start_s + static_cast<std::int64_t>(b) * bin_s;

  std::set<std::string> hosts;
  for (const auto index : db.by_second_level(sld)) {
    const auto& flow = db.flow(index);
    const std::int64_t t = flow.first_packet.seconds_since_epoch();
    const std::int64_t b = (t - start_s) / bin_s;
    if (b < 0 || static_cast<std::size_t>(b) >= n_bins) continue;
    // Addresses outside the org database are identified by /16 prefix so
    // churn is still visible without whois data.
    const auto org = orgs.lookup(flow.key.server_ip);
    const std::string host =
        org ? std::string{*org}
            : net::cidr(flow.key.server_ip, 16).first.to_string() + "/16";
    HostingBin& hosting_bin = report.bins[static_cast<std::size_t>(b)];
    ++hosting_bin.flows;
    ++hosting_bin.hosts[host];
    hosts.insert(host);
  }
  report.hosts_seen.assign(hosts.begin(), hosts.end());

  std::string previous;
  for (const auto& hosting_bin : report.bins) {
    const std::string current = hosting_bin.dominant();
    if (current.empty()) continue;  // empty bins don't break a streak
    if (!previous.empty() && current != previous)
      report.switches.push_back(
          {hosting_bin.start_seconds, previous, current});
    previous = current;
  }
  return report;
}

}  // namespace dnh::analytics
