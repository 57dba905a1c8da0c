#include "analytics/dimensioning.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>

#include "core/resolver.hpp"
#include "dns/domain.hpp"

namespace dnh::analytics {
namespace {

/// Time-ordered merge of DNS inserts and flow-start lookups.
struct Step {
  std::int64_t t_micros = 0;
  bool is_flow = false;
  std::uint32_t index = 0;  ///< into dns_log or db.flows()
};

std::vector<Step> merged_timeline(
    const std::vector<core::DnsEvent>& dns_log,
    const core::FlowDatabase& db) {
  std::vector<Step> steps;
  steps.reserve(dns_log.size() + db.size());
  for (std::uint32_t i = 0; i < dns_log.size(); ++i)
    steps.push_back({dns_log[i].time.micros_since_epoch(), false, i});
  for (std::uint32_t i = 0; i < db.size(); ++i)
    steps.push_back(
        {db.flow(i).first_packet.micros_since_epoch(), true, i});
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) {
                     if (a.t_micros != b.t_micros)
                       return a.t_micros < b.t_micros;
                     // DNS inserts win ties so a same-instant flow can hit.
                     return a.is_flow < b.is_flow;
                   });
  return steps;
}

}  // namespace

std::vector<DimensioningPoint> clist_efficiency_sweep(
    const std::vector<core::DnsEvent>& dns_log, const core::FlowDatabase& db,
    const std::vector<std::size_t>& sizes) {
  const auto steps = merged_timeline(dns_log, db);

  // Replays the timeline through a Clist of `size`, handing each flow
  // start's lookup outcome to on_flow(flow index, hit).
  const auto replay = [&](std::size_t size, auto on_flow) {
    core::DnsResolver resolver{size};
    for (const auto& step : steps) {
      if (step.is_flow) {
        const auto& key = db.flow(step.index).key;
        on_flow(step.index, resolver.lookup(key.client_ip, key.server_ip)
                                .has_value());
      } else {
        const auto& event = dns_log[step.index];
        resolver.insert(event.client, event.fqdn, std::span{event.servers},
                        event.time);
      }
    }
  };
  // Reference pass: which flows CAN be labeled with an unbounded Clist.
  std::vector<bool> resolvable(db.size(), false);
  replay(dns_log.size() + 1,
         [&](std::uint32_t flow, bool hit) { resolvable[flow] = hit; });

  std::vector<DimensioningPoint> out;
  for (const auto size : sizes) {
    DimensioningPoint point;
    point.clist_size = size;
    replay(size, [&](std::uint32_t flow, bool hit) {
      point.lookups += resolvable[flow];
      point.hits += resolvable[flow] && hit;
    });
    point.efficiency = point.lookups
                           ? static_cast<double>(point.hits) /
                                 static_cast<double>(point.lookups)
                           : 0.0;
    out.push_back(point);
  }
  return out;
}

std::vector<std::uint64_t> answers_per_response(
    const std::vector<core::DnsEvent>& dns_log, std::size_t max_bucket) {
  std::vector<std::uint64_t> histogram(max_bucket + 1, 0);
  for (const auto& event : dns_log) {
    const std::size_t n = std::min(event.servers.size(), max_bucket);
    ++histogram[n];
  }
  return histogram;
}

ConfusionReport confusion_analysis(
    const std::vector<core::DnsEvent>& dns_log,
    const core::FlowDatabase& db) {
  ConfusionReport report;
  // (client, server) -> current FQDN, replayed in time order.
  std::unordered_map<std::uint64_t, std::string> binding;
  for (const auto& event : dns_log) {
    for (const auto server : event.servers) {
      const std::uint64_t key =
          (std::uint64_t{event.client.value()} << 32) | server.value();
      auto [it, inserted] = binding.try_emplace(key, event.fqdn);
      if (inserted) continue;
      ++report.replacements;
      if (it->second != event.fqdn) {
        ++report.different_fqdn;
        if (dns::second_level_domain(it->second) !=
            dns::second_level_domain(event.fqdn))
          ++report.different_organization;
      }
      it->second = event.fqdn;
    }
  }
  for (const auto& flow : db.flows())
    if (flow.labeled()) ++report.lookups;
  return report;
}

}  // namespace dnh::analytics
