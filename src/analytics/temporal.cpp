#include "analytics/temporal.hpp"

#include <algorithm>
#include <unordered_set>

#include "analytics/content.hpp"

namespace dnh::analytics {
namespace {

std::size_t bin_count(util::Timestamp start, util::Timestamp end,
                      util::Duration bin) {
  const auto span = end - start;
  const auto n = span.total_micros() / bin.total_micros();
  return static_cast<std::size_t>(std::max<std::int64_t>(n, 1));
}

/// Distinct key(flow) per time bin over the labeled flows of `lists`.
template <typename Key>
util::TimeBinSeries distinct_per_bin(
    const core::FlowDatabase& db,
    const std::vector<std::span<const core::FlowDatabase::FlowIndex>>& lists,
    util::Timestamp start, util::Timestamp end, util::Duration bin, Key key) {
  const std::size_t bins = bin_count(start, end, bin);
  std::vector<std::unordered_set<std::uint32_t>> sets(bins);
  util::TimeBinSeries series{start.seconds_since_epoch(),
                             bin.total_micros() / 1'000'000, bins};
  for (const auto list : lists) {
    for (const auto index : list) {
      const auto& flow = db.flows()[index];
      const auto t = flow.first_packet.seconds_since_epoch();
      if (flow.labeled() && series.in_range(t))
        sets[series.bin_of(t)].insert(key(flow));
    }
  }
  for (std::size_t b = 0; b < bins; ++b)
    series.add(series.bin_start_seconds(b),
               static_cast<double>(sets[b].size()));
  return series;
}

}  // namespace

util::TimeBinSeries distinct_servers_timeline(
    const core::FlowDatabase& db, const std::string& sld,
    util::Timestamp start, util::Timestamp end, util::Duration bin) {
  return distinct_per_bin(db, {db.by_second_level(sld)}, start, end, bin,
                          [](const core::TaggedFlow& flow) {
                            return flow.key.server_ip.value();
                          });
}

util::TimeBinSeries distinct_fqdns_timeline(
    const core::FlowDatabase& db, const orgdb::OrgDb& orgs,
    const std::string& provider, util::Timestamp start, util::Timestamp end,
    util::Duration bin) {
  return distinct_per_bin(
      db, provider_flows(db, orgs, provider), start, end, bin,
      [](const core::TaggedFlow& flow) { return flow.fqdn_id; });
}

std::size_t distinct_fqdns_total(const core::FlowDatabase& db,
                                 const orgdb::OrgDb& orgs,
                                 const std::string& provider) {
  return content_discovery_by_provider(db, orgs, provider, 1).distinct_fqdns;
}

BirthProcess birth_process(const core::FlowDatabase& db,
                           util::Timestamp start, util::Timestamp end,
                           util::Duration bin) {
  BirthProcess out;
  const std::size_t bins = bin_count(start, end, bin);
  const std::int64_t bin_s = bin.total_micros() / 1'000'000;
  const std::int64_t start_s = start.seconds_since_epoch();

  // Flows are insertion-ordered but not necessarily time-sorted: sort
  // indices by first packet.
  std::vector<core::FlowDatabase::FlowIndex> order(db.size());
  for (std::uint32_t i = 0; i < db.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return db.flow(a).first_packet < db.flow(b).first_packet;
            });

  std::unordered_set<core::DomainId> fqdns;
  std::unordered_set<std::uint32_t> slds;  // ranks
  std::unordered_set<std::uint32_t> servers;
  std::size_t next = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    const std::int64_t bin_end = start_s + static_cast<std::int64_t>(b + 1) * bin_s;
    while (next < order.size() &&
           db.flow(order[next]).first_packet.seconds_since_epoch() <
               bin_end) {
      // Labeled flows only: the paper tracks entities in the labeled-flow
      // database (unlabeled P2P peers would make serverIPs grow forever).
      const auto& flow = db.flow(order[next]);
      if (flow.labeled()) {
        fqdns.insert(flow.fqdn_id);
        slds.insert(db.sld_rank(order[next]));
        servers.insert(flow.key.server_ip.value());
      }
      ++next;
    }
    out.bin_start_seconds.push_back(start_s +
                                    static_cast<std::int64_t>(b) * bin_s);
    out.unique_fqdns.push_back(fqdns.size());
    out.unique_slds.push_back(slds.size());
    out.unique_servers.push_back(servers.size());
  }
  return out;
}

TrackerTimeline tracker_timeline(const core::FlowDatabase& db,
                                 const std::vector<std::string>& trackers,
                                 util::Timestamp start, util::Timestamp end,
                                 util::Duration bin) {
  TrackerTimeline out;
  const std::size_t bins = bin_count(start, end, bin);
  const std::int64_t bin_s = bin.total_micros() / 1'000'000;
  const std::int64_t start_s = start.seconds_since_epoch();
  for (std::size_t b = 0; b < bins; ++b)
    out.bin_start_seconds.push_back(start_s +
                                    static_cast<std::int64_t>(b) * bin_s);

  struct Row {
    std::string fqdn;
    std::vector<bool> active;
    std::int64_t first_bin = -1;
  };
  std::vector<Row> rows;
  for (const auto& fqdn : trackers) {
    Row row{fqdn, std::vector<bool>(bins)};
    for (const auto index : db.by_fqdn(fqdn)) {
      const auto t = db.flow(index).first_packet.seconds_since_epoch();
      const auto b = (t - start_s) / bin_s;
      if (b < 0 || static_cast<std::size_t>(b) >= bins) continue;
      row.active[static_cast<std::size_t>(b)] = true;
      if (row.first_bin < 0 || b < row.first_bin) row.first_bin = b;
    }
    if (row.first_bin >= 0) rows.push_back(std::move(row));
  }
  // Ids assigned by first observation time, as in Fig. 11.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.first_bin < b.first_bin;
                   });
  for (auto& row : rows) {
    out.fqdns.push_back(std::move(row.fqdn));
    out.active.push_back(std::move(row.active));
  }
  return out;
}

util::TimeBinSeries dns_response_rate(
    const std::vector<core::DnsEvent>& dns_log, util::Timestamp start,
    util::Timestamp end, util::Duration bin) {
  util::TimeBinSeries series{start.seconds_since_epoch(),
                             bin.total_micros() / 1'000'000,
                             bin_count(start, end, bin)};
  for (const auto& event : dns_log)
    series.add(event.time.seconds_since_epoch());
  return series;
}

}  // namespace dnh::analytics
