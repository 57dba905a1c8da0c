#include "analytics/service_tags.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "analytics/tokenizer.hpp"

namespace dnh::analytics {
namespace {

std::vector<ServiceTag> rank(
    const std::map<std::string,
                   std::unordered_map<std::uint32_t, std::uint64_t>>&
        per_token_client_counts,
    const TagExtractionOptions& options) {
  std::vector<ServiceTag> tags;
  tags.reserve(per_token_client_counts.size());
  for (const auto& [token, clients] : per_token_client_counts) {
    double score = 0.0;
    for (const auto& [client, count] : clients) {
      score += options.raw_counts
                   ? static_cast<double>(count)
                   : std::log(static_cast<double>(count) + 1.0);
    }
    tags.push_back({token, score});
  }
  std::sort(tags.begin(), tags.end(),
            [](const ServiceTag& a, const ServiceTag& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.token < b.token;
            });
  if (options.top_k > 0 && tags.size() > options.top_k)
    tags.resize(options.top_k);
  return tags;
}

}  // namespace

std::vector<ServiceTag> extract_tags_for_flows(
    const core::FlowDatabase& db,
    std::span<const core::FlowDatabase::FlowIndex> flows,
    const TagExtractionOptions& options) {
  // token -> clientIP -> N_X(c)
  std::map<std::string, std::unordered_map<std::uint32_t, std::uint64_t>>
      counts;
  for (const auto index : flows) {
    const auto& flow = db.flow(index);
    if (!flow.labeled()) continue;
    for (const auto& token : fqdn_tokens(flow.fqdn))
      ++counts[token][flow.key.client_ip.value()];
  }
  return rank(counts, options);
}

std::vector<ServiceTag> extract_service_tags(
    const core::FlowDatabase& db, std::uint16_t port,
    const TagExtractionOptions& options) {
  return extract_tags_for_flows(db, db.by_server_port(port), options);
}

}  // namespace dnh::analytics
