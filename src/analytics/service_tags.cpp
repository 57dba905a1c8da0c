#include "analytics/service_tags.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "analytics/tokenizer.hpp"
#include "util/flat_hash.hpp"

namespace dnh::analytics {

std::vector<ServiceTag> extract_tags_for_flows(
    const core::FlowDatabase& db,
    std::span<const core::FlowDatabase::FlowIndex> flows,
    const TagExtractionOptions& options) {
  // Tokens get dense ids per call; each distinct FQDN is tokenized once.
  std::vector<std::string> tokens;  // token id -> text
  util::FlatHash<std::string, std::uint32_t> token_ids;
  util::FlatHash<core::DomainId, std::vector<std::uint32_t>> tokens_of;
  // token id -> clientIP -> N_X(c). Each map sees its clients in flow
  // order, so it iterates, and the score sums, in the order it always has.
  std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> counts;
  for (const auto index : flows) {
    const auto& flow = db.flows()[index];
    if (!flow.labeled()) continue;
    auto [ids, fresh] = tokens_of.try_emplace(flow.fqdn_id);
    if (fresh)
      for (auto& token : fqdn_tokens(flow.fqdn)) {
        const auto [id, added] = token_ids.try_emplace(
            token, static_cast<std::uint32_t>(tokens.size()));
        if (added) tokens.push_back(std::move(token));
        ids->second.push_back(id->second);
      }
    counts.resize(tokens.size());
    for (const auto id : ids->second)
      ++counts[id][flow.key.client_ip.value()];
  }

  std::vector<std::pair<double, std::uint32_t>> scored;  // (score, token id)
  for (std::uint32_t id = 0; id < tokens.size(); ++id) {
    double score = 0.0;
    for (const auto& [client, count] : counts[id])
      score += options.raw_counts
                   ? static_cast<double>(count)
                   : std::log(static_cast<double>(count) + 1.0);
    scored.emplace_back(score, id);
  }
  const std::size_t k = options.top_k ? std::min(options.top_k, scored.size())
                                      : scored.size();
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [&tokens](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return tokens[a.second] < tokens[b.second];
                    });
  std::vector<ServiceTag> tags;
  for (std::size_t i = 0; i < k; ++i)
    tags.push_back({std::move(tokens[scored[i].second]), scored[i].first});
  return tags;
}

std::vector<ServiceTag> extract_service_tags(
    const core::FlowDatabase& db, std::uint16_t port,
    const TagExtractionOptions& options) {
  return extract_tags_for_flows(db, db.by_server_port(port), options);
}

}  // namespace dnh::analytics
