// Automatic Service Tag Extraction (paper Sec. 4.3, Algorithm 4;
// evaluated in Tables 6-7): ranks the FQDN tokens seen on a layer-4 port,
// scoring token X as  score(X) = sum_c log(N_X(c) + 1)  over clients c to
// damp heavy single-client repetition.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/flowdb.hpp"

namespace dnh::analytics {

struct ServiceTag {
  std::string token;
  double score = 0.0;
};

struct TagExtractionOptions {
  std::size_t top_k = 10;
  /// Ablation: score by raw flow count instead of the paper's log score.
  bool raw_counts = false;
};

/// TAG_EXTRACTION(dPort, k): ranked tags for flows to `port`.
std::vector<ServiceTag> extract_service_tags(
    const core::FlowDatabase& db, std::uint16_t port,
    const TagExtractionOptions& options = {});

/// Same scoring restricted to an arbitrary flow subset (used for the
/// appspot word cloud, Fig. 10 — tokens of one 2LD's FQDNs).
std::vector<ServiceTag> extract_tags_for_flows(
    const core::FlowDatabase& db,
    std::span<const core::FlowDatabase::FlowIndex> flows,
    const TagExtractionOptions& options = {});

}  // namespace dnh::analytics
