#include "analytics/dga.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <unordered_set>

#include "dns/domain.hpp"
#include "util/strings.hpp"

namespace dnh::analytics {
namespace {

/// Frequent English / web-name bigrams; natural names are dominated by
/// these, uniform-random strings hit them rarely.
const std::unordered_set<std::string>& common_bigrams() {
  static const std::unordered_set<std::string> bigrams{
      "th", "he", "in", "er", "an", "re", "nd", "on", "en", "at", "ou",
      "ed", "ha", "to", "or", "it", "is", "hi", "es", "ng", "st", "ar",
      "te", "se", "me", "of", "le", "ve", "co", "ne", "de", "ea", "ro",
      "ti", "ri", "io", "ic", "ll", "be", "ma", "el", "ch", "la", "ta",
      "nt", "al", "ce", "om", "il", "ur", "ra", "li", "as", "ca", "et",
      "ho", "ge", "ac", "ut", "us", "si", "ol", "ss", "ad", "ni", "un",
      "lo", "wa", "am", "em", "pl", "mo", "sh", "sa", "no", "ot", "ee",
      "tr", "id", "pe", "we", "oo", "ok", "bo", "ap", "ay", "po", "do",
      "go", "so", "na", "ck", "ai", "ir", "sp", "ki", "vi", "di", "da",
      "ly", "ble", "fa", "ga", "pa", "up", "ke", "ie", "ew", "ow", "ws",
      "tt", "ff", "ub", "su", "im", "um", "ep", "ex", "ty", "gl", "cl",
  };
  return bigrams;
}

bool is_vowel(char c) {
  return c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u' ||
         c == 'y';
}

}  // namespace

double name_randomness(std::string_view fqdn) {
  // Score the organization label: DGAs mint random 2LDs.
  const std::string_view sld = dns::second_level_domain(fqdn);
  std::string label{sld.substr(0, sld.find('.'))};
  for (char& c : label)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (label.size() < 4) return 0.0;  // too short to judge

  std::size_t letters = 0, digits = 0, bigram_total = 0, bigram_hits = 0;
  std::size_t consonant_run = 0, max_consonant_run = 0;
  char previous = 0;
  for (const char c : label) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      ++digits;
      consonant_run = 0;
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      ++letters;
      if (is_vowel(c)) {
        consonant_run = 0;
      } else {
        ++consonant_run;
        max_consonant_run = std::max(max_consonant_run, consonant_run);
      }
      if (previous != 0) {
        ++bigram_total;
        if (common_bigrams().count(std::string{previous, c}))
          ++bigram_hits;
      }
      previous = c;
      continue;
    }
    previous = 0;
  }
  if (letters + digits == 0) return 0.0;

  const double bigram_miss =
      bigram_total == 0 ? 0.5
                        : 1.0 - static_cast<double>(bigram_hits) /
                                    static_cast<double>(bigram_total);
  const double run_penalty =
      std::min(1.0, max_consonant_run > 3
                        ? (static_cast<double>(max_consonant_run) - 3.0) / 3.0
                        : 0.0);
  const double digit_fraction =
      static_cast<double>(digits) / static_cast<double>(letters + digits);

  // Natural names land around 0.1-0.35 on the blended scale; random
  // strings around 0.55-0.95.
  const double score =
      0.6 * bigram_miss + 0.25 * run_penalty + 0.3 * digit_fraction;
  return std::clamp(score, 0.0, 1.0);
}

std::vector<DgaSuspect> detect_dga_clients(
    const std::vector<core::DnsEvent>& dns_log, const DgaConfig& config) {
  struct Acc {
    std::uint64_t queries = 0;
    std::uint64_t nxdomains = 0;
    double randomness_sum = 0.0;
    std::set<std::string> slds;
    std::vector<std::pair<double, std::string>> scored_failures;
  };
  std::map<net::Ipv4Address, Acc> clients;

  for (const auto& event : dns_log) {
    Acc& acc = clients[event.client];
    ++acc.queries;
    const double randomness = name_randomness(event.fqdn);
    acc.randomness_sum += randomness;
    acc.slds.insert(std::string{dns::second_level_domain(event.fqdn)});
    if (event.servers.empty()) {
      ++acc.nxdomains;
      acc.scored_failures.emplace_back(randomness, event.fqdn);
    }
  }

  std::vector<DgaSuspect> suspects;
  for (auto& [client, acc] : clients) {
    if (acc.queries < config.min_queries) continue;
    const double nxdomain_ratio =
        static_cast<double>(acc.nxdomains) /
        static_cast<double>(acc.queries);
    const double mean_randomness =
        acc.randomness_sum / static_cast<double>(acc.queries);
    if (nxdomain_ratio < config.nxdomain_threshold ||
        mean_randomness < config.randomness_threshold)
      continue;

    DgaSuspect suspect{client, acc.queries, acc.nxdomains, nxdomain_ratio,
                       mean_randomness, acc.slds.size(), {}};
    std::sort(acc.scored_failures.rbegin(), acc.scored_failures.rend());
    for (std::size_t i = 0;
         i < std::min<std::size_t>(acc.scored_failures.size(), 5); ++i)
      suspect.sample_names.push_back(acc.scored_failures[i].second);
    suspects.push_back(std::move(suspect));
  }
  std::sort(suspects.begin(), suspects.end(),
            [](const DgaSuspect& a, const DgaSuspect& b) {
              return a.nxdomains > b.nxdomains;
            });
  return suspects;
}

}  // namespace dnh::analytics
