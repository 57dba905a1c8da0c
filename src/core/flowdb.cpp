#include "core/flowdb.hpp"

#include <algorithm>

#include "dns/domain.hpp"

namespace dnh::core {

std::string_view TaggedFlow::second_level() const {
  return dns::second_level_domain(fqdn);
}

// dnh-analyze: hot
FlowDatabase::FlowIndex FlowDatabase::add(TaggedFlow flow) {
  // dnh-lint: hot
  drop_indexes();
  const FlowIndex index = static_cast<FlowIndex>(flows_.size());
  // Re-intern: after this, the flow's label lives in OUR arena regardless
  // of where the caller staged it (sniffer scratch, TSV line, another
  // shard's table).
  flow.fqdn_id = table_->intern(flow.fqdn);
  flow.fqdn = table_->view(flow.fqdn_id);
  flows_.push_back(std::move(flow));
  return index;
}

std::vector<TaggedFlow> FlowDatabase::take_flows() {
  drop_indexes();
  std::vector<TaggedFlow> out = std::move(flows_);
  flows_.clear();
  return out;
}

void FlowDatabase::drop_indexes() {
  // A mutator never races a query, so reading `built` here is safe; a
  // fresh slot re-arms the once_flag for the next query. A moved-from
  // database has no slot at all.
  if (!index_ || index_->built) index_ = std::make_unique<IndexSlot>();
}

template <typename Key>
std::span<const FlowDatabase::FlowIndex> FlowDatabase::Postings<Key>::find(
    const Key& key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  const auto k = static_cast<std::size_t>(it - keys.begin());
  return {rows.data() + offsets[k], rows.data() + offsets[k + 1]};
}

const FlowDatabase::Indexes& FlowDatabase::indexes() const {
  std::call_once(index_->once, [this] { index_->built = build_indexes(); });
  return *index_->built;
}

FlowDatabase::Indexes FlowDatabase::build_indexes() const {
  // Each index starts as (key << 32 | flow) words pushed in flow order. A
  // stable radix sort on the key half, 16 bits a pass, puts the keys in
  // ascending order and keeps flows ascending within each key. `key_of`
  // maps the key half back to the key and must preserve its order.
  std::vector<std::uint64_t> sorted;
  std::vector<FlowIndex> bucket(std::size_t{1} << 16);
  const auto split = [&](std::vector<std::uint64_t>& packed, auto& out,
                         auto key_of) {
    sorted.resize(packed.size());
    for (const int shift : {32, 48}) {
      const auto digit = [shift](std::uint64_t v) {
        return static_cast<std::size_t>(v >> shift) & 0xffff;
      };
      std::fill(bucket.begin(), bucket.end(), 0);
      for (const auto v : packed) ++bucket[digit(v)];
      // One digit value throughout: this pass would not move anything.
      if (packed.empty() || bucket[digit(packed[0])] == packed.size())
        continue;
      FlowIndex next = 0;
      for (auto& b : bucket) {
        const FlowIndex n = b;
        b = next;
        next += n;
      }
      for (const auto v : packed) sorted[bucket[digit(v)]++] = v;
      packed.swap(sorted);
    }
    out.rows.reserve(packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      const auto key = static_cast<std::uint32_t>(packed[i] >> 32);
      if (i == 0 || key != static_cast<std::uint32_t>(packed[i - 1] >> 32)) {
        out.keys.push_back(key_of(key));
        out.offsets.push_back(static_cast<FlowIndex>(i));
      }
      out.rows.push_back(static_cast<FlowIndex>(packed[i]));
    }
    out.offsets.push_back(static_cast<FlowIndex>(packed.size()));
  };
  const auto pack = [](std::uint32_t key, std::size_t flow) {
    return std::uint64_t{key} << 32 | flow;
  };

  // One pass over the (large) flow records gathers every key.
  std::vector<std::uint64_t> servers, ports, fqdns;
  std::vector<FlowIndex> labeled;
  servers.reserve(flows_.size());
  ports.reserve(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const TaggedFlow& flow = flows_[i];
    servers.push_back(pack(flow.key.server_ip.value(), i));
    ports.push_back(pack(flow.key.server_port, i));
    if (!flow.labeled()) continue;
    fqdns.push_back(pack(flow.fqdn_id, i));
    labeled.push_back(static_cast<FlowIndex>(i));
  }
  Indexes ix;
  split(servers, ix.server,
        [](std::uint32_t v) { return net::Ipv4Address{v}; });
  split(ports, ix.port,
        [](std::uint32_t v) { return static_cast<std::uint16_t>(v); });
  split(fqdns, ix.fqdn, [](std::uint32_t v) { return DomainId{v}; });

  // The SLD of each distinct FQDN, taken once from its first flow's arena
  // view; the sorted distinct SLDs then rank every labeled flow.
  std::vector<std::string_view> fqdn_sld(ix.fqdn.keys.size());
  for (std::size_t k = 0; k < fqdn_sld.size(); ++k)
    fqdn_sld[k] = flows_[ix.fqdn.rows[ix.fqdn.offsets[k]]].second_level();
  std::vector<std::string_view> slds = fqdn_sld;
  std::sort(slds.begin(), slds.end());
  slds.erase(std::unique(slds.begin(), slds.end()), slds.end());
  std::vector<std::uint32_t> flow_sld(flows_.size());
  for (std::size_t k = 0; k < fqdn_sld.size(); ++k) {
    const auto rank = static_cast<std::uint32_t>(
        std::lower_bound(slds.begin(), slds.end(), fqdn_sld[k]) -
        slds.begin());
    for (auto r = ix.fqdn.offsets[k]; r < ix.fqdn.offsets[k + 1]; ++r)
      flow_sld[ix.fqdn.rows[r]] = rank;
  }
  std::vector<std::uint64_t> ranked;
  ranked.reserve(labeled.size());
  for (const auto i : labeled) ranked.push_back(pack(flow_sld[i], i));
  split(ranked, ix.sld, [&slds](std::uint32_t rank) { return slds[rank]; });
  return ix;
}

std::span<const FlowDatabase::FlowIndex> FlowDatabase::by_second_level(
    std::string_view sld) const {
  return indexes().sld.find(sld);
}

std::span<const FlowDatabase::FlowIndex> FlowDatabase::by_fqdn(
    std::string_view fqdn) const {
  const auto id = table_->find(fqdn);
  return id ? indexes().fqdn.find(*id) : std::span<const FlowIndex>{};
}

std::span<const FlowDatabase::FlowIndex> FlowDatabase::by_server(
    net::Ipv4Address server) const {
  return indexes().server.find(server);
}

std::span<const FlowDatabase::FlowIndex> FlowDatabase::by_server_port(
    std::uint16_t port) const {
  return indexes().port.find(port);
}

}  // namespace dnh::core
