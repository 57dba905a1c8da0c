// The labeled Flow Database (paper Fig. 1): the sniffer's output store that
// the off-line analyzer mines. Holds each finished flow with its FQDN tag
// and protocol class. The secondary indexes the analytics algorithms query
// (by 2nd-level domain for Alg. 2, by serverIP for Alg. 3, by destination
// port for Alg. 4) are not maintained on add(): they are built once, on the
// first query, from the flows as they stand then.
//
// FQDN storage is interned: every label lives once in the database's
// DomainTable and flows carry a DomainId plus a string_view into the
// table's arena. add() re-interns whatever text the caller supplies, so a
// producer's fqdn view only has to stay valid across the add() call.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/domain_table.hpp"
#include "flow/flow.hpp"
#include "net/ip.hpp"
#include "util/time.hpp"

namespace dnh::core {

/// One finished, labeled flow.
struct TaggedFlow {
  flow::FlowKey key;
  util::Timestamp first_packet;
  util::Timestamp last_packet;
  std::uint64_t packets_c2s = 0;
  std::uint64_t packets_s2c = 0;
  std::uint64_t bytes_c2s = 0;
  std::uint64_t bytes_s2c = 0;
  flow::ProtocolClass protocol = flow::ProtocolClass::kUnknown;

  /// DN-Hunter label; empty when the lookup missed. Once the flow is in a
  /// FlowDatabase this view points into the database's DomainTable (valid
  /// for the database's lifetime); before add(), it points at whatever
  /// the producer staged and only needs to outlive the add() call.
  std::string_view fqdn;
  /// Interned id of `fqdn` in the owning database's DomainTable;
  /// kEmptyDomainId (= unlabeled) until add() assigns it.
  DomainId fqdn_id = kEmptyDomainId;
  /// When the DNS response that produced the label was sniffed; only
  /// meaningful when `fqdn` is non-empty.
  util::Timestamp dns_response_time;
  /// True when the label was already available at the flow's first packet
  /// (the "identify flows before they begin" property).
  bool tagged_at_start = false;

  // Baseline-derived fields, filled by the sniffer at export time so the
  // analyzer does not need to retain payload bytes:
  /// What a DPI box would label the flow (HTTP Host / TLS SNI); empty when
  /// the payload exposes nothing.
  std::string dpi_label;
  /// Leaf-certificate subject CN from the TLS handshake, if one was seen.
  std::string cert_cn;
  /// Leaf-certificate subjectAltName dNSNames.
  std::vector<std::string> cert_san;
  /// True if the server sent a certificate (false for resumed sessions).
  bool has_certificate = false;

  bool labeled() const noexcept { return !fqdn.empty(); }
  /// The organization part of the label ("scholar.google.com"->"google.com").
  std::string_view second_level() const;
};

/// Append-only store. add() only interns and appends; the four indexes
/// are built together on the first by_*() call and dropped by the next
/// add() or take_flows(). Queries return stable flow indices, ascending.
class FlowDatabase {
 public:
  using FlowIndex = std::uint32_t;

  /// Standalone database with its own private DomainTable.
  FlowDatabase() : FlowDatabase{std::make_shared<DomainTable>()} {}

  /// Database sharing a caller-owned table (the Sniffer hands its own so
  /// resolver hits and flow labels intern once, and so window rotation
  /// keeps one arena across databases).
  explicit FlowDatabase(std::shared_ptr<DomainTable> table)
      : table_{std::move(table)}, index_{std::make_unique<IndexSlot>()} {}

  /// Adds a flow: its fqdn text is interned into this database's
  /// DomainTable and its view/id rebound to the arena copy. Returns the
  /// flow's index.
  FlowIndex add(TaggedFlow flow);

  /// Moves every flow out and resets the database. The DomainTable is
  /// retained — the moved-out flows' fqdn views point into it, so
  /// re-adding them (the merge stage, canonicalize()) stays valid. Used
  /// by the parallel pipeline's merge stage to re-add per-shard flows in
  /// canonical order without copying them.
  std::vector<TaggedFlow> take_flows();

  /// The interner backing this database's fqdn views.
  const std::shared_ptr<DomainTable>& domain_table() const noexcept {
    return table_;
  }

  const std::vector<TaggedFlow>& flows() const noexcept { return flows_; }
  const TaggedFlow& flow(FlowIndex i) const { return flows_.at(i); }
  std::size_t size() const noexcept { return flows_.size(); }

  // The by_*() queries may run concurrently with each other (the first
  // one builds the indexes, the rest wait for it); the spans stay valid
  // until the next add() or take_flows().

  /// Flows whose label's 2nd-level domain is `sld` (Alg. 2 line 5).
  std::span<const FlowIndex> by_second_level(std::string_view sld) const;

  /// Flows labeled exactly `fqdn`.
  std::span<const FlowIndex> by_fqdn(std::string_view fqdn) const;

  /// Flows to a given server address (Alg. 3 line 4).
  std::span<const FlowIndex> by_server(net::Ipv4Address server) const;

  /// Flows to a given destination (server) port (Alg. 4 line 4).
  std::span<const FlowIndex> by_server_port(std::uint16_t port) const;

 private:
  /// Flat CSR postings: `keys` ascending and distinct; the flows of
  /// keys[k] are rows[offsets[k] .. offsets[k + 1]), ascending.
  template <typename Key>
  struct Postings {
    std::vector<Key> keys;
    std::vector<FlowIndex> offsets;
    std::vector<FlowIndex> rows;
    std::span<const FlowIndex> find(const Key& key) const;
  };
  struct Indexes {
    Postings<DomainId> fqdn;
    /// Keyed by views into the flows' arena text: building them never
    /// writes the (possibly shared) DomainTable.
    Postings<std::string_view> sld;
    Postings<net::Ipv4Address> server;
    Postings<std::uint16_t> port;
  };
  /// Heap-held so the once_flag does not pin the database in place.
  struct IndexSlot {
    std::once_flag once;
    std::optional<Indexes> built;
  };

  /// The indexes, built on first use.
  const Indexes& indexes() const;
  /// The one place the indexes are built.
  Indexes build_indexes() const;
  /// Forgets built indexes before the flows change.
  void drop_indexes();

  std::shared_ptr<DomainTable> table_;
  std::vector<TaggedFlow> flows_;
  std::unique_ptr<IndexSlot> index_;
};

}  // namespace dnh::core
