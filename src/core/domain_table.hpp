// Arena-backed FQDN interner: the single copy of every domain string the
// tagging pipeline touches.
//
// Every stage of the hot path (DNS sniffer -> resolver Clist -> flow
// tagger -> flow DB) used to materialize the FQDN as a fresh std::string;
// at line rate the allocator dominates the per-frame cost. A DomainTable
// stores each distinct name once in an append-only byte arena and hands
// out a 32-bit DomainId; the resolver, DNS log, pending tags and flow
// database all carry the id (plus a string_view into the arena for
// zero-copy reads).
//
// Design:
//  - Append-only CHUNKED arena: strings are packed into fixed-size chunks
//    and a chunk, once allocated, never moves or grows — so every
//    string_view handed out stays valid for the table's lifetime, across
//    arbitrary later growth.
//  - Open-addressing hash set (linear probing, power-of-two capacity) maps
//    bytes -> DomainId. Steady state (name already interned) does zero
//    heap allocation: one hash, a short probe, no copies.
//  - DomainId 0 is reserved for the empty string ("unlabeled"), so a
//    value-initialized id means exactly what an empty fqdn used to.
//
// Ownership: one table per shard (each pipeline worker's Sniffer owns
// one, shared with its resolver and flow database via shared_ptr). The
// table is NOT thread-safe; cross-thread hand-off follows the pipeline's
// usual rule — windows move between threads through a mutex-guarded
// inbox, which provides the happens-before edge, and only one thread
// touches a table at a time. The merge stage unifies shard-local ids by
// remapping each distinct name once per part into the output window's
// table (see pipeline::merge).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace dnh::core {

/// Dense handle for one interned domain name. Stable for the lifetime of
/// the DomainTable that minted it; meaningless across tables (the merge
/// stage remaps — see pipeline::merge).
using DomainId = std::uint32_t;

/// Id of the empty string in every table: the "no label" value.
inline constexpr DomainId kEmptyDomainId = 0;

class DomainTable {
 public:
  DomainTable();

  DomainTable(const DomainTable&) = delete;
  DomainTable& operator=(const DomainTable&) = delete;

  /// Returns the id for `s`, interning it on first sight. Steady state
  /// (string already present) allocates nothing.
  DomainId intern(std::string_view s);

  /// Id for `s` if already interned; nullopt otherwise. Never allocates.
  std::optional<DomainId> find(std::string_view s) const noexcept;

  /// The interned text. Valid for the table's lifetime (chunks never
  /// move). Out-of-range ids and kEmptyDomainId yield "".
  std::string_view view(DomainId id) const noexcept {
    return id < views_.size() ? views_[id] : std::string_view{};
  }

  /// Distinct strings interned, including the reserved empty string.
  std::size_t size() const noexcept { return views_.size(); }

  /// Bytes reserved by the arena chunks (the dnh_domain_table_bytes
  /// gauge; excludes the id-vector and hash-slot overhead).
  std::size_t arena_bytes() const noexcept { return arena_bytes_; }

 private:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  std::string_view append(std::string_view s);
  void grow_slots();

  // Arena: chunks never move once allocated (string_view stability).
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunk_used_ = 0;   ///< bytes used in chunks_.back()
  std::size_t chunk_cap_ = 0;    ///< capacity of chunks_.back()
  std::size_t arena_bytes_ = 0;  ///< total bytes reserved across chunks

  std::vector<std::string_view> views_;  ///< id -> interned text
  /// Open-addressing slots holding DomainIds; 0 is the empty-slot
  /// sentinel (valid because id 0, the empty string, is special-cased
  /// and never stored here). Power-of-two sized.
  std::vector<DomainId> slots_;
  std::size_t mask_ = 0;
};

}  // namespace dnh::core
