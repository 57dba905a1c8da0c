// Network address value types: IPv4, IPv6, MAC, and L4 endpoints.
//
// Addresses are small trivially-copyable value types with total ordering so
// they can key the resolver maps directly (the paper's DNS Resolver sorts
// map keys by a strict weak ordering on IP addresses, Sec. 3.1.1).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace dnh::net {

/// IPv4 address; stored in host byte order for cheap comparison.
class Ipv4Address {
 public:
  constexpr Ipv4Address() noexcept = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order) noexcept
      : value_{host_order} {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d) noexcept
      : value_{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d} {}

  /// Parses dotted-quad notation; nullopt on malformed input.
  static std::optional<Ipv4Address> parse(std::string_view s);

  constexpr std::uint32_t value() const noexcept { return value_; }
  constexpr std::uint8_t octet(int i) const noexcept {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  std::string to_string() const;
  /// Writes the dotted quad (at most 15 bytes) at `out` and returns the
  /// end: to_string() without the allocation, for bulk writers.
  char* format(char* out) const noexcept;

  /// The in-addr.arpa name used for reverse (PTR) lookups.
  std::string reverse_name() const;

  constexpr auto operator<=>(const Ipv4Address&) const noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv6 address, stored as 16 network-order bytes.
class Ipv6Address {
 public:
  constexpr Ipv6Address() noexcept = default;
  constexpr explicit Ipv6Address(
      const std::array<std::uint8_t, 16>& bytes) noexcept
      : bytes_{bytes} {}

  /// Builds an IPv4-mapped-style deterministic v6 address from a v4 one
  /// (used by the generator for dual-stack servers).
  static Ipv6Address mapped_from(Ipv4Address v4) noexcept;

  const std::array<std::uint8_t, 16>& bytes() const noexcept { return bytes_; }

  /// Full uncompressed hex-groups representation (no :: shortening).
  std::string to_string() const;

  constexpr auto operator<=>(const Ipv6Address&) const noexcept = default;

 private:
  std::array<std::uint8_t, 16> bytes_{};
};

/// A 48-bit MAC address.
class MacAddress {
 public:
  constexpr MacAddress() noexcept = default;
  constexpr explicit MacAddress(
      const std::array<std::uint8_t, 6>& bytes) noexcept
      : bytes_{bytes} {}

  /// A deterministic locally-administered MAC derived from `n`.
  static MacAddress from_index(std::uint32_t n) noexcept;

  const std::array<std::uint8_t, 6>& bytes() const noexcept { return bytes_; }
  std::string to_string() const;

  constexpr auto operator<=>(const MacAddress&) const noexcept = default;

 private:
  std::array<std::uint8_t, 6> bytes_{};
};

/// A contiguous inclusive IPv4 range; the org database maps ranges to
/// organizations the way whois/MaxMind allocations do.
struct Ipv4Range {
  Ipv4Address first;
  Ipv4Address last;

  constexpr bool contains(Ipv4Address a) const noexcept {
    return first <= a && a <= last;
  }
  constexpr auto operator<=>(const Ipv4Range&) const noexcept = default;
};

/// `base/prefix_len` CIDR block helper.
Ipv4Range cidr(Ipv4Address base, int prefix_len);

}  // namespace dnh::net

template <>
struct std::hash<dnh::net::Ipv4Address> {
  std::size_t operator()(const dnh::net::Ipv4Address& a) const noexcept {
    // Fibonacci hashing spreads sequential allocations across buckets.
    return static_cast<std::size_t>(a.value() * 0x9e3779b97f4a7c15ULL);
  }
};
