#include "net/ip.hpp"

#include <charconv>
#include <cstdio>

#include "util/strings.hpp"

namespace dnh::net {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view s) {
  const auto parts = util::split(s, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto part : parts) {
    if (part.empty() || part.size() > 3 || !util::all_digits(part))
      return std::nullopt;
    unsigned octet = 0;
    for (char c : part) octet = octet * 10 + static_cast<unsigned>(c - '0');
    if (octet > 255) return std::nullopt;
    value = (value << 8) | octet;
  }
  return Ipv4Address{value};
}

std::string Ipv4Address::to_string() const {
  char buf[15];
  return {buf, format(buf)};
}

char* Ipv4Address::format(char* out) const noexcept {
  for (int i = 0; i < 4; ++i) {
    if (i > 0) *out++ = '.';
    out = std::to_chars(out, out + 3, unsigned{octet(i)}).ptr;
  }
  return out;
}

std::string Ipv4Address::reverse_name() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u.in-addr.arpa", octet(3),
                octet(2), octet(1), octet(0));
  return buf;
}

Ipv6Address Ipv6Address::mapped_from(Ipv4Address v4) noexcept {
  std::array<std::uint8_t, 16> b{};
  b[0] = 0x20;
  b[1] = 0x01;
  b[2] = 0x0d;
  b[3] = 0xb8;
  b[12] = v4.octet(0);
  b[13] = v4.octet(1);
  b[14] = v4.octet(2);
  b[15] = v4.octet(3);
  return Ipv6Address{b};
}

std::string Ipv6Address::to_string() const {
  char buf[48];
  char* p = buf;
  for (int group = 0; group < 8; ++group) {
    const unsigned v = (static_cast<unsigned>(bytes_[group * 2]) << 8) |
                       bytes_[group * 2 + 1];
    p += std::snprintf(p, 6, group == 0 ? "%x" : ":%x", v);
  }
  return buf;
}

MacAddress MacAddress::from_index(std::uint32_t n) noexcept {
  std::array<std::uint8_t, 6> b{};
  b[0] = 0x02;  // locally administered, unicast
  b[1] = 0xdd;
  b[2] = static_cast<std::uint8_t>(n >> 24);
  b[3] = static_cast<std::uint8_t>(n >> 16);
  b[4] = static_cast<std::uint8_t>(n >> 8);
  b[5] = static_cast<std::uint8_t>(n);
  return MacAddress{b};
}

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", bytes_[0],
                bytes_[1], bytes_[2], bytes_[3], bytes_[4], bytes_[5]);
  return buf;
}

Ipv4Range cidr(Ipv4Address base, int prefix_len) {
  const std::uint32_t mask =
      prefix_len <= 0 ? 0u
      : prefix_len >= 32
          ? 0xffffffffu
          : ~((1u << (32 - prefix_len)) - 1u);
  const std::uint32_t lo = base.value() & mask;
  const std::uint32_t hi = lo | ~mask;
  return Ipv4Range{Ipv4Address{lo}, Ipv4Address{hi}};
}

}  // namespace dnh::net
