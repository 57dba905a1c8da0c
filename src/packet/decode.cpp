#include "packet/decode.hpp"

#include <algorithm>

namespace dnh::packet {

std::uint16_t DecodedPacket::src_port() const {
  if (is_tcp()) return tcp().src_port;
  if (is_udp()) return udp().src_port;
  return 0;
}

std::uint16_t DecodedPacket::dst_port() const {
  if (is_tcp()) return tcp().dst_port;
  if (is_udp()) return udp().dst_port;
  return 0;
}

std::optional<DecodedPacket> decode_frame(net::BytesView frame,
                                          util::Timestamp ts) {
  DecodeFailure failure = DecodeFailure::kNone;
  return decode_frame(frame, ts, failure);
}

std::optional<DecodedPacket> decode_frame(net::BytesView frame,
                                          util::Timestamp ts,
                                          DecodeFailure& failure) {
  failure = DecodeFailure::kNone;
  net::ByteReader r{frame};
  DecodedPacket pkt;
  pkt.timestamp = ts;

  const auto eth = EthernetHeader::parse(r);
  if (!eth) {
    failure = DecodeFailure::kTruncatedL2;
    return std::nullopt;
  }
  pkt.eth = *eth;

  // Strip 802.1Q / 802.1ad VLAN tags (captures at ISP PoPs usually carry
  // at least one): each tag is 2 bytes of TCI + the real EtherType.
  int vlan_tags = 0;
  while ((pkt.eth.ether_type == 0x8100 || pkt.eth.ether_type == 0x88a8) &&
         vlan_tags < 4) {
    r.skip(2);  // priority/DEI/VLAN-id
    pkt.eth.ether_type = r.read_u16();
    if (!r.ok()) {
      failure = DecodeFailure::kTruncatedL2;
      return std::nullopt;
    }
    ++vlan_tags;
  }

  std::uint8_t l4_proto = 0;
  std::uint32_t ip_payload_len = 0;
  if (pkt.eth.ether_type == kEtherTypeIpv4) {
    const auto ip4 = Ipv4Header::parse(r);
    if (!ip4) {
      failure = DecodeFailure::kBadIpHeader;
      return std::nullopt;
    }
    l4_proto = ip4->protocol;
    ip_payload_len = ip4->payload_length();
    pkt.ip = *ip4;
  } else if (pkt.eth.ether_type == kEtherTypeIpv6) {
    const auto ip6 = Ipv6Header::parse(r);
    if (!ip6) {
      failure = DecodeFailure::kBadIpHeader;
      return std::nullopt;
    }
    l4_proto = ip6->next_header;
    ip_payload_len = ip6->payload_length;
    pkt.ip = *ip6;
  } else {
    failure = DecodeFailure::kUnsupported;
    return std::nullopt;  // ARP etc: not traffic we model
  }

  std::uint32_t l4_header_len = 0;
  if (l4_proto == kProtoTcp) {
    const auto tcp = TcpHeader::parse(r);
    if (!tcp) {
      failure = DecodeFailure::kBadL4Header;
      return std::nullopt;
    }
    l4_header_len = tcp->header_length;
    pkt.l4 = *tcp;
  } else if (l4_proto == kProtoUdp) {
    const auto udp = UdpHeader::parse(r);
    if (!udp) {
      failure = DecodeFailure::kBadL4Header;
      return std::nullopt;
    }
    l4_header_len = 8;
    // UDP carries its own length; prefer it when consistent.
    if (udp->length >= 8 && udp->length <= ip_payload_len)
      ip_payload_len = udp->length;
    pkt.l4 = *udp;
  } else {
    failure = DecodeFailure::kUnsupported;
    return std::nullopt;  // ICMP etc: ignored by the flow sniffer
  }

  pkt.wire_payload_length =
      ip_payload_len >= l4_header_len ? ip_payload_len - l4_header_len : 0;
  const std::size_t captured =
      std::min<std::size_t>(pkt.wire_payload_length, r.remaining());
  pkt.payload = r.read_bytes(captured);
  return pkt;
}

namespace {

std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

}  // namespace

std::optional<HeaderPeek> peek_ipv4_l4(net::BytesView frame) noexcept {
  const std::uint8_t* p = frame.data();
  const std::size_t size = frame.size();
  if (size < 14) return std::nullopt;
  std::uint16_t ether_type = load_u16(p + 12);
  std::size_t off = 14;
  for (int vlan_tags = 0;
       (ether_type == 0x8100 || ether_type == 0x88a8) && vlan_tags < 4;
       ++vlan_tags) {
    if (size < off + 4) return std::nullopt;
    ether_type = load_u16(p + off + 2);
    off += 4;
  }
  if (ether_type != kEtherTypeIpv4) return std::nullopt;

  if (size < off + 20 || (p[off] >> 4) != 4) return std::nullopt;
  const std::size_t ip_header_len = (p[off] & 0x0fu) * 4u;
  if (ip_header_len < 20 || size < off + ip_header_len ||
      load_u16(p + off + 2) < ip_header_len)
    return std::nullopt;
  HeaderPeek out;
  out.protocol = p[off + 9];
  out.src = net::Ipv4Address{load_u32(p + off + 12)};
  out.dst = net::Ipv4Address{load_u32(p + off + 16)};
  off += ip_header_len;

  if (out.protocol == kProtoTcp) {
    if (size < off + 20) return std::nullopt;
    const std::size_t tcp_header_len = (p[off + 12] >> 4) * 4u;
    if (tcp_header_len < 20 || size < off + tcp_header_len)
      return std::nullopt;
    out.tcp_flags = p[off + 13];
  } else if (out.protocol == kProtoUdp) {
    if (size < off + 8 || load_u16(p + off + 4) < 8) return std::nullopt;
  } else {
    return std::nullopt;
  }
  out.src_port = load_u16(p + off);
  out.dst_port = load_u16(p + off + 2);
  return out;
}

}  // namespace dnh::packet
