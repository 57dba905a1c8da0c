// Seeded frame corpus for the header-peek differential tests
// (test_packet.cpp HeaderPeek, test_pipeline.cpp shard_for oracle): a small
// generated trace, header variants built around every check the decoder
// makes, seeded header-byte corruptions, and every frame truncated at
// every byte offset. Both suites run over the same frames.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "net/bytes.hpp"
#include "packet/build.hpp"
#include "packet/headers.hpp"
#include "util/rng.hpp"

namespace dnh::testcorpus {

inline constexpr std::size_t kEthLen = 14;
inline constexpr std::size_t kIpOff = kEthLen;
inline constexpr std::size_t kL4Off = kEthLen + 20;  ///< optionless IPv4

inline void put_u16(net::Bytes& frame, std::size_t at, std::uint16_t v) {
  frame[at] = static_cast<std::uint8_t>(v >> 8);
  frame[at + 1] = static_cast<std::uint8_t>(v);
}

inline std::uint16_t get_u16(const net::Bytes& frame, std::size_t at) {
  return static_cast<std::uint16_t>((frame[at] << 8) | frame[at + 1]);
}

/// A port drawn to hit every branch of the orientation rule: DNS,
/// well-known, the 1024 boundary, ephemeral, and (via `other`) equal ports.
inline std::uint16_t draw_port(util::Rng& rng, std::uint16_t other) {
  switch (rng.uniform(0, 7)) {
    case 0: return 53;
    case 1: return 80;
    case 2: return 443;
    case 3: return 1023;
    case 4: return 1024;
    case 5: return other;
    default:
      return static_cast<std::uint16_t>(rng.uniform(1025, 65535));
  }
}

/// A small seeded trace: TCP segments with assorted flags (pure SYN,
/// SYN/ACK, data, FIN, RST, none) and UDP datagrams, between endpoints
/// drawn from small address pools so address ties and DNS ports recur.
inline std::vector<net::Bytes> generated_trace(std::uint64_t seed,
                                               std::size_t frames) {
  using namespace packet::tcpflags;
  static constexpr std::uint8_t kFlags[] = {
      kSyn, kSyn | kAck, kAck, kAck | kPsh, kFin | kAck, kRst, kRst | kAck,
      0,    kSyn | kFin};
  util::Rng rng{seed};
  std::vector<net::Bytes> out;
  for (std::size_t i = 0; i < frames; ++i) {
    packet::FrameSpec spec;
    spec.src_mac = net::MacAddress::from_index(rng.uniform(0, 15));
    spec.dst_mac = net::MacAddress::from_index(rng.uniform(0, 15));
    spec.src_ip = net::Ipv4Address{
        static_cast<std::uint32_t>(0x0a000000 + rng.uniform(0, 5))};
    spec.dst_ip = rng.uniform(0, 4) == 0
                      ? spec.src_ip
                      : net::Ipv4Address{static_cast<std::uint32_t>(
                            0x5db8d800 + rng.uniform(0, 5))};
    spec.src_port = draw_port(rng, 0);
    spec.dst_port = draw_port(rng, spec.src_port);
    spec.ip_id = static_cast<std::uint16_t>(i);
    net::Bytes payload(rng.uniform(0, 24));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    if (rng.uniform(0, 2) == 0) {
      out.push_back(packet::build_udp_frame(spec, payload));
    } else {
      const std::uint8_t flags = kFlags[rng.uniform(0, std::size(kFlags) - 1)];
      // Half the segments claim a longer wire payload (snaplen cut).
      const auto wire_len = static_cast<std::uint32_t>(
          payload.size() + rng.uniform(0, 1) * 1400);
      out.push_back(packet::build_tcp_frame(
          spec, flags, static_cast<std::uint32_t>(rng.next_u64()),
          static_cast<std::uint32_t>(rng.next_u64()), payload, wire_len));
    }
  }
  return out;
}

/// Frames built around each decoder check: 0-5 VLAN tags, IHL 5-15 and
/// TCP data offset 0-15 with the option bytes present and absent, UDP
/// length 0-8, total_length below the IP header length, and IPv6, ARP and
/// ICMP frames.
inline std::vector<net::Bytes> built_variants() {
  using namespace packet::tcpflags;
  packet::FrameSpec spec;
  spec.src_ip = net::Ipv4Address{10, 0, 0, 1};
  spec.dst_ip = net::Ipv4Address{93, 184, 216, 34};
  spec.src_port = 49152;
  spec.dst_port = 443;
  const net::Bytes payload{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const net::Bytes tcp =
      packet::build_tcp_frame(spec, kSyn, 100, 0, payload);
  const net::Bytes udp = packet::build_udp_frame(spec, payload);
  std::vector<net::Bytes> out;

  for (const net::Bytes* base : {&tcp, &udp}) {
    // VLAN stacks: 4 tags are the decoder's limit, a 5th is unsupported.
    for (int tags = 0; tags <= 5; ++tags) {
      net::Bytes f(base->begin(), base->begin() + 12);
      for (int t = 0; t < tags; ++t) {
        const std::uint16_t tpid = t % 2 == 0 ? 0x88a8 : 0x8100;
        f.insert(f.end(), {static_cast<std::uint8_t>(tpid >> 8),
                           static_cast<std::uint8_t>(tpid), 0x00,
                           static_cast<std::uint8_t>(t + 1)});
      }
      f.insert(f.end(), base->begin() + 12, base->end());
      out.push_back(std::move(f));
    }
    // IHL 0-15: options inserted (present) or merely claimed (absent, so
    // the L4 header is read as options and the frame may run short).
    for (int ihl = 0; ihl <= 15; ++ihl) {
      const std::size_t extra = ihl > 5 ? (ihl - 5) * 4u : 0u;
      net::Bytes claimed = *base;
      claimed[kIpOff] = static_cast<std::uint8_t>(0x40 | ihl);
      out.push_back(claimed);
      net::Bytes present = claimed;
      present.insert(present.begin() + kL4Off, extra, 0x01);
      put_u16(present, kIpOff + 2,
              static_cast<std::uint16_t>(get_u16(*base, kIpOff + 2) + extra));
      out.push_back(std::move(present));
      net::Bytes header_only(claimed.begin(), claimed.begin() + kL4Off);
      out.push_back(std::move(header_only));
    }
    // total_length below (and at) the IP header length.
    for (std::uint16_t total : {0, 1, 19, 20, 21}) {
      net::Bytes f = *base;
      put_u16(f, kIpOff + 2, total);
      out.push_back(std::move(f));
    }
    // Version other than 4.
    for (std::uint8_t ver_ihl : {0x05, 0x55, 0x65, 0xf5}) {
      net::Bytes f = *base;
      f[kIpOff] = ver_ihl;
      out.push_back(std::move(f));
    }
  }

  // TCP data offset 0-15, options present and absent.
  for (int doff = 0; doff <= 15; ++doff) {
    net::Bytes claimed = tcp;
    claimed[kL4Off + 12] = static_cast<std::uint8_t>(doff << 4);
    out.push_back(claimed);
    const std::size_t extra = doff > 5 ? (doff - 5) * 4u : 0u;
    net::Bytes present = claimed;
    present.insert(present.begin() + kL4Off + 20, extra, 0x01);
    put_u16(present, kIpOff + 2,
            static_cast<std::uint16_t>(get_u16(tcp, kIpOff + 2) + extra));
    out.push_back(std::move(present));
    out.emplace_back(claimed.begin(), claimed.begin() + kL4Off + 20);
  }
  // UDP length 0-8 (and one past the header).
  for (std::uint16_t len = 0; len <= 9; ++len) {
    net::Bytes f = udp;
    put_u16(f, kL4Off + 4, len);
    out.push_back(std::move(f));
  }
  // Non-IPv4 / non-TCP-UDP traffic: ICMP, another IP protocol, ARP, IPv6
  // (TCP and UDP inside, which decode_frame does decode).
  for (std::uint8_t proto : {1, 47, 58}) {
    net::Bytes f = udp;
    f[kIpOff + 9] = proto;
    out.push_back(std::move(f));
  }
  {
    net::Bytes arp(tcp.begin(), tcp.begin() + 12);
    arp.insert(arp.end(), {0x08, 0x06});
    arp.insert(arp.end(), 28, 0x00);
    out.push_back(std::move(arp));
  }
  for (const std::uint8_t next : {packet::kProtoTcp, packet::kProtoUdp}) {
    net::ByteWriter w;
    packet::EthernetHeader eth;
    eth.ether_type = packet::kEtherTypeIpv6;
    eth.serialize(w);
    packet::Ipv6Header ip6;
    ip6.next_header = next;
    ip6.payload_length = 40;
    ip6.serialize(w);
    const net::Bytes& l4 = next == packet::kProtoTcp ? tcp : udp;
    w.write_bytes(net::BytesView{l4}.subspan(kL4Off));
    out.push_back(w.take());
  }
  return out;
}

/// The full corpus: the trace, four seeded single-byte corruptions of the
/// first 64 bytes of each trace frame, the variants, and every one of
/// those truncated at every byte offset.
inline std::vector<net::Bytes> header_peek_corpus(std::uint64_t seed) {
  std::vector<net::Bytes> whole = generated_trace(seed, 200);
  const std::size_t trace_frames = whole.size();
  util::Rng rng{seed ^ 0x5eedu};
  for (std::size_t i = 0; i < trace_frames; ++i) {
    for (int m = 0; m < 4; ++m) {
      net::Bytes f = whole[i];
      const std::size_t at =
          rng.uniform(0, std::min<std::size_t>(f.size(), 64) - 1);
      f[at] = static_cast<std::uint8_t>(rng.next_u64());
      whole.push_back(std::move(f));
    }
  }
  for (auto& f : built_variants()) whole.push_back(std::move(f));

  std::vector<net::Bytes> out;
  for (const auto& f : whole) {
    for (std::size_t len = 0; len <= f.size(); ++len)
      out.emplace_back(f.begin(),
                       f.begin() + static_cast<std::ptrdiff_t>(len));
  }
  return out;
}

}  // namespace dnh::testcorpus
