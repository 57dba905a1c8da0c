#include <gtest/gtest.h>

#include "header_peek_corpus.hpp"
#include "net/checksum.hpp"
#include "packet/build.hpp"
#include "packet/decode.hpp"
#include "packet/headers.hpp"

namespace dnh::packet {
namespace {

FrameSpec test_spec() {
  FrameSpec spec;
  spec.src_mac = net::MacAddress::from_index(1);
  spec.dst_mac = net::MacAddress::from_index(2);
  spec.src_ip = net::Ipv4Address{10, 0, 0, 1};
  spec.dst_ip = net::Ipv4Address{93, 184, 216, 34};
  spec.src_port = 49152;
  spec.dst_port = 80;
  spec.ip_id = 7;
  return spec;
}

TEST(Build, UdpFrameDecodesBack) {
  const net::Bytes payload{1, 2, 3, 4, 5};
  const auto frame = build_udp_frame(test_spec(), payload);
  const auto pkt = decode_frame(frame, util::Timestamp::from_seconds(10));
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_ipv4());
  EXPECT_TRUE(pkt->is_udp());
  EXPECT_EQ(pkt->src_v4().to_string(), "10.0.0.1");
  EXPECT_EQ(pkt->dst_v4().to_string(), "93.184.216.34");
  EXPECT_EQ(pkt->src_port(), 49152);
  EXPECT_EQ(pkt->dst_port(), 80);
  EXPECT_EQ(net::as_string(pkt->payload), std::string("\x01\x02\x03\x04\x05"));
  EXPECT_EQ(pkt->wire_payload_length, 5u);
  EXPECT_EQ(pkt->timestamp.seconds_since_epoch(), 10);
}

TEST(Build, TcpFrameDecodesBack) {
  const auto frame =
      build_tcp_frame(test_spec(), tcpflags::kSyn, 1234, 0, {});
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  ASSERT_TRUE(pkt->is_tcp());
  EXPECT_TRUE(pkt->tcp().syn());
  EXPECT_FALSE(pkt->tcp().ack_flag());
  EXPECT_EQ(pkt->tcp().seq, 1234u);
  EXPECT_EQ(pkt->wire_payload_length, 0u);
}

TEST(Build, TcpPayloadRoundTrip) {
  const std::string http = "GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";
  const auto frame =
      build_tcp_frame(test_spec(), tcpflags::kAck | tcpflags::kPsh, 1, 1,
                      net::as_bytes(http));
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  EXPECT_EQ(net::as_string(pkt->payload), http);
}

TEST(Build, ClaimedWireLengthExceedsCaptured) {
  // A "bulk data" packet: claims 1460 payload bytes, captures none.
  const auto frame = build_tcp_frame(test_spec(), tcpflags::kAck, 1, 1, {},
                                     1460);
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->wire_payload_length, 1460u);
  EXPECT_TRUE(pkt->payload.empty());
  EXPECT_EQ(pkt->ipv4().total_length, 20 + 20 + 1460);
}

TEST(Build, Ipv4HeaderChecksumIsValid) {
  const auto frame = build_udp_frame(test_spec(), {});
  // IP header starts after the 14-byte Ethernet header.
  const net::BytesView ip_header{frame.data() + 14, 20};
  EXPECT_EQ(net::internet_checksum(ip_header), 0);
}

TEST(Build, TcpChecksumVerifies) {
  const std::string payload = "ab";
  const auto spec = test_spec();
  const auto frame = build_tcp_frame(spec, tcpflags::kAck, 5, 6,
                                     net::as_bytes(payload));
  const net::BytesView segment{frame.data() + 34, frame.size() - 34};
  EXPECT_EQ(net::l4_checksum_v4(spec.src_ip, spec.dst_ip, kProtoTcp, segment),
            0);
}

TEST(Decode, RejectsTruncatedEthernet) {
  const net::Bytes junk{1, 2, 3};
  EXPECT_FALSE(decode_frame(junk, {}));
}

TEST(Decode, RejectsNonIpEtherType) {
  net::ByteWriter w;
  EthernetHeader eth;
  eth.ether_type = 0x0806;  // ARP
  eth.serialize(w);
  w.write_u32(0);
  EXPECT_FALSE(decode_frame(w.data(), {}));
}

TEST(Decode, RejectsTruncatedIpHeader) {
  auto frame = build_udp_frame(test_spec(), {});
  frame.resize(20);  // cuts into the IP header
  EXPECT_FALSE(decode_frame(frame, {}));
}

TEST(Decode, RejectsNonTcpUdpProtocol) {
  auto frame = build_udp_frame(test_spec(), {});
  frame[14 + 9] = 1;  // protocol = ICMP
  EXPECT_FALSE(decode_frame(frame, {}));
}

TEST(Decode, RejectsBadIpVersion) {
  auto frame = build_udp_frame(test_spec(), {});
  frame[14] = 0x55;  // version 5
  EXPECT_FALSE(decode_frame(frame, {}));
}

TEST(Decode, ToleratesShortSnaplenCapture) {
  const std::string payload(100, 'x');
  auto frame = build_tcp_frame(test_spec(), tcpflags::kAck, 1, 1,
                               net::as_bytes(payload));
  frame.resize(frame.size() - 60);  // simulate snaplen truncation
  const auto pkt = decode_frame(frame, {});
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->wire_payload_length, 100u);
  EXPECT_EQ(pkt->payload.size(), 40u);
}

TEST(Headers, Ipv4WithOptionsParses) {
  net::ByteWriter w;
  w.write_u8(0x46);  // version 4, IHL 6 (24 bytes)
  w.write_u8(0);
  w.write_u16(24 + 4);  // total length: header + 4 payload bytes
  w.write_u16(1);
  w.write_u16(0x4000);
  w.write_u8(64);
  w.write_u8(kProtoUdp);
  w.write_u16(0);
  w.write_ipv4(net::Ipv4Address{1, 1, 1, 1});
  w.write_ipv4(net::Ipv4Address{2, 2, 2, 2});
  w.write_u32(0x01010100);  // 4 bytes of options
  w.write_u32(0xdeadbeef);  // payload

  net::ByteReader r{w.data()};
  const auto h = Ipv4Header::parse(r);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->header_length, 24);
  EXPECT_EQ(h->payload_length(), 4);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);  // positioned after options
}

TEST(Headers, TcpWithOptionsParses) {
  net::ByteWriter w;
  w.write_u16(1000);
  w.write_u16(2000);
  w.write_u32(1);
  w.write_u32(2);
  w.write_u8(0x70);  // data offset 7 words = 28 bytes
  w.write_u8(tcpflags::kSyn);
  w.write_u16(1024);
  w.write_u32(0);
  w.write_u64(0x0204058401010101ULL);  // 8 bytes of options

  net::ByteReader r{w.data()};
  const auto h = TcpHeader::parse(r);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->header_length, 28);
  EXPECT_TRUE(h->syn());
  EXPECT_TRUE(r.at_end());
}

TEST(Headers, TcpRejectsBadDataOffset) {
  net::ByteWriter w;
  w.write_u16(1);
  w.write_u16(2);
  w.write_u32(0);
  w.write_u32(0);
  w.write_u8(0x10);  // data offset 1 word = 4 bytes: invalid
  w.write_u8(0);
  w.write_u16(0);
  w.write_u32(0);
  net::ByteReader r{w.data()};
  EXPECT_FALSE(TcpHeader::parse(r));
}

TEST(Headers, UdpRejectsLengthBelowHeader) {
  net::ByteWriter w;
  w.write_u16(1);
  w.write_u16(2);
  w.write_u16(4);  // < 8
  w.write_u16(0);
  net::ByteReader r{w.data()};
  EXPECT_FALSE(UdpHeader::parse(r));
}

TEST(Headers, Ipv6RoundTrip) {
  Ipv6Header h;
  h.payload_length = 32;
  h.next_header = kProtoTcp;
  h.src = net::Ipv6Address::mapped_from(net::Ipv4Address{1, 2, 3, 4});
  h.dst = net::Ipv6Address::mapped_from(net::Ipv4Address{5, 6, 7, 8});
  net::ByteWriter w;
  h.serialize(w);
  net::ByteReader r{w.data()};
  const auto parsed = Ipv6Header::parse(r);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->payload_length, 32);
  EXPECT_EQ(parsed->next_header, kProtoTcp);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
}

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader eth;
  eth.src = net::MacAddress::from_index(42);
  eth.dst = net::MacAddress::from_index(43);
  eth.ether_type = kEtherTypeIpv4;
  net::ByteWriter w;
  eth.serialize(w);
  net::ByteReader r{w.data()};
  const auto parsed = EthernetHeader::parse(r);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src, eth.src);
  EXPECT_EQ(parsed->dst, eth.dst);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
}

TEST(Build, MakePcapFrameSetsWireLength) {
  auto frame = build_tcp_frame(test_spec(), tcpflags::kAck, 1, 1, {}, 1460);
  const std::size_t captured = frame.size();
  const auto pf = make_pcap_frame(util::Timestamp::from_seconds(1),
                                  std::move(frame), 1460);
  EXPECT_EQ(pf.data.size(), captured);
  EXPECT_EQ(pf.original_length, captured + 1460);
}

}  // namespace
}  // namespace dnh::packet

namespace dnh::packet {
namespace {

TEST(Decode, StripsSingleVlanTag) {
  // Build a normal frame, then splice a 802.1Q tag after the MACs.
  auto frame = build_udp_frame(test_spec(), net::Bytes{7, 7});
  net::Bytes tagged(frame.begin(), frame.begin() + 12);
  tagged.push_back(0x81);  // TPID 0x8100
  tagged.push_back(0x00);
  tagged.push_back(0x00);  // TCI: vlan 42
  tagged.push_back(0x2a);
  tagged.insert(tagged.end(), frame.begin() + 12, frame.end());

  const auto pkt = decode_frame(tagged, {});
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_udp());
  EXPECT_EQ(net::as_string(pkt->payload), std::string("\x07\x07"));
}

TEST(Decode, StripsQinQDoubleTag) {
  auto frame = build_udp_frame(test_spec(), {});
  net::Bytes tagged(frame.begin(), frame.begin() + 12);
  const std::uint8_t tags[] = {0x88, 0xa8, 0x00, 0x64,   // 802.1ad outer
                               0x81, 0x00, 0x00, 0x2a};  // 802.1Q inner
  tagged.insert(tagged.end(), std::begin(tags), std::end(tags));
  tagged.insert(tagged.end(), frame.begin() + 12, frame.end());
  const auto pkt = decode_frame(tagged, {});
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_udp());
}

TEST(Decode, RejectsTruncatedVlanTag) {
  auto frame = build_udp_frame(test_spec(), {});
  net::Bytes tagged(frame.begin(), frame.begin() + 12);
  tagged.push_back(0x81);
  tagged.push_back(0x00);
  tagged.push_back(0x00);  // tag cut short
  EXPECT_FALSE(decode_frame(tagged, {}));
}

}  // namespace
}  // namespace dnh::packet

namespace dnh::packet {
namespace {

// The dispatcher routes from peek_ipv4_l4, the worker from decode_frame;
// a frame the two disagree on would be routed by one reading and tagged by
// another. Over the seeded corpus (trace, corruptions, built variants,
// every truncation), the peek must accept exactly the frames decode_frame
// decodes as IPv4 TCP/UDP and read the same routing fields from them.
TEST(HeaderPeek, AgreesWithDecodeFrameOnEveryFrame) {
  const auto corpus = testcorpus::header_peek_corpus(20121114);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const net::Bytes& frame = corpus[i];
    const auto pkt = decode_frame(frame, {});
    const bool decodes_ipv4_l4 =
        pkt && pkt->is_ipv4() && (pkt->is_tcp() || pkt->is_udp());
    const auto hdr = peek_ipv4_l4(frame);
    ASSERT_EQ(hdr.has_value(), decodes_ipv4_l4)
        << "frame " << i << " (" << frame.size() << " bytes)";
    if (!hdr) continue;
    ++accepted;
    EXPECT_EQ(hdr->src, pkt->src_v4()) << "frame " << i;
    EXPECT_EQ(hdr->dst, pkt->dst_v4()) << "frame " << i;
    EXPECT_EQ(hdr->src_port, pkt->src_port()) << "frame " << i;
    EXPECT_EQ(hdr->dst_port, pkt->dst_port()) << "frame " << i;
    EXPECT_EQ(hdr->is_tcp(), pkt->is_tcp()) << "frame " << i;
    EXPECT_EQ(hdr->protocol, pkt->ipv4().protocol) << "frame " << i;
    const std::uint8_t flags = pkt->is_tcp() ? pkt->tcp().flags : 0;
    EXPECT_EQ(hdr->tcp_flags, flags) << "frame " << i;  // SYN, ACK, ...
  }
  // Both verdicts must be well represented, or the agreement is vacuous.
  EXPECT_GT(accepted, corpus.size() / 10);
  EXPECT_LT(accepted, corpus.size() - corpus.size() / 10);
}

}  // namespace
}  // namespace dnh::packet
