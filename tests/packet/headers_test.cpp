#include "packet/headers.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

namespace nd::packet {
namespace {

TEST(Checksum, Rfc1071KnownVector) {
  // Classic example from RFC 1071 discussions:
  // 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220D);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> data = {0x01};
  // Sum = 0x0100, checksum = ~0x0100.
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0x0100));
}

TEST(Checksum, AllZerosIsAllOnes) {
  const std::vector<std::uint8_t> data(20, 0);
  EXPECT_EQ(internet_checksum(data), 0xFFFF);
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.total_length = 1500;
  h.identification = 0xBEEF;
  h.ttl = 17;
  h.protocol = static_cast<std::uint8_t>(IpProtocol::kUdp);
  h.src_ip = 0x0A000001;
  h.dst_ip = 0x0A630405;

  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  ASSERT_EQ(bytes.size(), 20u);

  const auto parsed = parse_ipv4(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_length, 1500);
  EXPECT_EQ(parsed->identification, 0xBEEF);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->protocol, static_cast<std::uint8_t>(IpProtocol::kUdp));
  EXPECT_EQ(parsed->src_ip, 0x0A000001u);
  EXPECT_EQ(parsed->dst_ip, 0x0A630405u);
}

TEST(Ipv4Header, SerializedChecksumValidates) {
  Ipv4Header h;
  h.total_length = 100;
  h.src_ip = 1;
  h.dst_ip = 2;
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  // Checksum over a header including its checksum field must be 0.
  EXPECT_EQ(internet_checksum(bytes), 0);
}

TEST(Ipv4Header, RejectsTruncated) {
  const std::vector<std::uint8_t> bytes(19, 0);
  EXPECT_FALSE(parse_ipv4(bytes).has_value());
}

TEST(Ipv4Header, RejectsNonV4) {
  std::vector<std::uint8_t> bytes(20, 0);
  bytes[0] = 0x65;  // version 6
  EXPECT_FALSE(parse_ipv4(bytes).has_value());
}

TEST(Ipv4Header, RejectsBadIhl) {
  std::vector<std::uint8_t> bytes(20, 0);
  bytes[0] = 0x42;  // version 4, ihl 2 (< 5)
  EXPECT_FALSE(parse_ipv4(bytes).has_value());
}

TEST(TcpHeader, SerializeParseRoundTrip) {
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51234;
  h.seq = 0xDEADBEEF;
  h.ack = 0x01020304;
  h.flags = 0x18;  // PSH|ACK
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  ASSERT_EQ(bytes.size(), 20u);
  const auto parsed = parse_tcp(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 443);
  EXPECT_EQ(parsed->dst_port, 51234);
  EXPECT_EQ(parsed->seq, 0xDEADBEEFu);
  EXPECT_EQ(parsed->ack, 0x01020304u);
  EXPECT_EQ(parsed->flags, 0x18);
}

TEST(UdpHeader, SerializeParseRoundTrip) {
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 5353;
  h.length = 120;
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  ASSERT_EQ(bytes.size(), 8u);
  const auto parsed = parse_udp(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 53);
  EXPECT_EQ(parsed->dst_port, 5353);
  EXPECT_EQ(parsed->length, 120);
}

TEST(Ethernet, SerializeParseRoundTrip) {
  EthernetHeader h;
  h.src_mac = {1, 2, 3, 4, 5, 6};
  h.dst_mac = {7, 8, 9, 10, 11, 12};
  std::vector<std::uint8_t> bytes;
  serialize(h, bytes);
  ASSERT_EQ(bytes.size(), kEthernetHeaderSize);
  const auto parsed = parse_ethernet(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_mac, h.src_mac);
  EXPECT_EQ(parsed->dst_mac, h.dst_mac);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
}

PacketRecord sample_record(IpProtocol protocol, std::uint32_t size) {
  PacketRecord r;
  r.timestamp_ns = 123'456'789;
  r.src_ip = 0x0A010203;
  r.dst_ip = 0x0AFF0102;
  r.src_port = 12345;
  r.dst_port = 80;
  r.protocol = protocol;
  r.size_bytes = size;
  return r;
}

TEST(Frame, BuildParseRoundTripTcp) {
  const auto record = sample_record(IpProtocol::kTcp, 1500);
  const auto frame = build_frame(record);
  EXPECT_EQ(frame.size(), kEthernetHeaderSize + 1500);
  const auto parsed = parse_frame(frame, record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);
}

TEST(Frame, BuildParseRoundTripUdp) {
  const auto record = sample_record(IpProtocol::kUdp, 200);
  const auto parsed = parse_frame(build_frame(record), record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);
}

TEST(Frame, RuntPacketClampedToHeaders) {
  // A 10-byte "packet" cannot hold IPv4+TCP headers; the frame builder
  // clamps to the minimum and the parsed size reflects the clamp.
  const auto record = sample_record(IpProtocol::kTcp, 10);
  const auto parsed = parse_frame(build_frame(record), record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size_bytes, 40u);
}

TEST(Frame, TruncatedCaptureStillParsesViaIpLength) {
  // Snaplen-style truncation: only the first 60 bytes captured, but the
  // IP total length carries the true size.
  const auto record = sample_record(IpProtocol::kTcp, 1400);
  auto frame = build_frame(record);
  frame.resize(60);
  const auto parsed = parse_frame(frame, record.timestamp_ns);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size_bytes, 1400u);
}

TEST(Frame, NonIpv4Rejected) {
  const auto record = sample_record(IpProtocol::kTcp, 100);
  auto frame = build_frame(record);
  frame[12] = 0x86;  // EtherType IPv6
  frame[13] = 0xDD;
  EXPECT_FALSE(parse_frame(frame, 0).has_value());
}

TEST(Frame, TooShortRejected) {
  const std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(parse_frame(tiny, 0).has_value());
}

/// parse_frame composed from the per-header parsers: the accept/reject
/// rules the single-pass parse_frame must keep.
std::optional<PacketRecord> parse_frame_by_headers(
    std::span<const std::uint8_t> captured, common::TimestampNs ts) {
  const auto eth = parse_ethernet(captured);
  if (!eth || eth->ether_type != kEtherTypeIpv4) return std::nullopt;
  const auto ip_bytes = captured.subspan(kEthernetHeaderSize);
  const auto ip = parse_ipv4(ip_bytes);
  if (!ip) return std::nullopt;
  PacketRecord record;
  record.timestamp_ns = ts;
  record.src_ip = ip->src_ip;
  record.dst_ip = ip->dst_ip;
  record.protocol = static_cast<IpProtocol>(ip->protocol);
  record.size_bytes = ip->total_length;
  const auto l4 = ip_bytes.subspan(ip->header_bytes());
  if (ip->protocol == static_cast<std::uint8_t>(IpProtocol::kTcp)) {
    const auto t = parse_tcp(l4);
    if (!t) return std::nullopt;
    record.src_port = t->src_port;
    record.dst_port = t->dst_port;
  } else if (ip->protocol == static_cast<std::uint8_t>(IpProtocol::kUdp)) {
    const auto u = parse_udp(l4);
    if (!u) return std::nullopt;
    record.src_port = u->src_port;
    record.dst_port = u->dst_port;
  }
  return record;
}

TEST(Frame, SinglePassMatchesPerHeaderParsers) {
  // Every prefix of TCP, UDP and ICMP frames, then random header-byte
  // mutations (version/IHL, EtherType, protocol, lengths).
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (const IpProtocol protocol :
       {IpProtocol::kTcp, IpProtocol::kUdp, IpProtocol::kIcmp}) {
    const auto frame = build_frame(sample_record(protocol, 120));
    for (std::size_t length = 0; length <= frame.size(); ++length) {
      const std::span<const std::uint8_t> prefix(frame.data(), length);
      EXPECT_EQ(parse_frame(prefix, 7), parse_frame_by_headers(prefix, 7))
          << "prefix " << length;
    }
    for (int round = 0; round < 2000; ++round) {
      auto mutated = frame;
      const std::size_t flips = 1 + next() % 3;
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[next() % 60] = static_cast<std::uint8_t>(next());
      }
      mutated.resize(next() % (mutated.size() + 1));
      EXPECT_EQ(parse_frame(mutated, 7), parse_frame_by_headers(mutated, 7))
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace nd::packet
