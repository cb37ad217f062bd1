#include "packet/flow_key.hpp"

#include <array>

#include "common/format.hpp"

namespace nd::packet {

const char* to_string(FlowKeyKind kind) {
  switch (kind) {
    case FlowKeyKind::kFiveTuple:
      return "5-tuple";
    case FlowKeyKind::kDestinationIp:
      return "destination IP";
    case FlowKeyKind::kAsPair:
      return "AS pair";
    case FlowKeyKind::kNetworkPair:
      return "network pair";
  }
  return "unknown";
}

void save_flow_key(common::StateWriter& out, const FlowKey& key) {
  out.put_u8(static_cast<std::uint8_t>(key.kind()));
  out.put_u32(key.src_ip());
  out.put_u32(key.dst_ip());
  out.put_u16(key.src_port());
  out.put_u16(key.dst_port());
  out.put_u8(static_cast<std::uint8_t>(key.protocol()));
}

FlowKey load_flow_key(common::StateReader& in) {
  const auto kind = static_cast<FlowKeyKind>(in.u8());
  const std::uint32_t a = in.u32();
  const std::uint32_t b = in.u32();
  const std::uint16_t c = in.u16();
  const std::uint16_t d = in.u16();
  const auto proto = static_cast<IpProtocol>(in.u8());
  switch (kind) {
    case FlowKeyKind::kFiveTuple:
      return FlowKey::five_tuple(a, b, c, d, proto);
    case FlowKeyKind::kDestinationIp:
      return FlowKey::destination_ip(b);
    case FlowKeyKind::kAsPair:
      return FlowKey::as_pair(a, b);
    case FlowKeyKind::kNetworkPair:
      return FlowKey::network_pair(a, b, static_cast<std::uint8_t>(c));
  }
  throw common::StateError("flow key: unknown kind tag in checkpoint");
}

std::string FlowKey::to_string() const {
  switch (kind_) {
    case FlowKeyKind::kFiveTuple: {
      const char* proto = proto_ == IpProtocol::kTcp   ? "tcp"
                          : proto_ == IpProtocol::kUdp ? "udp"
                                                       : "icmp";
      return common::format_ipv4(a_) + ":" + std::to_string(c_) + " -> " +
             common::format_ipv4(b_) + ":" + std::to_string(d_) + " " + proto;
    }
    case FlowKeyKind::kDestinationIp:
      return "dst " + common::format_ipv4(b_);
    case FlowKeyKind::kAsPair:
      return "AS" + std::to_string(a_) + " -> AS" + std::to_string(b_);
    case FlowKeyKind::kNetworkPair:
      return common::format_ipv4(a_) + "/" + std::to_string(c_) + " -> " +
             common::format_ipv4(b_) + "/" + std::to_string(c_);
  }
  return "?";
}

}  // namespace nd::packet
