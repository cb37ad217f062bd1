#include "cli/ndtm_flags.hpp"

#include <stdexcept>

#include "robustness/fault.hpp"

namespace nd::cli {

std::optional<packet::FlowDefinition> flow_definition(std::string_view name) {
  if (name == "5tuple") return packet::FlowDefinition::five_tuple();
  if (name == "dstip") return packet::FlowDefinition::destination_ip();
  if (!name.starts_with("netpair:")) return std::nullopt;
  const auto prefix_len = parse_decimal(name.substr(8));
  if (!prefix_len || *prefix_len > 32) return std::nullopt;
  return packet::FlowDefinition::network_pair(
      static_cast<std::uint8_t>(*prefix_len));
}

std::optional<Endpoint> parse_endpoint(std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto port = parse_decimal(text.substr(colon + 1));
  if (!port || *port > UINT16_MAX) return std::nullopt;
  return Endpoint{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(*port)};
}

std::string check_flow_def(std::string_view text) {
  return flow_definition(text) ? "" : "5tuple, dstip or netpair:<0-32>";
}

std::string check_endpoint(std::string_view text) {
  return parse_endpoint(text) ? "" : "HOST:PORT";
}

std::string check_fault_plan(std::string_view text) {
  try {
    (void)robustness::parse_fault_plan(text);
    return "";
  } catch (const std::invalid_argument& error) {
    return std::string("a fault plan; ") + error.what();
  }
}

}  // namespace nd::cli
