// MutablePacket: a decoded frame the action executor can rewrite.
//
// The pipeline parses a frame once into (headers, payload); set-field
// actions mutate the header structs, and serialize() materializes wire
// bytes through net::serialize_packet, the same writer the packet builders
// use, so lengths, the IPv4 header checksum and the TCP/UDP (over the IPv4
// or IPv6 pseudo-header) and ICMP checksums are recomputed. This gives
// correct semantics for action lists that interleave rewrites and outputs
// (each output sees the packet as rewritten so far).
//
// The packet is a view: it keeps a span of the frame it was built from
// (the payload and, while unmodified, the whole wire image are read from
// there), so the frame must outlive the packet.
#pragma once

#include <optional>

#include "net/packet.h"
#include "openflow/actions.h"

namespace zen::dataplane {

class MutablePacket {
 public:
  // Parses `frame`, which must outlive this packet; check ok() before use.
  explicit MutablePacket(std::span<const std::uint8_t> frame);
  // A temporary frame would dangle.
  explicit MutablePacket(net::Bytes&&) = delete;

  bool ok() const noexcept { return ok_; }

  // Applies one field-modifying action. Output/Group/SetQueue are ignored
  // (the pipeline handles them). Returns false if the action cannot apply
  // (e.g. set_ipv4_src on an ARP packet, dec_ttl hitting zero, pop_vlan on
  // an untagged frame) — the packet is then dropped by the caller.
  bool apply(const openflow::Action& action);

  // Current flow key (reflects rewrites).
  net::FlowKey flow_key(std::uint32_t in_port) const noexcept {
    return parsed_.flow_key(in_port);
  }

  // True once any field rewrite has been applied.
  bool modified() const noexcept { return modified_; }

  const net::ParsedPacket& parsed() const noexcept { return parsed_; }

  // Wire bytes for the current state. If nothing was modified, returns the
  // original frame verbatim.
  net::Bytes serialize() const;

  // Size of serialize()'s result, without building it.
  std::size_t wire_size() const noexcept;

 private:
  net::ParsedPacket parsed_;
  std::span<const std::uint8_t> frame_;
  std::span<const std::uint8_t> payload_;  // tail of frame_
  bool ok_ = false;
  bool modified_ = false;
};

}  // namespace zen::dataplane
