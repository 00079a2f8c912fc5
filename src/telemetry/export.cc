#include "telemetry/export.h"

#include "util/buffer.h"

namespace zen::telemetry {

namespace {

constexpr std::uint8_t kBatchVersion = 1;

void encode_flow_key(const net::FlowKey& k, util::ByteWriter& w) {
  w.u32(k.in_port);
  w.u64(k.eth_src);
  w.u64(k.eth_dst);
  w.u16(k.eth_type);
  w.u16(k.vlan_vid);
  w.u8(k.vlan_pcp);
  w.u32(k.ipv4_src);
  w.u32(k.ipv4_dst);
  w.u64(k.ipv6_src_hi);
  w.u64(k.ipv6_src_lo);
  w.u64(k.ipv6_dst_hi);
  w.u64(k.ipv6_dst_lo);
  w.u8(k.ip_proto);
  w.u8(k.ip_dscp);
  w.u16(k.l4_src);
  w.u16(k.l4_dst);
  w.u16(k.arp_op);
}

net::FlowKey decode_flow_key(util::ByteReader& r) {
  net::FlowKey k;
  k.in_port = r.u32();
  k.eth_src = r.u64();
  k.eth_dst = r.u64();
  k.eth_type = r.u16();
  k.vlan_vid = r.u16();
  k.vlan_pcp = r.u8();
  k.ipv4_src = r.u32();
  k.ipv4_dst = r.u32();
  k.ipv6_src_hi = r.u64();
  k.ipv6_src_lo = r.u64();
  k.ipv6_dst_hi = r.u64();
  k.ipv6_dst_lo = r.u64();
  k.ip_proto = r.u8();
  k.ip_dscp = r.u8();
  k.l4_src = r.u16();
  k.l4_dst = r.u16();
  k.arp_op = r.u16();
  return k;
}

}  // namespace

net::Bytes encode_batch(const ExportBatch& batch) {
  net::Bytes out;
  util::ByteWriter w(out);
  w.u8(kBatchVersion);
  w.u64(batch.switch_id);
  w.u64(batch.exported_at_ns);
  w.u32(static_cast<std::uint32_t>(batch.flows.size()));
  w.u32(static_cast<std::uint32_t>(batch.paths.size()));
  for (const FlowRecord& f : batch.flows) {
    encode_flow_key(f.key, w);
    w.u64(f.packets);
    w.u64(f.bytes);
    w.u64(f.first_seen_ns);
    w.u64(f.last_seen_ns);
  }
  for (const PathRecord& p : batch.paths) {
    w.u32(p.ipv4_src);
    w.u32(p.ipv4_dst);
    w.u8(p.ip_proto);
    w.u16(p.l4_src);
    w.u16(p.l4_dst);
    w.u16(static_cast<std::uint16_t>(p.hops.size()));
    for (const net::TelemetryHop& h : p.hops) net::write_hop(w, h);
  }
  return out;
}

util::Result<ExportBatch> decode_batch(std::span<const std::uint8_t> payload) {
  util::ByteReader r(payload);
  if (r.u8() != kBatchVersion) {
    return util::make_error<ExportBatch>("export batch: bad version");
  }
  ExportBatch batch;
  batch.switch_id = r.u64();
  batch.exported_at_ns = r.u64();
  const std::uint32_t n_flows = r.u32();
  const std::uint32_t n_paths = r.u32();
  if (!r.ok()) {
    return util::make_error<ExportBatch>("export batch: truncated header");
  }
  for (std::uint32_t i = 0; i < n_flows && r.ok(); ++i) {
    FlowRecord f;
    f.key = decode_flow_key(r);
    f.packets = r.u64();
    f.bytes = r.u64();
    f.first_seen_ns = r.u64();
    f.last_seen_ns = r.u64();
    batch.flows.push_back(f);
  }
  for (std::uint32_t i = 0; i < n_paths && r.ok(); ++i) {
    PathRecord p;
    p.ipv4_src = r.u32();
    p.ipv4_dst = r.u32();
    p.ip_proto = r.u8();
    p.l4_src = r.u16();
    p.l4_dst = r.u16();
    const std::uint16_t n_hops = r.u16();
    for (std::uint16_t h = 0; h < n_hops && r.ok(); ++h) {
      p.hops.push_back(net::read_hop(r));
    }
    batch.paths.push_back(std::move(p));
  }
  if (!r.ok()) {
    return util::make_error<ExportBatch>("export batch: truncated records");
  }
  if (r.remaining() != 0) {
    return util::make_error<ExportBatch>("export batch: trailing bytes");
  }
  return batch;
}

openflow::Experimenter make_export_message(const ExportBatch& batch) {
  openflow::Experimenter msg;
  msg.experimenter_id = kExperimenterId;
  msg.exp_type = kExpTypeExportBatch;
  msg.payload = encode_batch(batch);
  return msg;
}

util::Result<ExportBatch> parse_export_message(
    const openflow::Experimenter& msg) {
  if (msg.experimenter_id != kExperimenterId) {
    return util::make_error<ExportBatch>(
        "export batch: foreign experimenter id");
  }
  if (msg.exp_type != kExpTypeExportBatch) {
    return util::make_error<ExportBatch>("export batch: unknown exp_type");
  }
  return decode_batch(msg.payload);
}

}  // namespace zen::telemetry
