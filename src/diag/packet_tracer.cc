#include "diag/packet_tracer.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/strings.h"

namespace zen::diag {

namespace {

std::string node_name(topo::NodeId id) {
  return topo::is_host_id(id) ? util::format("host 0x%llx",
                                             (unsigned long long)id)
                              : util::format("switch %llu",
                                             (unsigned long long)id);
}

std::string id_list_json(const std::vector<topo::NodeId>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) out += ",";
    out += util::format("%llu", (unsigned long long)ids[i]);
  }
  out += "]";
  return out;
}

struct TracerMetrics {
  obs::Counter& traces;
  obs::Counter& steps;

  static TracerMetrics& get() {
    static TracerMetrics m{
        obs::MetricsRegistry::global().counter(
            "zen_explain_traces_total", "",
            "End-to-end packet traces run by the explain engine"),
        obs::MetricsRegistry::global().counter(
            "zen_explain_steps_total", "",
            "Pipeline decision steps recorded across all explain traces"),
    };
    return m;
  }
};

}  // namespace

const char* to_string(PathVerdict verdict) noexcept {
  switch (verdict) {
    case PathVerdict::kDelivered: return "delivered";
    case PathVerdict::kDropped: return "dropped";
    case PathVerdict::kPacketIn: return "packet_in";
    case PathVerdict::kLoop: return "loop";
    case PathVerdict::kMaxHops: return "max_hops";
    case PathVerdict::kNoIngress: return "no_ingress";
  }
  return "unknown";
}

bool PathTrace::delivered_to(topo::NodeId host) const {
  return std::find(delivered_hosts.begin(), delivered_hosts.end(), host) !=
         delivered_hosts.end();
}

std::string PathTrace::to_text() const {
  std::string out = util::format("verdict: %s", to_string(verdict));
  if (verdict == PathVerdict::kLoop) {
    out += util::format(" (revisits switch %llu)",
                        (unsigned long long)loop_dpid);
  }
  out += util::format(" | %zu hop%s | path [", hops.size(),
                      hops.size() == 1 ? "" : "s");
  for (std::size_t i = 0; i < switch_path.size(); ++i) {
    if (i) out += " ";
    out += util::format("%llu", (unsigned long long)switch_path[i]);
  }
  out += "]\n";
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const PathHop& hop = hops[i];
    out += util::format("[hop %zu] ", i + 1);
    out += hop.explain.to_text();
    for (const PathHop::Output& o : hop.outputs) {
      out += util::format("  => port %u", o.port);
      if (o.queue_id != 0) out += util::format(" queue %u", o.queue_id);
      out += " " + o.note + "\n";
    }
  }
  for (topo::NodeId host : delivered_hosts) {
    out += util::format("delivered to host 0x%llx\n", (unsigned long long)host);
  }
  return out;
}

std::string PathTrace::to_json() const {
  std::string out = util::format("{\"verdict\":\"%s\"", to_string(verdict));
  out += ",\"switch_path\":" + id_list_json(switch_path);
  out += ",\"delivered_hosts\":" + id_list_json(delivered_hosts);
  if (loop_dpid != 0) {
    out += util::format(",\"loop_dpid\":%llu", (unsigned long long)loop_dpid);
  }
  out += ",\"hops\":[";
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const PathHop& hop = hops[i];
    if (i) out += ",";
    out += util::format("{\"dropped\":%s,\"packet_in\":%s,\"outputs\":[",
                        hop.dropped ? "true" : "false",
                        hop.packet_in ? "true" : "false");
    for (std::size_t j = 0; j < hop.outputs.size(); ++j) {
      const PathHop::Output& o = hop.outputs[j];
      if (j) out += ",";
      out += util::format(
          "{\"port\":%u,\"queue\":%u,\"peer\":%llu,\"peer_port\":%u,"
          "\"to_host\":%s,\"note\":\"%s\"}",
          o.port, o.queue_id, (unsigned long long)o.peer, o.peer_port,
          o.to_host ? "true" : "false", util::json_escape(o.note).c_str());
    }
    out += "],\"explain\":" + hop.explain.to_json() + "}";
  }
  out += "]}";
  return out;
}

PacketTracer::PacketTracer(sim::SimNetwork& net) : net_(net) {
  TracerMetrics::get();  // register the zen_explain_* series eagerly
}

dataplane::ExplainTrace PacketTracer::trace_switch(
    topo::NodeId sw, std::uint32_t in_port,
    std::span<const std::uint8_t> frame) {
  dataplane::ExplainTrace trace;
  trace.dpid = sw;
  trace.in_port = in_port;
  if (!net_.switches().contains(sw)) return trace;
  ++stats_.switch_visits;
  if (!net_.switch_up(sw)) {
    dataplane::ExplainStep step;
    step.kind = dataplane::ExplainStepKind::kDrop;
    step.detail = "switch is down (crashed)";
    trace.steps.push_back(std::move(step));
    return trace;
  }
  net_.switch_at(sw).explain(net_.now(), in_port, frame, &trace);
  stats_.steps += trace.steps.size();
  TracerMetrics::get().steps.inc(trace.steps.size());
  return trace;
}

void PacketTracer::walk(PathTrace& out, std::vector<topo::NodeId>& chain,
                        topo::NodeId sw, std::uint32_t in_port,
                        std::span<const std::uint8_t> frame, int hops_left,
                        WalkFlags& flags) {
  if (hops_left <= 0) {
    flags.max_hops = true;
    return;
  }
  if (std::find(chain.begin(), chain.end(), sw) != chain.end()) {
    flags.loop = true;
    if (out.loop_dpid == 0) out.loop_dpid = sw;
    return;
  }
  if (std::find(out.switch_path.begin(), out.switch_path.end(), sw) ==
      out.switch_path.end()) {
    out.switch_path.push_back(sw);
  }
  chain.push_back(sw);

  PathHop hop;
  hop.dpid = sw;
  hop.in_port = in_port;
  hop.explain.dpid = sw;
  hop.explain.in_port = in_port;

  dataplane::ForwardResult result;
  if (net_.switch_up(sw)) {
    ++stats_.switch_visits;
    result = net_.switch_at(sw).explain(net_.now(), in_port, frame,
                                        &hop.explain);
    stats_.steps += hop.explain.steps.size();
    TracerMetrics::get().steps.inc(hop.explain.steps.size());
  } else {
    dataplane::ExplainStep step;
    step.kind = dataplane::ExplainStepKind::kDrop;
    step.detail = "switch is down (crashed)";
    hop.explain.steps.push_back(std::move(step));
    result.dropped = true;
  }
  hop.dropped = result.dropped;
  hop.packet_in = result.packet_in.has_value();
  if (hop.packet_in) flags.packet_in = true;

  // Resolve each egress against the topology before recursing, so the hop
  // record is complete even if a recursion path terminates early.
  struct Pending {
    topo::NodeId peer = 0;
    std::uint32_t peer_port = 0;
    const net::Bytes* frame = nullptr;
  };
  std::vector<Pending> pending;
  for (const dataplane::Egress& egress : result.outputs) {
    PathHop::Output o;
    o.port = egress.port;
    o.queue_id = egress.queue_id;
    const topo::Link* link = net_.topology().link_at(sw, egress.port);
    if (link == nullptr) {
      o.note = "no link on this port (frame lost)";
    } else if (!link->up) {
      o.note = "link down (frame lost)";
    } else {
      o.peer = link->other(sw);
      o.peer_port = link->port_at(o.peer);
      o.to_host = topo::is_host_id(o.peer);
      o.note = "-> " + node_name(o.peer) + util::format(" port %u", o.peer_port);
      if (o.to_host) {
        o.note += " (delivered)";
        if (!out.delivered_to(o.peer)) out.delivered_hosts.push_back(o.peer);
      } else {
        pending.push_back({o.peer, o.peer_port, &egress.frame});
      }
    }
    hop.outputs.push_back(std::move(o));
  }
  out.hops.push_back(std::move(hop));

  for (const Pending& next : pending) {
    walk(out, chain, next.peer, next.peer_port,
         std::span<const std::uint8_t>(next.frame->data(), next.frame->size()),
         hops_left - 1, flags);
  }
  chain.pop_back();
}

PathTrace PacketTracer::trace(topo::NodeId sw, std::uint32_t in_port,
                              std::span<const std::uint8_t> frame,
                              int max_hops) {
  PathTrace out;
  ++stats_.traces;
  TracerMetrics::get().traces.inc();
  if (!net_.switches().contains(sw)) {
    out.verdict = PathVerdict::kNoIngress;
    return out;
  }
  std::vector<topo::NodeId> chain;
  WalkFlags flags;
  walk(out, chain, sw, in_port, frame, max_hops, flags);

  if (flags.loop) {
    out.verdict = PathVerdict::kLoop;
  } else if (flags.max_hops) {
    out.verdict = PathVerdict::kMaxHops;
  } else if (!out.delivered_hosts.empty()) {
    out.verdict = PathVerdict::kDelivered;
  } else if (flags.packet_in) {
    out.verdict = PathVerdict::kPacketIn;
  } else {
    out.verdict = PathVerdict::kDropped;
  }
  switch (out.verdict) {
    case PathVerdict::kDelivered: ++stats_.delivered; break;
    case PathVerdict::kLoop:
    case PathVerdict::kMaxHops: ++stats_.loops; break;
    default: ++stats_.dropped; break;
  }
  return out;
}

PathTrace PacketTracer::trace_from_host(topo::NodeId host,
                                        std::span<const std::uint8_t> frame,
                                        int max_hops) {
  for (const topo::HostAttachment& att : net_.generated().attachments) {
    if (att.host == host) {
      return trace(att.sw, att.sw_port, frame, max_hops);
    }
  }
  PathTrace out;
  out.verdict = PathVerdict::kNoIngress;
  ++stats_.traces;
  ++stats_.dropped;
  TracerMetrics::get().traces.inc();
  return out;
}

std::string PacketTracer::stats_json() const {
  return util::format(
      "{\"traces\":%llu,\"switch_visits\":%llu,\"steps\":%llu,"
      "\"delivered\":%llu,\"dropped\":%llu,\"loops\":%llu}",
      (unsigned long long)stats_.traces,
      (unsigned long long)stats_.switch_visits,
      (unsigned long long)stats_.steps, (unsigned long long)stats_.delivered,
      (unsigned long long)stats_.dropped, (unsigned long long)stats_.loops);
}

}  // namespace zen::diag
