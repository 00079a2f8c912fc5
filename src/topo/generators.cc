#include "topo/generators.h"

#include <cassert>
#include <map>
#include <string>

namespace zen::topo {

namespace {

// Tracks the next free port number on each node.
class PortAllocator {
 public:
  std::uint32_t next(NodeId node) { return ++ports_[node]; }

 private:
  std::map<NodeId, std::uint32_t> ports_;
};

void attach_host(GeneratedTopo& g, PortAllocator& ports, NodeId host_id,
                 NodeId sw, double link_bps, double latency_s) {
  g.topo.add_node(
      host_id, NodeKind::Host,
      std::string("h").append(std::to_string(host_id - kHostIdBase)));
  const std::uint32_t sw_port = ports.next(sw);
  const std::uint32_t host_port = 1;
  g.topo.add_link(host_id, host_port, sw, sw_port, link_bps, latency_s);
  g.hosts.push_back(host_id);
  g.attachments.push_back(HostAttachment{host_id, sw, sw_port, host_port});
}

GeneratedTopo make_chain(std::size_t n_switches, std::size_t hosts_per_switch,
                         double link_bps, double latency_s, bool ring) {
  GeneratedTopo g;
  PortAllocator ports;
  for (std::size_t i = 0; i < n_switches; ++i) {
    const NodeId id = i + 1;
    g.topo.add_node(id, NodeKind::Switch,
                    std::string("s").append(std::to_string(id)));
    g.switches.push_back(id);
  }
  for (std::size_t i = 0; i + 1 < n_switches; ++i) {
    const NodeId a = i + 1, b = i + 2;
    g.topo.add_link(a, ports.next(a), b, ports.next(b), link_bps, latency_s);
  }
  if (ring && n_switches > 2) {
    const NodeId a = n_switches, b = 1;
    g.topo.add_link(a, ports.next(a), b, ports.next(b), link_bps, latency_s);
  }
  NodeId next_host = kHostIdBase;
  for (std::size_t i = 0; i < n_switches; ++i) {
    for (std::size_t h = 0; h < hosts_per_switch; ++h)
      attach_host(g, ports, next_host++, i + 1, link_bps, latency_s);
  }
  return g;
}

}  // namespace

GeneratedTopo make_linear(std::size_t n_switches, std::size_t hosts_per_switch,
                          double link_bps, double latency_s) {
  return make_chain(n_switches, hosts_per_switch, link_bps, latency_s, false);
}

GeneratedTopo make_ring(std::size_t n_switches, std::size_t hosts_per_switch,
                        double link_bps, double latency_s) {
  return make_chain(n_switches, hosts_per_switch, link_bps, latency_s, true);
}

GeneratedTopo make_fat_tree(std::size_t k, double link_bps, double latency_s) {
  assert(k >= 2 && k % 2 == 0);
  GeneratedTopo g;
  PortAllocator ports;
  const std::size_t half = k / 2;
  const std::size_t n_core = half * half;

  // Id layout: cores 1..n_core, then per pod: aggs, then edges.
  std::vector<NodeId> cores;
  NodeId next_id = 1;
  for (std::size_t c = 0; c < n_core; ++c) {
    g.topo.add_node(next_id, NodeKind::Switch, "core" + std::to_string(c));
    cores.push_back(next_id);
    g.switches.push_back(next_id++);
  }

  NodeId next_host = kHostIdBase;
  for (std::size_t pod = 0; pod < k; ++pod) {
    std::vector<NodeId> aggs, edges;
    for (std::size_t a = 0; a < half; ++a) {
      g.topo.add_node(next_id, NodeKind::Switch,
                      "agg" + std::to_string(pod) + "_" + std::to_string(a));
      aggs.push_back(next_id);
      g.switches.push_back(next_id++);
    }
    for (std::size_t e = 0; e < half; ++e) {
      g.topo.add_node(next_id, NodeKind::Switch,
                      "edge" + std::to_string(pod) + "_" + std::to_string(e));
      edges.push_back(next_id);
      g.switches.push_back(next_id++);
    }
    // Aggregation <-> core: agg a connects to cores [a*half, (a+1)*half).
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        const NodeId core = cores[a * half + c];
        g.topo.add_link(aggs[a], ports.next(aggs[a]), core, ports.next(core),
                        link_bps, latency_s);
      }
    }
    // Edge <-> aggregation: full bipartite within the pod.
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        g.topo.add_link(edges[e], ports.next(edges[e]), aggs[a],
                        ports.next(aggs[a]), link_bps, latency_s);
      }
    }
    // Hosts on edge switches.
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t h = 0; h < half; ++h)
        attach_host(g, ports, next_host++, edges[e], link_bps, latency_s);
    }
  }
  return g;
}

GeneratedTopo make_leaf_spine(std::size_t n_spine, std::size_t n_leaf,
                              std::size_t hosts_per_leaf, double link_bps,
                              double latency_s) {
  GeneratedTopo g;
  PortAllocator ports;
  std::vector<NodeId> spines, leaves;
  NodeId next_id = 1;
  for (std::size_t s = 0; s < n_spine; ++s) {
    g.topo.add_node(next_id, NodeKind::Switch, "spine" + std::to_string(s));
    spines.push_back(next_id);
    g.switches.push_back(next_id++);
  }
  for (std::size_t l = 0; l < n_leaf; ++l) {
    g.topo.add_node(next_id, NodeKind::Switch, "leaf" + std::to_string(l));
    leaves.push_back(next_id);
    g.switches.push_back(next_id++);
  }
  for (const NodeId leaf : leaves)
    for (const NodeId spine : spines)
      g.topo.add_link(leaf, ports.next(leaf), spine, ports.next(spine),
                      link_bps, latency_s);
  NodeId next_host = kHostIdBase;
  for (const NodeId leaf : leaves)
    for (std::size_t h = 0; h < hosts_per_leaf; ++h)
      attach_host(g, ports, next_host++, leaf, link_bps, latency_s);
  return g;
}

GeneratedTopo make_jellyfish(std::size_t n_switches, std::size_t degree,
                             std::size_t hosts_per_switch, util::Rng& rng,
                             double link_bps, double latency_s) {
  assert(degree < n_switches);
  GeneratedTopo g;
  PortAllocator ports;
  for (std::size_t i = 0; i < n_switches; ++i) {
    const NodeId id = i + 1;
    g.topo.add_node(id, NodeKind::Switch,
                    std::string("j").append(std::to_string(id)));
    g.switches.push_back(id);
  }

  auto free_ports = std::vector<std::size_t>(n_switches + 1, degree);
  auto connect = [&](NodeId a, NodeId b) {
    g.topo.add_link(a, ports.next(a), b, ports.next(b), link_bps, latency_s);
    --free_ports[a];
    --free_ports[b];
  };

  // Jellyfish construction: repeatedly join two random switches with free
  // ports that are not yet adjacent. When stuck (remaining free ports all
  // cluster on adjacent/same switches), break a random existing link and
  // rewire through a stuck switch.
  std::size_t stuck_iterations = 0;
  for (;;) {
    std::vector<NodeId> candidates;
    for (NodeId id = 1; id <= n_switches; ++id)
      if (free_ports[id] > 0) candidates.push_back(id);
    if (candidates.empty()) break;
    if (candidates.size() == 1 || stuck_iterations > n_switches * degree * 4) {
      const auto links = g.topo.links();
      if (links.empty()) break;
      if (candidates.size() == 1 && free_ports[candidates[0]] >= 2) {
        // One switch with >= 2 free ports: splice it into a random link.
        const NodeId stuck = candidates.front();
        const Link victim = *links[rng.next_below(links.size())];
        if (victim.a == stuck || victim.b == stuck) {
          ++stuck_iterations;
          continue;
        }
        g.topo.remove_link(victim.id);
        ++free_ports[victim.a];
        ++free_ports[victim.b];
        connect(victim.a, stuck);
        connect(victim.b, stuck);
        stuck_iterations = 0;
        continue;
      }
      if (candidates.size() >= 2) {
        // Two stuck switches (typically mutually adjacent): edge-swap with
        // a random existing link (c, d): replace it by a-c and b-d.
        const NodeId a = candidates[0];
        const NodeId b = candidates[1];
        const Link victim = *links[rng.next_below(links.size())];
        const NodeId c = victim.a, d = victim.b;
        if (c == a || c == b || d == a || d == b ||
            g.topo.link_between(a, c) || g.topo.link_between(b, d)) {
          ++stuck_iterations;
          // Avoid livelock: give up after many failed swap attempts.
          if (stuck_iterations > n_switches * degree * 8) break;
          continue;
        }
        g.topo.remove_link(victim.id);
        ++free_ports[c];
        ++free_ports[d];
        connect(a, c);
        connect(b, d);
        stuck_iterations = 0;
        continue;
      }
      break;  // single switch with one free port: leave it unwired
    }
    const NodeId a = candidates[rng.next_below(candidates.size())];
    const NodeId b = candidates[rng.next_below(candidates.size())];
    if (a == b || g.topo.link_between(a, b)) {
      ++stuck_iterations;
      continue;
    }
    connect(a, b);
    stuck_iterations = 0;
  }

  NodeId next_host = kHostIdBase;
  for (std::size_t i = 0; i < n_switches; ++i)
    for (std::size_t h = 0; h < hosts_per_switch; ++h)
      attach_host(g, ports, next_host++, i + 1, link_bps, latency_s);
  return g;
}

GeneratedTopo make_random_connected(std::size_t n_switches, double avg_degree,
                                    util::Rng& rng, double link_bps,
                                    double latency_s) {
  GeneratedTopo g;
  PortAllocator ports;
  for (std::size_t i = 0; i < n_switches; ++i) {
    const NodeId id = i + 1;
    g.topo.add_node(id, NodeKind::Switch,
                    std::string("s").append(std::to_string(id)));
    g.switches.push_back(id);
  }
  // Random spanning tree: attach node i to a random earlier node.
  for (std::size_t i = 1; i < n_switches; ++i) {
    const NodeId a = i + 1;
    const NodeId b = rng.next_below(i) + 1;
    g.topo.add_link(a, ports.next(a), b, ports.next(b), link_bps, latency_s);
  }
  // Extra edges to reach the target average degree.
  const std::size_t target_links =
      static_cast<std::size_t>(avg_degree * static_cast<double>(n_switches) / 2.0);
  std::size_t attempts = 0;
  while (g.topo.link_count() < target_links && attempts < target_links * 20) {
    ++attempts;
    const NodeId a = rng.next_below(n_switches) + 1;
    const NodeId b = rng.next_below(n_switches) + 1;
    if (a == b || g.topo.link_between(a, b)) continue;
    g.topo.add_link(a, ports.next(a), b, ports.next(b), link_bps, latency_s);
  }
  NodeId next_host = kHostIdBase;
  for (std::size_t i = 0; i < n_switches; ++i)
    attach_host(g, ports, next_host++, i + 1, link_bps, latency_s);
  return g;
}

GeneratedTopo make_wan_abilene(double link_bps) {
  GeneratedTopo g;
  PortAllocator ports;
  // PoPs: 1 Seattle, 2 Sunnyvale, 3 Los Angeles, 4 Denver, 5 Kansas City,
  // 6 Houston, 7 Chicago, 8 Indianapolis, 9 Atlanta, 10 Washington DC,
  // 11 New York.
  const char* names[] = {"SEA", "SNV", "LAX", "DEN", "KCY", "HOU",
                         "CHI", "IND", "ATL", "WDC", "NYC"};
  for (NodeId id = 1; id <= 11; ++id) {
    g.topo.add_node(id, NodeKind::Switch, names[id - 1]);
    g.switches.push_back(id);
  }
  struct WanLink {
    NodeId a, b;
    double ms;  // one-way propagation
  };
  const WanLink wan_links[] = {
      {1, 2, 13}, {1, 4, 16}, {2, 3, 6},  {2, 4, 15}, {3, 6, 22},
      {4, 5, 9},  {5, 6, 12}, {5, 8, 7},  {6, 9, 14}, {7, 8, 3},
      {7, 11, 13}, {8, 9, 8},  {9, 10, 9}, {10, 11, 4},
  };
  for (const auto& wl : wan_links) {
    g.topo.add_link(wl.a, ports.next(wl.a), wl.b, ports.next(wl.b), link_bps,
                    wl.ms / 1000.0);
  }
  // One site (host) per PoP.
  NodeId next_host = kHostIdBase;
  for (NodeId sw = 1; sw <= 11; ++sw)
    attach_host(g, ports, next_host++, sw, link_bps, 1e-5);
  return g;
}

}  // namespace zen::topo
