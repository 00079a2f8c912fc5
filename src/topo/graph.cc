#include "topo/graph.h"

#include <algorithm>

namespace zen::topo {

bool Topology::add_node(NodeId id, NodeKind kind, std::string name) {
  if (nodes_.contains(id)) return false;
  Node n;
  n.id = id;
  n.kind = kind;
  n.name = name.empty() ? std::string("n").append(std::to_string(id))
                         : std::move(name);
  nodes_.emplace(id, std::move(n));
  adjacency_.try_emplace(id);
  ++version_;
  return true;
}

bool Topology::remove_node(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  // Remove incident links first.
  const auto adj_it = adjacency_.find(id);
  if (adj_it != adjacency_.end()) {
    for (const LinkId lid : std::vector<LinkId>(adj_it->second)) remove_link(lid);
  }
  adjacency_.erase(id);
  nodes_.erase(it);
  ++version_;
  return true;
}

std::optional<LinkId> Topology::add_link(NodeId a, std::uint32_t a_port,
                                         NodeId b, std::uint32_t b_port,
                                         double capacity_bps, double latency_s,
                                         double cost) {
  if (!nodes_.contains(a) || !nodes_.contains(b) || a == b) return std::nullopt;
  if (link_at(a, a_port) || link_at(b, b_port)) return std::nullopt;
  const LinkId id = next_link_id_++;
  Link link;
  link.id = id;
  link.a = a;
  link.a_port = a_port;
  link.b = b;
  link.b_port = b_port;
  link.capacity_bps = capacity_bps;
  link.latency_s = latency_s;
  link.cost = cost;
  links_.emplace(id, link);
  adjacency_[a].push_back(id);
  adjacency_[b].push_back(id);
  ++version_;
  return id;
}

bool Topology::remove_link(LinkId id) {
  const auto it = links_.find(id);
  if (it == links_.end()) return false;
  for (const NodeId endpoint : {it->second.a, it->second.b}) {
    auto& adj = adjacency_[endpoint];
    adj.erase(std::remove(adj.begin(), adj.end(), id), adj.end());
  }
  links_.erase(it);
  ++version_;
  return true;
}

bool Topology::set_link_up(LinkId id, bool up) {
  const auto it = links_.find(id);
  if (it == links_.end() || it->second.up == up) return false;
  it->second.up = up;
  ++version_;
  return true;
}

bool Topology::set_node_up(NodeId id, bool up) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end() || it->second.up == up) return false;
  it->second.up = up;
  ++version_;
  return true;
}

const Node* Topology::node(NodeId id) const noexcept {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

const Link* Topology::link(LinkId id) const noexcept {
  const auto it = links_.find(id);
  return it == links_.end() ? nullptr : &it->second;
}

Link* Topology::mutable_link(LinkId id) noexcept {
  const auto it = links_.find(id);
  return it == links_.end() ? nullptr : &it->second;
}

const Link* Topology::link_at(NodeId node, std::uint32_t port) const noexcept {
  const auto it = adjacency_.find(node);
  if (it == adjacency_.end()) return nullptr;
  for (const LinkId lid : it->second) {
    const Link& l = links_.at(lid);
    if ((l.a == node && l.a_port == port) || (l.b == node && l.b_port == port))
      return &l;
  }
  return nullptr;
}

const Link* Topology::link_between(NodeId a, NodeId b) const noexcept {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return nullptr;
  for (const LinkId lid : it->second) {
    const Link& l = links_.at(lid);
    if (l.up && l.other(a) == b) return &l;
  }
  return nullptr;
}

std::vector<const Link*> Topology::links_of(NodeId id) const {
  std::vector<const Link*> out;
  const Node* n = node(id);
  if (!n || !n->up) return out;
  const auto it = adjacency_.find(id);
  if (it == adjacency_.end()) return out;
  for (const LinkId lid : it->second) {
    const Link& l = links_.at(lid);
    const Node* peer = node(l.other(id));
    if (l.up && peer && peer->up) out.push_back(&l);
  }
  return out;
}

std::vector<NodeId> Topology::neighbors(NodeId id) const {
  std::vector<NodeId> out;
  for (const Link* l : links_of(id)) out.push_back(l->other(id));
  return out;
}

std::vector<const Node*> Topology::nodes() const {
  std::vector<const Node*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) out.push_back(&n);
  std::sort(out.begin(), out.end(),
            [](const Node* a, const Node* b) { return a->id < b->id; });
  return out;
}

std::vector<const Link*> Topology::links() const {
  std::vector<const Link*> out;
  out.reserve(links_.size());
  for (const auto& [id, l] : links_) out.push_back(&l);
  std::sort(out.begin(), out.end(),
            [](const Link* a, const Link* b) { return a->id < b->id; });
  return out;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (const auto& [id, n] : nodes_)
    if (n.kind == kind) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace zen::topo
