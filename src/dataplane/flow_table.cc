#include "dataplane/flow_table.h"

#include <algorithm>

namespace zen::dataplane {

bool outputs_to_port(const FlowEntry& entry, std::uint32_t port) noexcept {
  if (port == openflow::Ports::kAny) return true;
  for (const auto& ins : entry.instructions) {
    const openflow::ActionList* actions = nullptr;
    if (const auto* apply = std::get_if<openflow::ApplyActions>(&ins))
      actions = &apply->actions;
    else if (const auto* write = std::get_if<openflow::WriteActions>(&ins))
      actions = &write->actions;
    if (!actions) continue;
    for (const auto& a : *actions) {
      if (const auto* out = std::get_if<openflow::OutputAction>(&a);
          out && out->port == port)
        return true;
    }
  }
  return false;
}

bool FlowTable::contains(const openflow::Match& match,
                         std::uint16_t priority) const noexcept {
  const auto group_it = groups_.find(match.mask());
  if (group_it == groups_.end()) return false;
  const auto bucket_it = group_it->second.by_key.find(match.value());
  if (bucket_it == group_it->second.by_key.end()) return false;
  return std::any_of(bucket_it->second.begin(), bucket_it->second.end(),
                     [&](const FlowEntryPtr& e) {
                       return e->priority == priority && e->match == match;
                     });
}

FlowEntryPtr FlowTable::evict(std::uint16_t incoming_importance) {
  if (eviction_ == EvictionPolicy::Off || count_ == 0) return nullptr;

  // Victim order: Importance = (importance asc, last_used_at asc);
  // Lru = last_used_at asc alone. Scanning every entry keeps the policy
  // exact; eviction only runs when a bounded table is already full, so the
  // scan is bounded by max_entries.
  const FlowEntry* victim = nullptr;
  for (const auto& [mask, group] : groups_) {
    for (const auto& [key, bucket] : group.by_key) {
      for (const auto& entry : bucket) {
        if (!victim) {
          victim = entry.get();
          continue;
        }
        bool better;
        if (eviction_ == EvictionPolicy::Importance) {
          better = entry->importance < victim->importance ||
                   (entry->importance == victim->importance &&
                    entry->last_used_at < victim->last_used_at);
        } else {
          better = entry->last_used_at < victim->last_used_at;
        }
        if (better) victim = entry.get();
      }
    }
  }
  if (eviction_ == EvictionPolicy::Importance &&
      victim->importance > incoming_importance) {
    return nullptr;  // nothing expendable: the Add must fail, not displace
  }
  auto removed = remove_if([&](const FlowEntry& e) { return &e == victim; });
  return removed.empty() ? nullptr : std::move(removed.front());
}

FlowEntryPtr FlowTable::add(FlowEntry entry, double now) {
  entry.created_at = now;
  entry.last_used_at = now;
  auto ptr = std::make_shared<FlowEntry>(std::move(entry));

  const std::size_t n_groups = groups_.size();
  auto& group = groups_[ptr->match.mask()];
  group.mask = ptr->match.mask();
  // New group, or a priority that raises the group's ceiling: either can
  // change the probe order. Same-priority inserts (the steady state) leave
  // it untouched so lookups skip the re-sort.
  if (groups_.size() != n_groups || ptr->priority > group.max_priority)
    order_dirty_ = true;
  auto& bucket = group.by_key[ptr->match.value()];

  // Replace an identical (match, priority) entry if present.
  const auto existing = std::find_if(
      bucket.begin(), bucket.end(), [&](const FlowEntryPtr& e) {
        return e->priority == ptr->priority && e->match == ptr->match;
      });
  if (existing != bucket.end()) {
    *existing = ptr;
  } else {
    bucket.push_back(ptr);
    // Buckets are almost always singletons (one priority per masked key);
    // only re-sort when a second entry actually lands in one.
    if (bucket.size() > 1) {
      std::sort(bucket.begin(), bucket.end(),
                [](const FlowEntryPtr& a, const FlowEntryPtr& b) {
                  return a->priority > b->priority;
                });
    }
    ++count_;
  }
  group.max_priority = std::max(group.max_priority, ptr->priority);
  return ptr;
}

std::size_t FlowTable::modify(const openflow::Match& match,
                              std::uint16_t priority,
                              const openflow::InstructionList& instructions,
                              bool strict) {
  std::size_t updated = 0;
  for (auto& [mask, group] : groups_) {
    for (auto& [key, bucket] : group.by_key) {
      for (auto& entry : bucket) {
        const bool hit = strict
                             ? entry->priority == priority && entry->match == match
                             : entry->match.subsumed_by(match);
        if (hit) {
          entry->instructions = instructions;
          ++updated;
        }
      }
    }
  }
  return updated;
}

template <typename Pred>
std::vector<FlowEntryPtr> FlowTable::remove_if(Pred&& pred) {
  std::vector<FlowEntryPtr> removed;
  for (auto group_it = groups_.begin(); group_it != groups_.end();) {
    auto& group = group_it->second;
    for (auto key_it = group.by_key.begin(); key_it != group.by_key.end();) {
      auto& bucket = key_it->second;
      const auto mid = std::stable_partition(
          bucket.begin(), bucket.end(),
          [&](const FlowEntryPtr& e) { return !pred(*e); });
      removed.insert(removed.end(), mid, bucket.end());
      bucket.erase(mid, bucket.end());
      key_it = bucket.empty() ? group.by_key.erase(key_it) : std::next(key_it);
    }
    if (group.by_key.empty()) {
      group_it = groups_.erase(group_it);
    } else {
      rebuild_group_priority(group);
      ++group_it;
    }
  }
  count_ -= removed.size();
  // Erased groups invalidate probe_order_ pointers; rebuilt priorities can
  // reorder it. Removals are rare next to lookups, so just re-sort lazily.
  if (!removed.empty()) order_dirty_ = true;
  return removed;
}

std::vector<FlowEntryPtr> FlowTable::remove(const openflow::Match& match,
                                            std::uint16_t priority, bool strict,
                                            std::uint32_t out_port) {
  return remove_if([&](const FlowEntry& e) {
    if (!outputs_to_port(e, out_port)) return false;
    return strict ? e.priority == priority && e.match == match
                  : e.match.subsumed_by(match);
  });
}

void FlowTable::rebuild_group_priority(MaskGroup& group) noexcept {
  group.max_priority = 0;
  // remove_if erases emptied buckets first, so every front() exists.
  for (const auto& [key, bucket] : group.by_key)
    group.max_priority = std::max(group.max_priority, bucket.front()->priority);
}

void FlowTable::refresh_probe_order() const {
  if (!order_dirty_ && probe_order_.size() == groups_.size()) return;
  probe_order_.clear();
  probe_order_.reserve(groups_.size());
  for (const auto& [mask, group] : groups_) probe_order_.push_back(&group);
  std::stable_sort(probe_order_.begin(), probe_order_.end(),
                   [](const MaskGroup* a, const MaskGroup* b) {
                     return a->max_priority > b->max_priority;
                   });
  order_dirty_ = false;
}

namespace {

// Mask specificity for the explain record: how many fields are constrained.
int mask_field_count(const net::FlowMask& m) noexcept {
  int n = 0;
  n += m.in_port != 0;
  n += m.eth_src != 0;
  n += m.eth_dst != 0;
  n += m.eth_type != 0;
  n += m.vlan_vid != 0;
  n += m.vlan_pcp != 0;
  n += m.ipv4_src != 0;
  n += m.ipv4_dst != 0;
  n += (m.ipv6_src_hi | m.ipv6_src_lo) != 0;
  n += (m.ipv6_dst_hi | m.ipv6_dst_lo) != 0;
  n += m.ip_proto != 0;
  n += m.ip_dscp != 0;
  n += m.l4_src != 0;
  n += m.l4_dst != 0;
  n += m.arp_op != 0;
  return n;
}

}  // namespace

FlowEntryPtr FlowTable::lookup(const net::FlowKey& key) noexcept {
  ++lookups_;
  FlowEntryPtr best = find_best(key);
  if (best) ++matches_;
  return best;
}

FlowEntryPtr FlowTable::find_best(const net::FlowKey& key,
                                  LookupExplain* ex) const {
  FlowEntryPtr best;
  refresh_probe_order();
  for (std::size_t i = 0; i < probe_order_.size(); ++i) {
    const MaskGroup& group = *probe_order_[i];
    if (best && group.max_priority <= best->priority) {
      // Probe order is sorted by max_priority desc, so no later group
      // can beat the best hit either: record the tail as pruned (the
      // explain contract covers every mask) and stop probing.
      for (std::size_t j = i; ex && j < probe_order_.size(); ++j)
        ex->masks.push_back({mask_field_count(probe_order_[j]->mask),
                             probe_order_[j]->max_priority,
                             /*hit=*/false, /*pruned=*/true});
      break;
    }
    const net::FlowKey masked = group.mask.apply(key);
    const auto it = group.by_key.find(masked);
    const bool hit = it != group.by_key.end();
    if (ex)
      ex->masks.push_back({mask_field_count(group.mask), group.max_priority,
                           hit, /*pruned=*/false});
    if (!hit) continue;
    // Buckets are priority-sorted and never empty: the front is the best.
    const FlowEntryPtr& top = it->second.front();
    if (!best || top->priority > best->priority) best = top;
  }
  return best;
}

std::vector<FlowEntryPtr> FlowTable::expire(double now) {
  return remove_if([&](const FlowEntry& e) {
    if (e.hard_timeout > 0 && now - e.created_at >= e.hard_timeout) return true;
    if (e.idle_timeout > 0 && now - e.last_used_at >= e.idle_timeout) return true;
    return false;
  });
}

std::vector<FlowEntryPtr> FlowTable::entries() const {
  std::vector<FlowEntryPtr> out;
  out.reserve(count_);
  for (const auto& [mask, group] : groups_)
    for (const auto& [key, bucket] : group.by_key)
      out.insert(out.end(), bucket.begin(), bucket.end());
  return out;
}

FlowTable FlowTable::clone() const {
  FlowTable copy;
  copy.set_capacity(max_entries_, eviction_);
  copy.groups_ = groups_;  // structure; the buckets still share the entries
  // probe_order_ stays empty: a copy would point into *this* table's groups.
  copy.order_dirty_ = true;
  copy.count_ = count_;
  copy.lookups_ = lookups_;
  copy.matches_ = matches_;
  for (auto& [mask, group] : copy.groups_)
    for (auto& [key, bucket] : group.by_key)
      for (FlowEntryPtr& entry : bucket)
        entry = std::make_shared<FlowEntry>(*entry);
  return copy;
}

}  // namespace zen::dataplane
