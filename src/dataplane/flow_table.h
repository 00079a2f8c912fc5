// A single flow table with priority-ordered masked matching.
//
// Lookup strategy is tuple-space search (the Open vSwitch classifier
// approach): entries are grouped by their FlowMask; each group holds a hash
// map from masked key to the entries sharing that masked value. A lookup
// probes one hash table per distinct mask and keeps the highest-priority
// hit. This is the only lookup path; experiment E3's linear-scan baseline
// is a free function over entries() in its bench and equivalence test.
//
// Threading: one owner at a time. The sharded engine reads a switch's
// tables only from the worker that owns its node in the current slice and
// applies flow_mods between slices (DESIGN.md "Threading model").
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/flow_key.h"
#include "openflow/actions.h"
#include "openflow/constants.h"
#include "openflow/match.h"

namespace zen::dataplane {

struct FlowEntry {
  openflow::Match match;
  std::uint16_t priority = 0;
  openflow::InstructionList instructions;
  std::uint64_t cookie = 0;
  std::uint16_t idle_timeout = 0;  // seconds, 0 = none
  std::uint16_t hard_timeout = 0;
  std::uint16_t flags = 0;
  // Eviction precedence: lowest goes first when the table must make room.
  std::uint16_t importance = 0;

  // Runtime state.
  double created_at = 0;
  double last_used_at = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

using FlowEntryPtr = std::shared_ptr<FlowEntry>;

// What a bounded table does when an Add arrives and it is full.
enum class EvictionPolicy : std::uint8_t {
  Off,         // reject the Add (TableFull)
  Importance,  // evict the lowest-importance entry (LRU breaks ties); an
               // Add can never displace an entry more important than itself
  Lru,         // evict the least-recently-used entry regardless of importance
};

class FlowTable {
 public:
  FlowTable() = default;
  // Move-only: probe_order_ points into groups_, whose nodes a move carries
  // over but a copy would not. clone() is the one deep copy.
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  FlowTable(FlowTable&&) noexcept = default;
  FlowTable& operator=(FlowTable&&) noexcept = default;

  // Bounds the table to `max_entries` rules under `policy` (0 = unbounded).
  // Enforcement happens in the caller (Switch::flow_mod) via full()/evict()
  // so the caller controls FlowRemoved emission for the victims.
  void set_capacity(std::size_t max_entries,
                    EvictionPolicy policy = EvictionPolicy::Off) noexcept {
    max_entries_ = max_entries;
    eviction_ = policy;
  }
  std::size_t max_entries() const noexcept { return max_entries_; }
  EvictionPolicy eviction_policy() const noexcept { return eviction_; }
  // True when a *new* entry cannot be inserted without eviction.
  bool full() const noexcept {
    return max_entries_ > 0 && count_ >= max_entries_;
  }

  // True iff an entry with this exact (match, priority) key exists — an Add
  // carrying it replaces in place and needs no free slot.
  bool contains(const openflow::Match& match,
                std::uint16_t priority) const noexcept;

  // Selects and removes the eviction victim for an incoming entry of
  // `incoming_importance`, honoring the configured policy. Returns nullptr
  // when the policy is Off, the table is empty, or (Importance policy)
  // every entry outranks the incoming one — the "cannot free space" case
  // the caller must turn into a TableFull error.
  FlowEntryPtr evict(std::uint16_t incoming_importance);

  // Inserts an entry; an existing entry with identical match and priority is
  // replaced (counters reset), matching FlowMod/Add semantics.
  FlowEntryPtr add(FlowEntry entry, double now);

  // Updates instructions of entries whose match equals (strict) or is
  // subsumed by (non-strict) `match`. Returns number updated.
  std::size_t modify(const openflow::Match& match, std::uint16_t priority,
                     const openflow::InstructionList& instructions, bool strict);

  // Removes matching entries (same strictness rules). `out_port` filters to
  // entries whose instructions output to that port (kAny = no filter).
  // Returns the removed entries so the caller can emit FlowRemoved.
  std::vector<FlowEntryPtr> remove(const openflow::Match& match,
                                   std::uint16_t priority, bool strict,
                                   std::uint32_t out_port = openflow::Ports::kAny);

  // Per-mask probe record for one lookup, filled by find_best when the
  // explain engine asks. One entry per tuple-space hash table, in probe
  // order: `pruned` = skipped because its max priority could not beat the
  // best hit so far, `hit` = the masked key found a candidate bucket.
  struct LookupExplain {
    struct MaskProbe {
      int fields = 0;  // mask specificity (non-wildcard field count)
      std::uint16_t max_priority = 0;
      bool hit = false;
      bool pruned = false;
    };
    std::vector<MaskProbe> masks;
  };

  // Highest-priority matching entry, or nullptr. Does not update counters
  // (the pipeline credits entries explicitly so cached hits count too).
  FlowEntryPtr lookup(const net::FlowKey& key) noexcept;

  // The same search without touching the lookup/match counters — the
  // explain engine's dry-run entry point (also the equivalence oracle any
  // classifier refactor must preserve). `ex`, when non-null, receives the
  // per-mask probe record.
  FlowEntryPtr find_best(const net::FlowKey& key,
                         LookupExplain* ex = nullptr) const;

  // Removes entries past their idle/hard timeout; returns them.
  std::vector<FlowEntryPtr> expire(double now);

  // Drops every entry (switch reboot). Lookup/match counters survive — they
  // are cumulative observability, not rule state.
  void clear() noexcept {
    groups_.clear();
    probe_order_.clear();
    order_dirty_ = false;
    count_ = 0;
  }

  std::size_t size() const noexcept { return count_; }
  std::size_t mask_group_count() const noexcept { return groups_.size(); }
  std::uint64_t lookup_count() const noexcept { return lookups_; }
  std::uint64_t matched_count() const noexcept { return matches_; }

  // All entries, unordered. Used by stats requests.
  std::vector<FlowEntryPtr> entries() const;

  // Deep copy: every entry is cloned, not shared, so mutations through
  // either table stay invisible to the other. Bundle commit snapshots
  // tables through this for all-or-nothing rollback.
  FlowTable clone() const;

 private:
  struct MaskGroup {
    net::FlowMask mask;
    std::uint16_t max_priority = 0;
    // masked key -> entries with that masked value, sorted by priority desc.
    std::unordered_map<net::FlowKey, std::vector<FlowEntryPtr>> by_key;
  };

  void rebuild_group_priority(MaskGroup& group) noexcept;

  // Rebuilds probe_order_ (groups sorted by max_priority desc) if a
  // mutation invalidated it. Sorted probing lets find_best stop at the
  // first group that cannot outrank the best hit so far — for the common
  // exact-match-wins tables that means one probe instead of one per mask.
  void refresh_probe_order() const;

  template <typename Pred>
  std::vector<FlowEntryPtr> remove_if(Pred&& pred);

  std::size_t max_entries_ = 0;  // 0 = unbounded
  EvictionPolicy eviction_ = EvictionPolicy::Off;
  std::unordered_map<net::FlowMask, MaskGroup> groups_;
  // Lookup probe order; lazily rebuilt (pointers stay valid across
  // unordered_map inserts — only erase invalidates, which marks it dirty).
  mutable std::vector<const MaskGroup*> probe_order_;
  mutable bool order_dirty_ = false;
  std::size_t count_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t matches_ = 0;
};

// True if `entry`'s instructions contain an output to `port`.
bool outputs_to_port(const FlowEntry& entry, std::uint32_t port) noexcept;

}  // namespace zen::dataplane
