// Megaflow-style exact-match flow cache.
//
// Sits in front of the multi-table pipeline: the first packet of a flow
// runs the full pipeline and the resulting verdict (output set / packet-in /
// drop, plus the entries to credit) is cached keyed by the exact FlowKey.
// Subsequent packets of the flow skip the classifier; the switch replays
// the verdict through the pipeline's own outcome code.
//
// Invalidation is coarse, as in early Open vSwitch: any flow/group table
// change bumps a global version; the first probe under a new version drops
// the whole (now entirely stale) table at once. Capacity eviction is
// random-replacement (cheap, and what a kernel flow cache approximates
// under churn).
//
// Concurrent mode (opt-in, enable_concurrent()): lookups become lock-free
// and safe against racing inserts and version-bump clears. The cache is
// split into W ways, each an atomically published open-addressing table of
// CAS-published entry pointers. A version bump swaps the stale way table
// for a fresh one and retires the old table — entries and all — through
// epoch-based reclamation (util::EpochReclaimer), so a reader that already
// loaded an entry pointer under its epoch guard keeps dereferencing it
// safely while concurrent writers move the cache forward. A stale-version
// table is never probed for hits: the version check happens on the
// published table itself, before any entry is touched, which is what keeps
// stale verdicts from escaping. Classic (single-threaded) mode is
// completely untouched by any of this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dataplane/flow_table.h"
#include "net/flow_key.h"
#include "obs/shard_stats.h"
#include "openflow/actions.h"
#include "util/epoch.h"

namespace zen::dataplane {

// The cached outcome of one pipeline traversal. A hit replays it through
// the same code the pipeline ran: credit and meter each entry in pipeline
// order, send out each port, punt. Replaying a verdict is observably the
// same as running the pipeline again (Switch.MegaflowCacheIsTransparent*).
struct CachedVerdict {
  struct PortQueue {
    std::uint32_t port = 0;
    std::uint32_t queue_id = 0;
  };
  // Concrete egress ports (reserved ports already resolved except
  // kController), down ones included: a hit counts their tx_dropped.
  std::vector<PortQueue> out_ports;
  // The punt that happened (the first; one PacketIn per packet).
  bool to_controller = false;
  std::uint8_t controller_table = 0;
  std::uint64_t controller_cookie = 0;
  std::uint16_t controller_max_len = 0;  // bytes of the frame it carries
  bool miss = false;  // table-miss (controller punt uses reason NoMatch)
  // Entries to credit on each hit, in pipeline order; a hit charges each
  // entry's meters as it credits it, and a meter drop ends the hit before
  // any output (a verdict with a meter behind an output is not cached).
  std::vector<FlowEntryPtr> credited;
  // Packet rewrites are NOT cacheable in this design (see switch.cc); a
  // verdict with rewrites sets this flag and is never inserted.
  bool cacheable = true;
};

class MegaflowCache {
 public:
  explicit MegaflowCache(std::size_t capacity = 65536, bool enabled = true)
      : capacity_(capacity), enabled_(enabled) {}
  ~MegaflowCache();
  // Movable (atomics transferred with plain loads/stores — moving a cache
  // with live concurrent readers is a caller error); not copyable.
  MegaflowCache(MegaflowCache&& other) noexcept;
  MegaflowCache& operator=(MegaflowCache&& other) noexcept;
  MegaflowCache(const MegaflowCache&) = delete;
  MegaflowCache& operator=(const MegaflowCache&) = delete;

  // Returns the verdict if present and current. The first call under a new
  // version drops all (stale) entries. Classic mode only (single caller).
  const CachedVerdict* find(const net::FlowKey& key, std::uint64_t version);

  // ---- concurrent mode ----
  // Switches the cache to the lock-free sharded-ways layout. Must be
  // called before any traffic (entries do not migrate). `ways` is rounded
  // to at least 1; each way holds ~capacity/ways entries.
  void enable_concurrent(std::size_t ways = 4);
  bool concurrent() const noexcept { return n_ways_ != 0; }

  // Lock-free lookup for concurrent mode. The returned pointer stays valid
  // for the lifetime of `guard` (the caller's epoch pin), even if a racing
  // version bump or eviction retires the entry's table meanwhile. Stale
  // versions never hit: a table published under a different version is
  // swapped out (newer version wins) and reported as a miss.
  const CachedVerdict* find(const net::FlowKey& key, std::uint64_t version,
                            util::EpochReclaimer::Guard& guard);

  // Read-only probe for the explain engine: no counter bumps, no stale-entry
  // erasure, no shard traffic. Stale entries report as absent, exactly as
  // find() would treat them.
  const CachedVerdict* peek(const net::FlowKey& key,
                            std::uint64_t version) const noexcept;

  // Insert works in both modes (concurrent mode takes its own epoch pin
  // internally; the entry is CAS-published so racing readers see either
  // the old or the new verdict, never a torn one).
  void insert(const net::FlowKey& key, CachedVerdict verdict,
              std::uint64_t version);

  void clear() noexcept;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept {
    enabled_ = on;
    if (!on) clear();
  }

  std::size_t size() const noexcept;
  std::uint64_t hits() const noexcept {
    return hits_ + conc_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_ + conc_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const noexcept {
    return evictions_ + conc_evictions_.load(std::memory_order_relaxed);
  }

  // Routes the per-packet hit/miss/eviction counts through the owner's
  // ShardStats slots (plain stores on a private cacheline) instead of the
  // shared global counters. Standalone caches (no shard bound) keep the
  // direct global-counter path.
  void bind_shard(obs::ShardStats* shard, std::size_t hit_slot,
                  std::size_t miss_slot, std::size_t evict_slot) noexcept {
    shard_ = shard;
    hit_slot_ = hit_slot;
    miss_slot_ = miss_slot;
    evict_slot_ = evict_slot;
  }

 private:
  struct Slot {
    CachedVerdict verdict;
    std::uint64_t version = 0;
  };

  // ---- concurrent-mode internals ----
  struct ConcEntry {
    net::FlowKey key;
    std::uint64_t version = 0;
    CachedVerdict verdict;
  };
  // One published generation of a way: fixed-capacity open addressing over
  // CAS-published entry pointers. Immutably versioned — a bump never edits
  // a table, it replaces it. The destructor (run by the epoch reclaimer,
  // once no reader can hold entry pointers into it) frees the entries the
  // table still owns; entries replaced in place were retired individually.
  struct ConcTable {
    ConcTable(std::size_t n_slots, std::uint64_t ver);
    ~ConcTable();
    std::uint64_t version;
    std::size_t mask;                   // n_slots - 1 (power of two)
    std::atomic<std::size_t> size{0};
    std::vector<std::atomic<ConcEntry*>> slots;
  };
  struct alignas(64) Way {
    std::atomic<ConcTable*> table{nullptr};
  };

  // Drops every entry when the pipeline version moved past last_version_.
  void sync_version(std::uint64_t version);
  void insert_classic(const net::FlowKey& key, CachedVerdict verdict,
                      std::uint64_t version);
  void insert_concurrent(const net::FlowKey& key, CachedVerdict verdict,
                         std::uint64_t version);
  // Publishes a fresh table for `way` at `version` (CAS; loser frees its
  // attempt) and retires the old one. Returns the current table.
  ConcTable* swap_way(Way& way, ConcTable* expected, std::uint64_t version,
                      bool count_evictions);
  void note_miss();

  std::size_t capacity_;
  bool enabled_;
  obs::ShardStats* shard_ = nullptr;
  std::size_t hit_slot_ = 0;
  std::size_t miss_slot_ = 0;
  std::size_t evict_slot_ = 0;
  std::unordered_map<net::FlowKey, Slot> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t last_version_ = 0;
  std::uint64_t evict_seed_ = 0x9e3779b97f4a7c15ULL;

  // Concurrent mode (empty/zero when classic).
  std::size_t n_ways_ = 0;
  std::size_t way_slots_ = 0;  // slots per way (power of two)
  std::size_t way_limit_ = 0;  // max entries per way (3/4 load factor)
  std::unique_ptr<Way[]> ways_;
  std::atomic<std::uint64_t> conc_hits_{0};
  std::atomic<std::uint64_t> conc_misses_{0};
  std::atomic<std::uint64_t> conc_evictions_{0};
};

}  // namespace zen::dataplane
