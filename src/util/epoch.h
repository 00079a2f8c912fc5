// Epoch-based reclamation (EBR) for read-mostly shared structures.
//
// RCU-flavored deferred deletion: readers pin an epoch guard around each
// traversal (two atomic stores, no locks, no shared writes beyond the
// reader's own slot); writers unlink an object from the shared structure
// and retire() it instead of deleting. A retired object is freed only once
// every reader pinned at (or before) the retire epoch has unpinned, so a
// reader that already loaded a pointer can keep dereferencing it safely.
//
// Safety argument for collect(): an object retired at epoch R was unlinked
// before its retire stamp was taken, so a reader that pins afterward and
// observes epoch > R can no longer reach it; only readers whose slot epoch
// is <= R may still hold references. Garbage stamped R is therefore freed
// when the minimum epoch over currently-pinned slots exceeds R. The global
// epoch advances only when every pinned reader has caught up to it, which
// bounds how long garbage can survive to "the slowest current reader".
//
// Used by the dataplane's concurrent megaflow ways (version-bump clears
// retire whole tables). The single-threaded simulator never touches this;
// only concurrent modes do.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace zen::util {

class EpochReclaimer {
 public:
  // Process-wide instance shared by all concurrent dataplane structures.
  static EpochReclaimer& global();

  EpochReclaimer() = default;
  // Frees every remaining retired object. No reader may hold a live Guard.
  ~EpochReclaimer();
  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  // Reader-side critical section: objects reachable from the shared
  // structure while a Guard is alive stay allocated until it dies.
  class Guard {
   public:
    explicit Guard(EpochReclaimer& owner);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochReclaimer* owner_;
    std::size_t slot_;
  };

  Guard pin() { return Guard(*this); }

  // Schedules `p` for deletion once no pinned reader can still reach it.
  // The caller must already have unlinked `p` from the shared structure.
  template <typename T>
  void retire(T* p) {
    retire_erased(p, [](void* q) { delete static_cast<T*>(q); });
  }
  void retire_erased(void* p, void (*deleter)(void*));

  // Tries to advance the epoch and frees all safe garbage. Called
  // automatically every kCollectStride retires; callable any time.
  // Returns the number of objects freed.
  std::size_t collect();

  // ---- introspection (tests / leak accounting) ----
  std::size_t pending() const;                 // retired, not yet freed
  std::uint64_t retired_total() const noexcept {
    return retired_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_total() const noexcept {
    return freed_total_.load(std::memory_order_relaxed);
  }

 private:
  // Reader slots: fixed pool so pinning never allocates. 128 concurrent
  // guards is far beyond any engine configuration (workers <= cores).
  static constexpr std::size_t kSlots = 128;
  static constexpr std::size_t kCollectStride = 64;

  struct alignas(64) Slot {
    // 0 = free; 1 = claimed but not pinned; >= 2 = pinned at that epoch.
    std::atomic<std::uint64_t> epoch{0};
  };

  struct Garbage {
    void* ptr;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  std::size_t acquire_slot();
  void release_slot(std::size_t slot);

  // Epochs start at 2 so slot states 0/1 are unambiguous.
  std::atomic<std::uint64_t> epoch_{2};
  Slot slots_[kSlots];
  std::atomic<std::uint64_t> retired_total_{0};
  std::atomic<std::uint64_t> freed_total_{0};
  mutable std::mutex garbage_mu_;
  std::vector<Garbage> garbage_;
  std::size_t retires_since_collect_ = 0;
};

}  // namespace zen::util
