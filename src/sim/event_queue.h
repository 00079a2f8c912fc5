// Discrete-event queue: the simulator's virtual clock.
//
// Events at equal times fire in scheduling order (a monotonic sequence
// number breaks ties), which keeps runs deterministic.
//
// Sharded events and the parallel slice
// -------------------------------------
// A *sharded* event is a two-phase callback keyed by the entity it touches
// (e.g. a packet delivery keyed by destination switch):
//
//   Compute — reads/writes only state owned by `key`'s shard. May not
//             schedule events, touch other shards, or block.
//   Apply   — runs on the coordinator thread with exclusive access to
//             everything; may schedule, transmit, call controllers.
//
// Without an engine installed, a sharded event behaves exactly like a
// plain event (Compute then Apply, inline, in seq order) — byte-identical
// to the single-threaded simulator. With an engine, step() peels the
// maximal contiguous run of sharded events at the head of the heap that
// share one timestamp, fans the Compute phases out across the engine's
// workers (same key -> same worker, FIFO), waits for quiescence, then
// runs every Apply phase in seq order. Because Apply order is the seq
// order either way, final state matches the inline run for any worker
// count.
//
// Layout: the heap holds 24-byte {at, seq, slot, sharded} entries; the
// callbacks sit in a free-listed slot table beside it. Sifting therefore
// never moves a std::function, and slice formation reads the sharded bit
// straight from the head entry.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace zen::sim {

class ParallelEngine;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  enum class Phase { kCompute, kApply };
  using PhasedCallback = std::function<void(Phase)>;

  double now() const noexcept { return now_; }

  // Schedules `fn` at absolute time `at` (clamped to now).
  void schedule_at(double at, Callback fn);

  // Schedules `fn` after `delay` seconds.
  void schedule_in(double delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // Schedules a two-phase sharded event (see header comment). Events with
  // equal keys at equal times keep their scheduling order through both
  // phases, so per-(switch,flow) packet order is preserved at any N.
  void schedule_sharded_at(double at, std::uint64_t key, PhasedCallback fn);
  void schedule_sharded_in(double delay, std::uint64_t key,
                           PhasedCallback fn) {
    schedule_sharded_at(now_ + delay, key, std::move(fn));
  }

  // Installs (or clears, with nullptr) the worker pool used for sharded
  // slices. Borrowed pointer; the engine must outlive the queue's run.
  void set_engine(ParallelEngine* engine) noexcept { engine_ = engine; }
  ParallelEngine* engine() const noexcept { return engine_; }

  // Runs the next event — or, when an engine is installed and the head of
  // the heap is a run of same-time sharded events, that whole slice.
  // Returns false if the queue is empty.
  bool step();

  // Runs events with time <= until (advances the clock to `until` even if
  // the queue drains early).
  void run_until(double until);

  // Runs until the queue is empty or at least `max_events` fired (a slice
  // that straddles the limit completes; the true count is returned).
  std::size_t run(std::size_t max_events = SIZE_MAX);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  // Sharded events dispatched through the parallel path (slices of >= 2;
  // singleton slices and inline mode run on the coordinator).
  std::uint64_t parallel_events() const noexcept { return parallel_events_; }

 private:
  // A heap entry; its callback waits in slots_[slot] until it runs.
  struct Entry {
    double at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool sharded;
  };
  static_assert(sizeof(Entry) == 24);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // A pending event's callback (exactly one of fn/phased set) and shard
  // key. Freed slots are reused; a callback is moved out of its slot
  // before it runs, so it may schedule events that grow the table.
  struct Slot {
    Callback fn;
    PhasedCallback phased;
    std::uint64_t key = 0;
  };
  // Returns a free slot for a new event's callback, growing the table if
  // none is free, and pushes the event's heap entry.
  Slot& push(double at, bool sharded);
  // Removes the head entry, advances the clock to its time, and moves its
  // callback out of its slot, which becomes free.
  Slot pop();

  // Pops the head dispatch unit (one plain event, or a sharded slice) and
  // runs it. Returns the number of events executed (0 when empty).
  std::size_t step_slice();

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t parallel_events_ = 0;
  ParallelEngine* engine_ = nullptr;
  std::vector<Entry> heap_;  // binary min-heap under Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Slot> slice_;  // scratch for the current sharded slice
};

}  // namespace zen::sim
