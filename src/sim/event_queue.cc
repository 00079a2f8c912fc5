#include "sim/event_queue.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace zen::sim {

namespace {

struct QueueMetrics {
  obs::Counter& events;
  obs::Counter& parallel_events;
  obs::Counter& slices;
  obs::Gauge& depth;
  static QueueMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static QueueMetrics m{
        reg.counter("zen_sim_events_total", "",
                    "Discrete events executed across all event queues"),
        reg.counter("zen_sim_parallel_events_total", "",
                    "Sharded events dispatched through a parallel slice"),
        reg.counter("zen_sim_parallel_slices_total", "",
                    "Parallel slices (same-instant sharded runs of >= 2)"),
        reg.gauge("zen_sim_queue_depth", "",
                  "Pending events after the most recent step")};
    return m;
  }
};

// Trampoline so a PhasedCallback can ride in an engine Task's fn/ctx pair.
void run_compute(void* ctx) {
  (*static_cast<EventQueue::PhasedCallback*>(ctx))(
      EventQueue::Phase::kCompute);
}

}  // namespace

EventQueue::Slot& EventQueue::push(double at, bool sharded) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_.push_back(Entry{std::max(at, now_), next_seq_++, slot, sharded});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return slots_[slot];
}

EventQueue::Slot EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry head = heap_.back();
  heap_.pop_back();
  now_ = head.at;
  free_slots_.push_back(head.slot);
  return std::move(slots_[head.slot]);
}

void EventQueue::schedule_at(double at, Callback fn) {
  push(at, /*sharded=*/false).fn = std::move(fn);
}

void EventQueue::schedule_sharded_at(double at, std::uint64_t key,
                                     PhasedCallback fn) {
  Slot& slot = push(at, /*sharded=*/true);
  slot.phased = std::move(fn);
  slot.key = key;
}

std::size_t EventQueue::step_slice() {
  if (heap_.empty()) return 0;
  auto& metrics = QueueMetrics::get();

  const bool sharded = heap_.front().sharded;
  Slot ev = pop();

  if (!sharded || engine_ == nullptr) {
    if (sharded) {
      // Inline mode: both phases back to back, exactly the seq-order
      // behavior a plain event would have. This is the determinism anchor
      // the parallel path is validated against.
      ev.phased(Phase::kCompute);
      ev.phased(Phase::kApply);
    } else {
      ev.fn();
    }
    metrics.events.inc();
    metrics.depth.set(static_cast<double>(heap_.size()));
    return 1;
  }

  // Peel the maximal contiguous run of sharded events at this instant.
  // A plain event at the same time ends the slice: plain events carry no
  // shard key, so we conservatively treat them as conflicting with
  // everything and fall back to strict seq order around them.
  slice_.clear();
  slice_.push_back(std::move(ev));
  while (!heap_.empty() && heap_.front().at == now_ &&
         heap_.front().sharded)
    slice_.push_back(pop());
  // pop order respects Later{}, so slice_ is already in seq order.

  if (slice_.size() == 1) {
    slice_[0].phased(Phase::kCompute);
    slice_[0].phased(Phase::kApply);
  } else {
    // Phase 1: fan the per-shard computes out across the pool. Same key ->
    // same worker in slice (seq) order, so per-entity effects stay ordered.
    std::vector<ParallelEngine::Task> tasks;
    tasks.reserve(slice_.size());
    for (Slot& e : slice_)
      tasks.push_back(ParallelEngine::Task{e.key, &e.phased, &run_compute});
    engine_->run_batch(tasks);

    // Phase 2: applies in seq order on this (the coordinator) thread.
    // run_batch was a quiescence barrier, so applies may freely mutate
    // shared state and schedule follow-on events (which get fresh seqs
    // and thus fire after this slice, matching the inline order). The
    // slice's callbacks already left the slot table, so a follow-on that
    // grows it moves none of them.
    for (Slot& e : slice_) e.phased(Phase::kApply);

    parallel_events_ += slice_.size();
    metrics.parallel_events.inc(slice_.size());
    metrics.slices.inc();
  }

  const std::size_t n = slice_.size();
  slice_.clear();
  metrics.events.inc(n);
  metrics.depth.set(static_cast<double>(heap_.size()));
  return n;
}

bool EventQueue::step() { return step_slice() > 0; }

void EventQueue::run_until(double until) {
  while (!heap_.empty() && heap_.front().at <= until) step_slice();
  now_ = std::max(now_, until);
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events) {
    const std::size_t n = step_slice();
    if (n == 0) break;
    fired += n;
  }
  return fired;
}

}  // namespace zen::sim
