// In-process southbound channel.
//
// Behaves like the TCP connection between a switch and its controller:
// bytes written on one side arrive on the other side's receive callback
// after a configurable one-way latency, in order. Every message really is
// serialized to bytes and re-parsed on the far side — the wire cost is
// paid, only the kernel is skipped.
//
// Each side stages encoded frames into a per-direction WireArena via
// stage(to).append(...) and hands the whole batch to the transport with
// flush(to). An unimpaired flush moves the arena's buffer to the peer in
// one event — zero copies, one scheduler entry for the whole dispatch
// round.
//
// For chaos testing the channel carries optional fault hooks: a seeded
// per-frame loss probability, a duplication probability, and a uniform
// extra-delay jitter (which can reorder frames relative to each other —
// an impaired flush is delivered frame by frame, so every frame of a
// batch meets the faults on its own). A disconnected channel (switch
// crashed / connection torn down) silently drops everything in both
// directions, like writes to a dead TCP peer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "openflow/wire.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace zen::controller {

// Per-channel impairment knobs. All probabilities in [0, 1]; every random
// decision flows through one seeded Rng so a run is reproducible.
struct ChannelFaults {
  double loss_prob = 0;         // frame silently dropped
  double duplicate_prob = 0;    // frame delivered twice
  double extra_delay_max_s = 0; // uniform extra one-way delay in [0, max]
  std::uint64_t seed = 1;
};

class Channel {
 public:
  using ReceiveFn = std::function<void(std::vector<std::uint8_t>)>;

  // Side A = controller, side B = switch (naming only; symmetric).
  enum class Side : std::uint8_t { A, B };

  Channel(sim::EventQueue& events, double one_way_latency_s)
      : events_(events), latency_(one_way_latency_s) {}

  void set_receiver(Side side, ReceiveFn fn) {
    ((side == Side::A) ? to_a_ : to_b_) = std::move(fn);
  }

  // Staging arena for frames travelling toward `to`. Callers append
  // encoded frames, then flush(to) hands the batch to the transport.
  openflow::WireArena& stage(Side to) noexcept {
    return (to == Side::B) ? stage_b_ : stage_a_;
  }
  bool has_staged(Side to) const noexcept {
    return !((to == Side::B) ? stage_b_ : stage_a_).empty();
  }
  // Delivers the staged batch: one in-flight buffer when unimpaired,
  // per-frame fault draws (loss, then extra delay, then duplication) when
  // faults are armed. A flush on a disconnected channel discards the
  // staged frames.
  void flush(Side to);

  // ---- fault injection ----
  void set_faults(const ChannelFaults& faults);
  void clear_faults();
  bool faulty() const noexcept { return faulty_; }
  // A disconnected channel drops every message in both directions.
  void set_connected(bool connected) noexcept { connected_ = connected; }
  bool connected() const noexcept { return connected_; }

  std::uint64_t bytes_a_to_b() const noexcept { return bytes_ab_; }
  std::uint64_t bytes_b_to_a() const noexcept { return bytes_ba_; }
  std::uint64_t messages_a_to_b() const noexcept { return msgs_ab_; }
  std::uint64_t messages_b_to_a() const noexcept { return msgs_ba_; }
  std::uint64_t messages_lost() const noexcept { return lost_; }
  std::uint64_t messages_duplicated() const noexcept { return duplicated_; }
  std::uint64_t flushes() const noexcept { return flushes_; }

 private:
  void deliver_after(Side to, double delay, std::vector<std::uint8_t> bytes);
  // Runs the fault ladder (loss → extra delay → duplicate) for one frame;
  // appends survivors delivered at base latency to `batch`.
  void fault_one_frame(Side to, std::span<const std::uint8_t> frame,
                       std::vector<std::uint8_t>& batch);

  sim::EventQueue& events_;
  double latency_;
  ReceiveFn to_a_;
  ReceiveFn to_b_;
  openflow::WireArena stage_a_;  // frames headed to side A
  openflow::WireArena stage_b_;  // frames headed to side B
  bool connected_ = true;
  bool faulty_ = false;
  ChannelFaults faults_;
  util::Rng fault_rng_;
  std::uint64_t bytes_ab_ = 0, bytes_ba_ = 0;
  std::uint64_t msgs_ab_ = 0, msgs_ba_ = 0;
  std::uint64_t lost_ = 0, duplicated_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace zen::controller
