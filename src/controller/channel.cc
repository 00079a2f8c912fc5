#include "controller/channel.h"

#include "obs/metrics.h"

namespace zen::controller {

namespace {

struct ChannelMetrics {
  obs::Counter& messages;
  obs::Counter& bytes;
  obs::Gauge& in_flight;
  obs::Counter& lost;
  obs::Counter& duplicated;
  obs::Counter& flushes;
  obs::Histo& batch_frames;
  static ChannelMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static ChannelMetrics m{
        reg.counter("zen_controller_channel_messages_total", "",
                    "Southbound wire messages (both directions)"),
        reg.counter("zen_controller_channel_bytes_total", "",
                    "Southbound wire bytes (both directions)"),
        reg.gauge("zen_controller_channel_queue_depth", "",
                  "Wire messages currently in flight across all channels"),
        reg.counter("zen_controller_channel_lost_total", "",
                    "Southbound messages dropped by injected channel faults"),
        reg.counter("zen_controller_channel_duplicated_total", "",
                    "Southbound messages duplicated by injected channel faults"),
        reg.counter("zen_controller_channel_flushes_total", "",
                    "Batched flushes delivered on the southbound wire"),
        reg.histo("zen_controller_channel_batch_frames", "",
                  "Frames per flushed southbound batch")};
    return m;
  }
};

}  // namespace

void Channel::set_faults(const ChannelFaults& faults) {
  faults_ = faults;
  fault_rng_ = util::Rng(faults.seed);
  faulty_ = true;
}

void Channel::clear_faults() {
  faulty_ = false;
  faults_ = ChannelFaults{};
}

void Channel::deliver_after(Side to, double delay,
                            std::vector<std::uint8_t> bytes) {
  ChannelMetrics::get().in_flight.add(1);
  events_.schedule_in(delay, [this, to, data = std::move(bytes)]() mutable {
    ChannelMetrics::get().in_flight.add(-1);
    if (!connected_) return;  // peer died while the message was in flight
    auto& fn = (to == Side::A) ? to_a_ : to_b_;
    if (fn) fn(std::move(data));
  });
}

void Channel::fault_one_frame(Side to, std::span<const std::uint8_t> frame,
                              std::vector<std::uint8_t>& batch) {
  auto& metrics = ChannelMetrics::get();
  if (faults_.loss_prob > 0 && fault_rng_.next_bool(faults_.loss_prob)) {
    ++lost_;
    metrics.lost.inc();
    return;
  }
  double delay = latency_;
  if (faults_.extra_delay_max_s > 0)
    delay += fault_rng_.next_double() * faults_.extra_delay_max_s;
  if (faults_.duplicate_prob > 0 &&
      fault_rng_.next_bool(faults_.duplicate_prob)) {
    ++duplicated_;
    metrics.duplicated.inc();
    double dup_delay = latency_;
    if (faults_.extra_delay_max_s > 0)
      dup_delay += fault_rng_.next_double() * faults_.extra_delay_max_s;
    deliver_after(to, dup_delay,
                  std::vector<std::uint8_t>(frame.begin(), frame.end()));
  }
  if (delay == latency_) {
    // Survivor with no jitter: ride the main batch delivery.
    batch.insert(batch.end(), frame.begin(), frame.end());
  } else {
    deliver_after(to, delay,
                  std::vector<std::uint8_t>(frame.begin(), frame.end()));
  }
}

void Channel::flush(Side to) {
  auto& arena = stage(to);
  if (arena.empty()) return;
  if (!connected_) {
    arena.clear();
    return;
  }
  const std::size_t nframes = arena.frame_count();
  const std::size_t nbytes = arena.size();
  auto& bytes_ctr = (to == Side::B) ? bytes_ab_ : bytes_ba_;
  auto& msgs_ctr = (to == Side::B) ? msgs_ab_ : msgs_ba_;
  bytes_ctr += nbytes;
  msgs_ctr += nframes;
  ++flushes_;
  auto& metrics = ChannelMetrics::get();
  metrics.messages.inc(nframes);
  metrics.bytes.inc(nbytes);
  metrics.flushes.inc();
  metrics.batch_frames.record(static_cast<double>(nframes));

  if (!faulty_) {
    // Zero-copy fast path: the arena's buffer IS the in-flight batch.
    deliver_after(to, latency_, arena.take());
    return;
  }

  // Impaired path: each frame runs the fault ladder independently, so a
  // batch is exactly as exposed to loss/dup/jitter as its frames would be
  // one flush at a time. Unjittered survivors coalesce back into one
  // delivery.
  std::vector<std::uint8_t> batch;
  batch.reserve(nbytes);
  openflow::BatchReader reader(arena.bytes());
  while (auto frame = reader.next()) {
    if (!frame->ok()) break;  // unreachable: we encoded these frames
    fault_one_frame(to, frame->value().frame, batch);
  }
  arena.clear();
  if (!batch.empty()) deliver_after(to, latency_, std::move(batch));
}

}  // namespace zen::controller
