#include "controller/southbound.h"

namespace zen::controller {

Southbound::Southbound(sim::EventQueue& events, Channel& channel,
                       Channel::Side self)
    : events_(events),
      channel_(channel),
      peer_(self == Channel::Side::A ? Channel::Side::B : Channel::Side::A) {
  channel_.set_receiver(self, [this](std::vector<std::uint8_t> bytes) {
    on_raw(std::move(bytes));
  });
}

void Southbound::send(const openflow::Message& msg, openflow::Xid xid) {
  channel_.stage(peer_).append(msg, xid);
  if (in_rx_) return;  // flushed synchronously when on_raw returns
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    events_.schedule_in(0, [this] {
      flush_scheduled_ = false;
      channel_.flush(peer_);
    });
  }
}

void Southbound::on_raw(std::vector<std::uint8_t> bytes) {
  if (gate_ && !gate_()) return;
  std::vector<openflow::OwnedMessage> batch;
  openflow::BatchReader reader({bytes.data(), bytes.size()});
  while (auto frame = reader.next()) {
    if (!frame->ok()) {
      if (bad_frame_) bad_frame_(frame->error());
      break;  // terminal for this batch; earlier frames still delivered
    }
    auto msg = openflow::decode_frame(frame->value());
    if (!msg.ok()) {
      if (bad_frame_) bad_frame_(msg.error());
      continue;  // framing is intact: later frames are still trustworthy
    }
    batch.push_back(std::move(msg).value());
  }
  if (batch.empty() || !rx_) return;
  // Replies sent while the receiver runs coalesce into one response batch,
  // flushed here without an extra scheduler event.
  in_rx_ = true;
  rx_(std::move(batch));
  in_rx_ = false;
  if (channel_.has_staged(peer_)) channel_.flush(peer_);
}

}  // namespace zen::controller
