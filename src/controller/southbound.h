// Southbound: the one typed send/receive facade over a Channel side.
//
// Every controller- and agent-side message flows through here — no
// caller outside this directory touches raw bytes. Sends stage encoded
// frames into the channel's per-direction arena; the flush policy is:
//
//  * sending from inside a receive callback: frames stage until the
//    callback returns, then flush as one batch (request/reply coalescing
//    with no extra scheduler event).
//  * sending from an ordinary event: a zero-delay flush event is
//    scheduled once; every send from the same simulation instant joins
//    the batch (the EventQueue fires equal-time events FIFO, so the flush
//    runs after the instant's remaining dispatches have staged).
//
// On receive, the delivered batch is decoded frame-by-frame and handed to
// the receiver as one vector per delivery. A malformed frame stops that
// batch only (see BatchReader) and is reported to the bad-frame handler;
// earlier frames in the batch are still delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "controller/channel.h"
#include "openflow/wire.h"
#include "sim/event_queue.h"

namespace zen::controller {

class Southbound {
 public:
  // Decoded frames of one delivered batch, in wire order.
  using BatchFn = std::function<void(std::vector<openflow::OwnedMessage>)>;

  // `self` is the side this endpoint occupies; sends go to the other side.
  Southbound(sim::EventQueue& events, Channel& channel, Channel::Side self);

  void set_receiver(BatchFn fn) { rx_ = std::move(fn); }
  // Evaluated once per delivered batch before decoding; returning false
  // drops the whole batch (e.g. the receiving switch has crashed).
  void set_batch_gate(std::function<bool()> gate) { gate_ = std::move(gate); }
  void set_bad_frame_handler(std::function<void(const std::string&)> fn) {
    bad_frame_ = std::move(fn);
  }

  // Stages one message toward the peer and arranges a flush per the
  // policy above.
  void send(const openflow::Message& msg, openflow::Xid xid);

 private:
  void on_raw(std::vector<std::uint8_t> bytes);

  sim::EventQueue& events_;
  Channel& channel_;
  Channel::Side peer_;
  bool in_rx_ = false;           // inside on_raw: defer flush to its end
  bool flush_scheduled_ = false; // a zero-delay flush event is pending
  BatchFn rx_;
  std::function<bool()> gate_;
  std::function<void(const std::string&)> bad_frame_;
};

}  // namespace zen::controller
