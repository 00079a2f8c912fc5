// Framing codec v1 surface: whole-frame decode and stream reassembly.
//
// Wire layout (all big-endian):
//   u8  version   (kProtocolVersion)
//   u8  type      (MsgType)
//   u32 length    (header + body, bytes)
//   u32 xid       (transaction id, echoed in replies)
//   ... body
//
// The arena-based v2 API lives in wire.h (WireArena / FrameWriter /
// FrameView / BatchReader, and encode_frame() for one message); this
// header keeps the two pieces of the v1 surface that still earn their
// place:
//
//  * decode(): one owned message from one whole frame.
//  * MessageStream: reassembly for a byte-stream transport (TCP-like
//    split/coalesced delivery). The in-process channel now delivers whole
//    flushed batches, which BatchReader walks without buffering, but the
//    stream model is still what a real socket southbound needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "openflow/messages.h"
#include "openflow/wire.h"
#include "util/result.h"

namespace zen::openflow {

// Decodes exactly one message from `frame` (which must be a whole message).
util::Result<OwnedMessage> decode(std::span<const std::uint8_t> frame);

class MessageStream {
 public:
  // Appends raw transport bytes.
  void feed(std::span<const std::uint8_t> data);

  // Extracts the next complete message, if any. Returns nullopt when more
  // bytes are needed. A malformed header (bad version / absurd length)
  // poisons the stream: poisoned() goes true and no further messages are
  // produced — matching how a real peer would drop the connection.
  std::optional<util::Result<OwnedMessage>> next();

  bool poisoned() const noexcept { return poisoned_; }
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace zen::openflow
