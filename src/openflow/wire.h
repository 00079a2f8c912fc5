// Southbound wire protocol: zero-copy arena framing.
//
// Wire layout (all big-endian):
//   u8  version   (kProtocolVersion)
//   u8  type      (MsgType)
//   u32 length    (header + body, bytes)
//   u32 xid       (transaction id, echoed in replies)
//   ... body
//
//  * Encode: a WireArena owns one contiguous buffer of length-prefixed
//    frames. FrameWriter appends a frame's header, exposes a ByteWriter
//    for the body, and back-patches the 32-bit length on finish().
//    WireArena::append() does all three for a typed Message. clear()
//    keeps the capacity, so a channel reuses its arena across flushes
//    and steady-state encoding allocates nothing.
//
//  * Decode: parse_frame() returns a FrameView — header fields plus
//    std::span views over the receive buffer, no copy. decode_frame()
//    is the ownership escape hatch: it materializes a typed Message,
//    copying only the variable-length fields the message actually owns
//    (packet payloads, ack lists). BatchReader walks the frames of one
//    flushed batch in order; decode() is the one-shot form for a buffer
//    that holds exactly one whole frame.
//
// Error isolation at batch boundaries: a malformed or truncated frame
// yields exactly one error from BatchReader::next() and ends iteration of
// *that batch only* — bytes cannot be resynchronized past a corrupt
// length, but the next delivered batch starts a fresh reader, so one bad
// frame never poisons the connection.
//
// Arena lifetime rules: FrameViews (and the spans inside decoded
// Experimenter payloads before materialization) borrow the receive
// buffer — they are valid only while that buffer is alive and unmodified.
// A WireArena must not be appended to while an unfinished FrameWriter is
// outstanding; take()/clear() invalidate every span previously returned.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "openflow/messages.h"
#include "util/buffer.h"
#include "util/result.h"

namespace zen::openflow {

// Transaction id: assigned per southbound send, echoed in replies/errors so
// callers can correlate outcomes (see Controller's completion callbacks).
using Xid = std::uint32_t;

// A decoded message with owned storage (the materialized form).
struct OwnedMessage {
  Xid xid = 0;
  Message msg;
};

// Zero-copy view of one frame inside a receive buffer.
struct FrameView {
  MsgType type = MsgType::Hello;
  Xid xid = 0;
  std::span<const std::uint8_t> body;   // past the header
  std::span<const std::uint8_t> frame;  // whole frame, header included
};

// Contiguous buffer of encoded frames (the per-channel staging arena).
class WireArena {
 public:
  // Encodes `msg` as one frame appended to the arena; returns a view of
  // the appended frame (valid until the next append/clear/take).
  std::span<const std::uint8_t> append(const Message& msg, Xid xid);

  std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.data(), buf_.size()};
  }
  std::size_t size() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return buf_.empty(); }
  std::size_t frame_count() const noexcept { return frames_; }

  // Drops the content but keeps the capacity (steady-state reuse).
  void clear() noexcept {
    buf_.clear();
    frames_ = 0;
  }
  // Moves the buffer out (for handing a flushed batch to a transport),
  // leaving the arena empty.
  Bytes take() noexcept {
    Bytes out = std::move(buf_);
    buf_.clear();
    frames_ = 0;
    return out;
  }

 private:
  friend class FrameWriter;
  Bytes buf_;
  std::size_t frames_ = 0;
};

// Appends one frame to an arena: writes the header on construction, hands
// out a ByteWriter for the body, patches the length on finish(). Exactly
// one FrameWriter may be live per arena, and finish() must be called
// before the arena is used again.
class FrameWriter {
 public:
  FrameWriter(WireArena& arena, MsgType type, Xid xid);
  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  util::ByteWriter& body() noexcept { return writer_; }

  // Back-patches the frame length and returns a view of the whole frame.
  std::span<const std::uint8_t> finish();

 private:
  WireArena& arena_;
  std::size_t start_;
  util::ByteWriter writer_;
  bool finished_ = false;
};

// Parses the frame at the front of `data` without copying. Errors on a
// short buffer, a bad version, or a corrupt/oversized length.
util::Result<FrameView> parse_frame(std::span<const std::uint8_t> data);

// Materializes a typed message from a frame view (copies only the fields
// the Message owns). The view's buffer may be discarded afterwards.
util::Result<OwnedMessage> decode_frame(const FrameView& view);

// Convenience: encodes one message as a standalone frame in a fresh
// buffer. The arena API is the hot path; this is for tests, fuzzers and
// one-shot frames (e.g. a bundle member embedded in an Experimenter).
Bytes encode_frame(const Message& msg, Xid xid);

// Decodes exactly one message from `frame`, which must be one whole frame:
// a header length that disagrees with the buffer size is an error.
util::Result<OwnedMessage> decode(std::span<const std::uint8_t> frame);

// Iterates the complete frames of one flushed batch, front to back. A bad
// frame yields one error result and ends iteration of this batch (no
// resync past a corrupt length); earlier frames were already yielded.
class BatchReader {
 public:
  explicit BatchReader(std::span<const std::uint8_t> batch) : rest_(batch) {}

  // Next frame view, an error for a malformed frame (terminal for this
  // batch), or nullopt once the batch is exhausted.
  std::optional<util::Result<FrameView>> next();

  std::size_t frames_yielded() const noexcept { return frames_; }

 private:
  std::span<const std::uint8_t> rest_;
  std::size_t frames_ = 0;
  bool dead_ = false;
};

}  // namespace zen::openflow
