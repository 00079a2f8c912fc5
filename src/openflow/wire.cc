#include "openflow/wire.h"

#include "openflow/constants.h"
#include "util/strings.h"

namespace zen::openflow {

FrameWriter::FrameWriter(WireArena& arena, MsgType type, Xid xid)
    : arena_(arena), start_(arena.buf_.size()), writer_(arena.buf_) {
  writer_.u8(kProtocolVersion);
  writer_.u8(static_cast<std::uint8_t>(type));
  writer_.u32(0);  // length, patched by finish()
  writer_.u32(xid);
}

std::span<const std::uint8_t> FrameWriter::finish() {
  if (!finished_) {
    finished_ = true;
    ++arena_.frames_;
    const auto length =
        static_cast<std::uint32_t>(arena_.buf_.size() - start_);
    writer_.patch_u32(start_ + 2, length);
  }
  return std::span<const std::uint8_t>(arena_.buf_).subspan(start_);
}

std::span<const std::uint8_t> WireArena::append(const Message& msg, Xid xid) {
  FrameWriter w(*this, type_of(msg), xid);
  encode_body(msg, w.body());
  return w.finish();
}

Bytes encode_frame(const Message& msg, Xid xid) {
  WireArena arena;
  arena.append(msg, xid);
  return arena.take();
}

util::Result<OwnedMessage> decode(std::span<const std::uint8_t> frame) {
  auto view = parse_frame(frame);
  if (!view.ok()) return util::make_error<OwnedMessage>(view.error());
  if (view.value().frame.size() != frame.size())
    return util::make_error<OwnedMessage>(util::format(
        "length mismatch: header says %zu, frame is %zu",
        view.value().frame.size(), frame.size()));
  return decode_frame(view.value());
}

util::Result<FrameView> parse_frame(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderSize)
    return util::make_error<FrameView>(util::format(
        "truncated frame header (%zu of %zu bytes)", data.size(),
        kHeaderSize));
  const std::uint8_t version = data[0];
  const auto type = static_cast<MsgType>(data[1]);
  const std::uint32_t length = (std::uint32_t{data[2]} << 24) |
                               (std::uint32_t{data[3]} << 16) |
                               (std::uint32_t{data[4]} << 8) | data[5];
  const Xid xid = (std::uint32_t{data[6]} << 24) |
                  (std::uint32_t{data[7]} << 16) |
                  (std::uint32_t{data[8]} << 8) | data[9];
  if (version != kProtocolVersion)
    return util::make_error<FrameView>(
        util::format("bad version 0x%02x", version));
  if (length < kHeaderSize || length > kMaxMessageSize)
    return util::make_error<FrameView>(util::format(
        "corrupt frame header (version=0x%02x length=%u)", version, length));
  if (data.size() < length)
    return util::make_error<FrameView>(util::format(
        "truncated frame: header says %u, %zu available", length,
        data.size()));
  FrameView view;
  view.type = type;
  view.xid = xid;
  view.frame = data.first(length);
  view.body = view.frame.subspan(kHeaderSize);
  return view;
}

util::Result<OwnedMessage> decode_frame(const FrameView& view) {
  util::ByteReader r(view.body);
  auto body = decode_body(view.type, r);
  if (!body.ok()) return util::make_error<OwnedMessage>(body.error());
  return OwnedMessage{view.xid, std::move(body).value()};
}

std::optional<util::Result<FrameView>> BatchReader::next() {
  if (dead_ || rest_.empty()) return std::nullopt;
  auto view = parse_frame(rest_);
  if (!view.ok()) {
    // Terminal for this batch: there is no trustworthy length to skip by.
    dead_ = true;
    return view;
  }
  rest_ = rest_.subspan(view.value().frame.size());
  ++frames_;
  return view;
}

}  // namespace zen::openflow
