#include "openflow/codec.h"

#include "openflow/constants.h"
#include "util/strings.h"

namespace zen::openflow {

util::Result<OwnedMessage> decode(std::span<const std::uint8_t> frame) {
  auto view = parse_frame(frame);
  if (!view.ok()) return util::make_error<OwnedMessage>(view.error());
  if (view.value().frame.size() != frame.size())
    return util::make_error<OwnedMessage>(util::format(
        "length mismatch: header says %zu, frame is %zu",
        view.value().frame.size(), frame.size()));
  return decode_frame(view.value());
}

void MessageStream::feed(std::span<const std::uint8_t> data) {
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<util::Result<OwnedMessage>> MessageStream::next() {
  if (poisoned_) return std::nullopt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderSize) return std::nullopt;

  const std::uint8_t* p = buffer_.data() + consumed_;
  const std::uint8_t version = p[0];
  const std::uint32_t length = (std::uint32_t{p[2]} << 24) |
                               (std::uint32_t{p[3]} << 16) |
                               (std::uint32_t{p[4]} << 8) | p[5];
  if (version != kProtocolVersion || length < kHeaderSize ||
      length > kMaxMessageSize) {
    poisoned_ = true;
    return util::make_error<OwnedMessage>(
        util::format("corrupt frame header (version=0x%02x length=%u)",
                     version, length));
  }
  if (avail < length) return std::nullopt;

  auto result = decode({p, length});
  consumed_ += length;
  return result;
}

}  // namespace zen::openflow
