#include "openflow/bundle.h"

#include "util/buffer.h"

namespace zen::openflow {

namespace {

Experimenter make_envelope(std::uint32_t exp_type) {
  Experimenter msg;
  msg.experimenter_id = kBundleExperimenterId;
  msg.exp_type = exp_type;
  // Room for the leading u32 fields. Also keeps GCC 12 from a false
  // -Wstringop-overflow on the first write into an empty payload.
  msg.payload.reserve(8);
  return msg;
}

}  // namespace

Experimenter make_bundle_open(std::uint32_t bundle_id) {
  Experimenter msg = make_envelope(kExpTypeBundleOpen);
  util::ByteWriter(msg.payload).u32(bundle_id);
  return msg;
}

Experimenter make_bundle_add(std::uint32_t bundle_id,
                             std::uint32_t member_index,
                             const Message& member) {
  Experimenter msg = make_envelope(kExpTypeBundleAdd);
  util::ByteWriter w(msg.payload);
  w.u32(bundle_id);
  w.u32(member_index);
  // The member rides as a complete frame (xid 0 — a staged member has no
  // transaction of its own; the commit's xid covers the whole bundle).
  w.bytes(encode_frame(member, 0));
  return msg;
}

Experimenter make_bundle_commit(std::uint32_t bundle_id,
                                std::uint32_t n_members) {
  Experimenter msg = make_envelope(kExpTypeBundleCommit);
  util::ByteWriter w(msg.payload);
  w.u32(bundle_id);
  w.u32(n_members);
  return msg;
}

Experimenter make_bundle_discard(std::uint32_t bundle_id) {
  Experimenter msg = make_envelope(kExpTypeBundleDiscard);
  util::ByteWriter(msg.payload).u32(bundle_id);
  return msg;
}

util::Result<BundleMessage> parse_bundle_message(const Experimenter& msg) {
  if (msg.experimenter_id != kBundleExperimenterId) {
    return util::make_error<BundleMessage>("bundle: foreign experimenter id");
  }
  util::ByteReader r(msg.payload);
  switch (msg.exp_type) {
    case kExpTypeBundleOpen: {
      BundleOpen open;
      open.bundle_id = r.u32();
      if (!r.ok()) return util::make_error<BundleMessage>("bundle: truncated");
      return BundleMessage{open};
    }
    case kExpTypeBundleAdd: {
      BundleAdd add;
      add.bundle_id = r.u32();
      add.member_index = r.u32();
      if (!r.ok()) return util::make_error<BundleMessage>("bundle: truncated");
      // The member frame must fill the rest of the payload exactly.
      auto member = decode(r.rest());
      if (!member.ok()) {
        return util::make_error<BundleMessage>("bundle: bad member: " +
                                               member.error());
      }
      add.member = std::move(member).value().msg;
      return BundleMessage{std::move(add)};
    }
    case kExpTypeBundleCommit: {
      BundleCommit commit;
      commit.bundle_id = r.u32();
      commit.n_members = r.u32();
      if (!r.ok()) return util::make_error<BundleMessage>("bundle: truncated");
      return BundleMessage{commit};
    }
    case kExpTypeBundleDiscard: {
      BundleDiscard discard;
      discard.bundle_id = r.u32();
      if (!r.ok()) return util::make_error<BundleMessage>("bundle: truncated");
      return BundleMessage{discard};
    }
    default:
      return util::make_error<BundleMessage>("bundle: unknown exp_type");
  }
}

}  // namespace zen::openflow
