// Wire API v2: arena framing, batch decode, v1/v2 byte equivalence, and
// bundle experimenter messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "net/headers.h"
#include "openflow/bundle.h"
#include "openflow/wire.h"
#include "util/rng.h"

namespace zen::openflow {
namespace {

FlowMod sample_mod(std::uint16_t priority) {
  FlowMod mod;
  mod.priority = priority;
  mod.cookie = 0xc0ffee;
  mod.match.in_port(3)
      .eth_type(net::EtherType::kIpv4)
      .ipv4_dst(net::Ipv4Address(10, 0, 0, 2), 32)
      .l4_dst(priority);
  mod.instructions = output_to(7);
  return mod;
}

// A pool of representative messages for fuzzed equivalence sweeps.
Message random_message(util::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: return Message{sample_mod(static_cast<std::uint16_t>(
        1 + rng.next_below(1000)))};
    case 1: {
      EchoRequest echo;
      echo.data.resize(rng.next_below(64));
      for (auto& b : echo.data) b = static_cast<std::uint8_t>(rng.next_u64());
      return Message{echo};
    }
    case 2: {
      PacketIn pin;
      pin.buffer_id = static_cast<std::uint32_t>(rng.next_u64());
      pin.in_port = 3;
      pin.data.resize(rng.next_below(128));
      return Message{pin};
    }
    case 3: {
      PacketOut out;
      out.in_port = Ports::kController;
      out.actions = {OutputAction{Ports::kFlood, 0xffff}};
      out.data.resize(rng.next_below(128), 0x11);
      return Message{out};
    }
    case 4: return Message{BarrierRequest{}};
    default: {
      ErrorMsg err;
      err.type = ErrorType::FlowModFailed;
      err.code = flow_mod_failed_code::kTableFull;
      return Message{err};
    }
  }
}

// One message of every MsgType that has a body (PortMod has none), with
// non-default fields so each encoder branch writes real values.
std::vector<Message> one_of_each_type() {
  const net::MacAddress mac({0x02, 0x00, 0x00, 0x00, 0x00, 0x07});
  PortDesc port;
  port.port_no = 2;
  port.hw_addr = mac;
  port.name = "eth2";
  port.link_up = false;
  port.curr_speed_mbps = 40000;
  FlowMod mod = sample_mod(100);
  mod.table_id = 1;
  mod.idle_timeout = 10;
  mod.hard_timeout = 30;
  mod.flags = 1;
  mod.importance = 5;
  mod.instructions = {
      ApplyActions{{SetIpv4DstAction{net::Ipv4Address(10, 0, 0, 9)},
                    PushVlanAction{42, 3}, OutputAction{7, 128}}},
      WriteActions{{GroupAction{9}, SetQueueAction{1}}},
      MeterInstruction{3}, GotoTable{2}};
  FlowStatsEntry flow_stats;
  flow_stats.table_id = 1;
  flow_stats.priority = 100;
  flow_stats.cookie = 0xc0ffee;
  flow_stats.packet_count = 12;
  flow_stats.byte_count = 3456;
  flow_stats.duration_sec = 78;
  flow_stats.match = mod.match;
  flow_stats.instructions = output_to(7);
  return {
      Hello{},
      ErrorMsg{ErrorType::FlowModFailed, flow_mod_failed_code::kTableFull,
               {0x04, 0x0e, 0x00, 0x08}},
      EchoRequest{{0xde, 0xad, 0xbe, 0xef}},
      EchoReply{{0x01, 0x02}, 7},
      Experimenter{0x005a454e, 2, {0xaa, 0xbb, 0xcc}},
      FeaturesRequest{},
      FeaturesReply{0xabc, 256, 4, 3, {port}},
      mod,
      PacketIn{42, PacketInReason::Action, 1, 0xc0ffee, 3, 60,
               {0x11, 0x22, 0x33, 0x44}},
      PacketOut{kNoBuffer, Ports::kController,
                {OutputAction{Ports::kFlood, 0xffff}}, {0x55, 0x66}},
      FlowRemoved{0xc0ffee, 100, FlowRemovedReason::Eviction, 1, 12, 3456,
                  mod.match},
      PortStatus{PortReason::Modify, port},
      GroupMod{GroupModCommand::Add, GroupType::Select, 9,
               {Bucket{2, Ports::kAny, {OutputAction{1, 0xffff}}},
                Bucket{1, 3,
                       {SetEthDstAction{mac}, OutputAction{3, 0xffff}}}}},
      MeterMod{MeterModCommand::Modify, 3, 10000, 500},
      BarrierRequest{},
      BarrierReply{{5, 6, 9}},
      FlowStatsRequest{kTableAll, Match().eth_type(net::EtherType::kIpv4)},
      FlowStatsReply{{flow_stats}},
      PortStatsRequest{2},
      PortStatsReply{{PortStatsEntry{2, 10, 20, 1000, 2000, 1, 0}}},
      TableStatsRequest{},
      TableStatsReply{{TableStatsEntry{0, 5, 100, 80}}},
      RoleRequest{ControllerRole::Master, 4},
      RoleReply{ControllerRole::Slave, 4, false},
  };
}

// one_of_each_type() framed at kGoldenXid, in the same order, as the
// retired v1 per-message encoder wrote them.
constexpr Xid kGoldenXid = 0x01020304;
constexpr const char* kV1Frames[] = {
    // Hello
    "04000000000b0102030404",
    // Error
    "040100000016010203040005000200000004040e0008",
    // EchoRequest
    "0402000000120102030400000004deadbeef",
    // EchoReply
    "040300000018010203040000000201020000000000000007",
    // Experimenter
    "04040000001901020304005a454e0000000200000003aabbcc",
    // FeaturesRequest
    "04050000000a01020304",
    // FeaturesReply
    "040600000040010203040000000000000abc0000010004000000000000000300"
    "0100000002020000000007657468320000000000000000000000000000009c40",
    // FlowMod
    "040e00000065010203040000000000c0ffee0100000a001e0064ffffffffffff"
    "ffff0001000500040000000000030300080007000a0000020b00006400040000"
    "03080a00000903002a0300000000070080010002010000000902000000010400"
    "0000030302",
    // PacketIn
    "040a00000026010203040000002a01010000000000c0ffee00000003003c0000"
    "000411223344",
    // PacketOut
    "040d0000002101020304fffffffffffffffd000100fffffffbffff0000000255"
    "66",
    // FlowRemoved
    "040b0000003c010203040000000000c0ffee00640301000000000000000c0000"
    "000000000d8000040000000000030300080007000a0000020b000064",
    // PortStatus
    "040c0000002a0102030402000000020200000000076574683200000000000000"
    "00000000000000009c40",
    // GroupMod
    "040f000000370102030400010000000900020002ffffffff00010000000001ff"
    "ff0001000000030002060200000000070000000003ffff",
    // MeterMod
    "041d0000001f010203040100000003000000000000271000000000000001f4",
    // BarrierRequest
    "04140000000a01020304",
    // BarrierReply
    "041500000018010203040003000000050000000600000009",
    // FlowStatsRequest
    "041e0000001101020304ff000103000800",
    // FlowStatsReply
    "041f0000004d0102030400010100640000000000c0ffee000000000000000c00"
    "00000000000d800000004e00040000000000030300080007000a0000020b0000"
    "6400010000010000000007ffff",
    // PortStatsRequest
    "04200000000e0102030400000002",
    // PortStatsReply
    "04210000004001020304000100000002000000000000000a0000000000000014"
    "00000000000003e800000000000007d000000000000000010000000000000000",
    // TableStatsRequest
    "04220000000a01020304",
    // TableStatsReply
    "0423000000210102030400010000000005000000000000006400000000000000"
    "50",
    // RoleRequest
    "04240000001301020304010000000000000004",
    // RoleReply
    "0425000000140102030402000000000000000400",
};

Bytes from_hex(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

// ---- arena framing --------------------------------------------------------

TEST(WireArena, AppendProducesParsableFrames) {
  WireArena arena;
  EXPECT_TRUE(arena.empty());
  const auto f1 = arena.append(Message{sample_mod(1)}, 10);
  const auto f2 = arena.append(Message{BarrierRequest{}}, 11);
  EXPECT_EQ(arena.frame_count(), 2u);
  EXPECT_EQ(arena.size(), f1.size() + f2.size());

  BatchReader reader(arena.bytes());
  auto a = reader.next();
  ASSERT_TRUE(a.has_value() && a->ok());
  EXPECT_EQ(a->value().xid, 10u);
  EXPECT_EQ(a->value().type, MsgType::FlowMod);
  auto b = reader.next();
  ASSERT_TRUE(b.has_value() && b->ok());
  EXPECT_EQ(b->value().xid, 11u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.frames_yielded(), 2u);
}

TEST(WireArena, ViewsAreZeroCopyIntoTheArena) {
  WireArena arena;
  arena.append(Message{sample_mod(1)}, 1);
  const auto bytes = arena.bytes();
  BatchReader reader(bytes);
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value() && frame->ok());
  // The view's storage IS the arena buffer, not a copy.
  EXPECT_GE(frame->value().frame.data(), bytes.data());
  EXPECT_LE(frame->value().frame.data() + frame->value().frame.size(),
            bytes.data() + bytes.size());
  EXPECT_EQ(frame->value().body.data(), frame->value().frame.data() + kHeaderSize);
}

TEST(WireArena, ClearKeepsCapacityTakeMovesBytes) {
  WireArena arena;
  arena.append(Message{sample_mod(1)}, 1);
  const std::size_t n = arena.size();
  Bytes taken = arena.take();
  EXPECT_EQ(taken.size(), n);
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.frame_count(), 0u);

  arena.append(Message{sample_mod(2)}, 2);
  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.frame_count(), 0u);
}

TEST(FrameWriter, StreamedBodyMatchesAppend) {
  const Message msg{sample_mod(42)};
  WireArena via_append;
  via_append.append(msg, 7);

  WireArena via_writer;
  {
    FrameWriter frame(via_writer, type_of(msg), 7);
    encode_body(msg, frame.body());
    frame.finish();
  }
  EXPECT_EQ(std::vector(via_append.bytes().begin(), via_append.bytes().end()),
            std::vector(via_writer.bytes().begin(), via_writer.bytes().end()));
}

// ---- v1/v2 equivalence ----------------------------------------------------

TEST(WireEquivalence, ArenaFramesAreByteIdenticalToV1Encode) {
  const std::vector<Message> messages = one_of_each_type();
  ASSERT_EQ(messages.size(), std::size(kV1Frames));
  std::set<std::size_t> kinds;
  WireArena arena;  // frames appended back to back, as a flush batches them
  for (std::size_t i = 0; i < messages.size(); ++i) {
    SCOPED_TRACE(type_name(type_of(messages[i])));
    kinds.insert(messages[i].index());
    const Bytes v1 = from_hex(kV1Frames[i]);
    const auto v2 = arena.append(messages[i], kGoldenXid);
    EXPECT_EQ(Bytes(v2.begin(), v2.end()), v1);
    EXPECT_EQ(encode_frame(messages[i], kGoldenXid), v1);
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<Message>);
}

TEST(WireEquivalence, DecodePathsAgree) {
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const Message msg = random_message(rng);
    const Bytes wire = encode_frame(msg, 5);
    auto legacy = decode(wire);
    auto view = parse_frame(wire);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(view.ok());
    auto owned = decode_frame(view.value());
    ASSERT_TRUE(owned.ok());
    EXPECT_EQ(owned.value().xid, legacy.value().xid);
    EXPECT_TRUE(owned.value().msg == legacy.value().msg);
  }
}

// ---- batch-boundary error isolation ---------------------------------------

TEST(BatchReader, TruncatedFinalFrameRejectsOnlyThatFrame) {
  WireArena arena;
  arena.append(Message{sample_mod(1)}, 1);
  arena.append(Message{sample_mod(2)}, 2);
  const auto whole = arena.bytes();
  // Chop the last frame short (keep its header so the length prefix is
  // readable but the body is missing).
  BatchReader reader(whole.subspan(0, whole.size() - 4));
  auto first = reader.next();
  ASSERT_TRUE(first.has_value() && first->ok());
  EXPECT_EQ(first->value().xid, 1u);
  auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->ok());  // the short frame itself errors...
  EXPECT_FALSE(reader.next().has_value());  // ...and the reader stops
  EXPECT_EQ(reader.frames_yielded(), 1u);
}

TEST(BatchReader, TruncatedHeaderAtBatchBoundary) {
  WireArena arena;
  arena.append(Message{BarrierRequest{}}, 9);
  const auto whole = arena.bytes();
  BatchReader reader(whole.subspan(0, kHeaderSize - 3));
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
}

TEST(BatchReader, OversizedLengthPrefixRejected) {
  Bytes junk = encode_frame(Message{BarrierRequest{}}, 1);
  // Patch the length field (offset 2, u32 BE) to something absurd.
  junk[2] = 0xff;
  junk[3] = 0xff;
  junk[4] = 0xff;
  junk[5] = 0xff;
  BatchReader reader(junk);
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(BatchReader, UndersizedLengthPrefixRejected) {
  Bytes junk = encode_frame(Message{BarrierRequest{}}, 1);
  junk[2] = 0;
  junk[3] = 0;
  junk[4] = 0;
  junk[5] = kHeaderSize - 1;  // below the header size itself
  BatchReader reader(junk);
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
}

TEST(BatchReader, FuzzedRandomCutsNeverCrashAndKeepPrefix) {
  util::Rng rng(31337);
  for (int round = 0; round < 200; ++round) {
    WireArena arena;
    const std::size_t n = 1 + rng.next_below(8);
    std::vector<Xid> xids;
    for (std::size_t i = 0; i < n; ++i) {
      const Xid xid = static_cast<Xid>(100 + i);
      arena.append(random_message(rng), xid);
      xids.push_back(xid);
    }
    const auto whole = arena.bytes();
    const std::size_t cut = rng.next_below(whole.size() + 1);
    BatchReader reader(whole.subspan(0, cut));
    std::size_t ok_frames = 0;
    while (auto r = reader.next()) {
      if (!r->ok()) break;
      // Every intact prefix frame must decode with the right xid.
      ASSERT_LT(ok_frames, xids.size());
      EXPECT_EQ(r->value().xid, xids[ok_frames]);
      EXPECT_TRUE(decode_frame(r->value()).ok());
      ++ok_frames;
    }
    // A cut can only lose the tail, never a fully-delivered prefix frame.
    EXPECT_EQ(ok_frames, reader.frames_yielded());
  }
}

// ---- stream framing -------------------------------------------------------

TEST(Stream, HandlesManyMessagesInOneFeed) {
  // 100 frames in one batch come out of one reader, in order.
  WireArena arena;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    arena.append(Message{EchoRequest{{static_cast<std::uint8_t>(i)}}},
                 static_cast<Xid>(i));
  }
  BatchReader reader(arena.bytes());
  int count = 0;
  while (auto frame = reader.next()) {
    ASSERT_TRUE(frame->ok());
    EXPECT_EQ(frame->value().xid, static_cast<Xid>(count));
    auto msg = decode_frame(frame->value());
    ASSERT_TRUE(msg.ok());
    const auto* echo = std::get_if<EchoRequest>(&msg.value().msg);
    ASSERT_NE(echo, nullptr);
    EXPECT_EQ(echo->data, Bytes{static_cast<std::uint8_t>(count)});
    ++count;
  }
  EXPECT_EQ(count, n);
  EXPECT_EQ(reader.frames_yielded(), static_cast<std::size_t>(n));
}

TEST(Stream, RandomizedRoundtripProperty) {
  // 200 random EchoRequests in one arena, delivered as batches split at
  // random frame boundaries: each batch yields exactly its own frames, in
  // order, payloads intact.
  util::Rng rng(99);
  WireArena arena;
  std::vector<Bytes> sent;
  std::vector<std::size_t> starts;  // byte offset of each frame
  for (Xid i = 0; i < 200; ++i) {
    Bytes data(rng.next_below(64));
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
    starts.push_back(arena.size());
    arena.append(Message{EchoRequest{data}}, i);
    sent.push_back(std::move(data));
  }
  starts.push_back(arena.size());

  std::size_t first = 0;
  std::size_t yielded = 0;
  while (first < sent.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next_below(40), sent.size() - first);
    BatchReader reader(arena.bytes().subspan(
        starts[first], starts[first + n] - starts[first]));
    std::size_t got = 0;
    while (auto frame = reader.next()) {
      ASSERT_TRUE(frame->ok());
      ASSERT_LT(got, n);
      EXPECT_EQ(frame->value().xid, first + got);
      auto msg = decode_frame(frame->value());
      ASSERT_TRUE(msg.ok());
      const auto* echo = std::get_if<EchoRequest>(&msg.value().msg);
      ASSERT_NE(echo, nullptr);
      EXPECT_EQ(echo->data, sent[first + got]);
      ++got;
    }
    EXPECT_EQ(got, n);
    EXPECT_EQ(reader.frames_yielded(), n);
    yielded += reader.frames_yielded();
    first += n;
  }
  EXPECT_EQ(yielded, arena.frame_count());
}

// ---- bundle messages ------------------------------------------------------

TEST(Bundle, OpenAddCommitDiscardRoundtrip) {
  const Experimenter open = make_bundle_open(5);
  auto parsed_open = parse_bundle_message(open);
  ASSERT_TRUE(parsed_open.ok());
  EXPECT_EQ(std::get<BundleOpen>(parsed_open.value()).bundle_id, 5u);

  const Experimenter add = make_bundle_add(5, 2, Message{sample_mod(9)});
  auto parsed_add = parse_bundle_message(add);
  ASSERT_TRUE(parsed_add.ok());
  const auto& badd = std::get<BundleAdd>(parsed_add.value());
  EXPECT_EQ(badd.bundle_id, 5u);
  EXPECT_EQ(badd.member_index, 2u);
  const auto* mod = std::get_if<FlowMod>(&badd.member);
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(mod->priority, 9);

  const Experimenter commit = make_bundle_commit(5, 3);
  auto parsed_commit = parse_bundle_message(commit);
  ASSERT_TRUE(parsed_commit.ok());
  EXPECT_EQ(std::get<BundleCommit>(parsed_commit.value()).bundle_id, 5u);
  EXPECT_EQ(std::get<BundleCommit>(parsed_commit.value()).n_members, 3u);

  const Experimenter discard = make_bundle_discard(5);
  auto parsed_discard = parse_bundle_message(discard);
  ASSERT_TRUE(parsed_discard.ok());
  EXPECT_EQ(std::get<BundleDiscard>(parsed_discard.value()).bundle_id, 5u);
}

TEST(Bundle, MemberSurvivesWireRoundtrip) {
  // The envelope must survive a real encode/decode cycle, nested frame
  // and all.
  const Experimenter add = make_bundle_add(1, 0, Message{sample_mod(77)});
  const Bytes wire = encode_frame(Message{add}, 123);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  const auto* exp = std::get_if<Experimenter>(&decoded.value().msg);
  ASSERT_NE(exp, nullptr);
  auto parsed = parse_bundle_message(*exp);
  ASSERT_TRUE(parsed.ok());
  const auto* mod =
      std::get_if<FlowMod>(&std::get<BundleAdd>(parsed.value()).member);
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(mod->priority, 77);
}

TEST(Bundle, RejectsForeignExperimenterAndTruncation) {
  Experimenter foreign;
  foreign.experimenter_id = 0xdeadbeef;
  foreign.exp_type = kExpTypeBundleOpen;
  EXPECT_FALSE(parse_bundle_message(foreign).ok());

  Experimenter truncated = make_bundle_add(1, 0, Message{sample_mod(1)});
  truncated.payload.resize(6);  // cuts into the member frame
  EXPECT_FALSE(parse_bundle_message(truncated).ok());

  Experimenter unknown = make_bundle_open(1);
  unknown.exp_type = 99;
  EXPECT_FALSE(parse_bundle_message(unknown).ok());
}

}  // namespace
}  // namespace zen::openflow
