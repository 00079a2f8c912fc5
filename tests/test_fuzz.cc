// Robustness suite: adversarial and random inputs must never crash, hang,
// or mis-accept. These are cheap deterministic fuzzers (seeded PRNG, fixed
// iteration budgets) run as ordinary unit tests.
#include <gtest/gtest.h>

#include "dataplane/switch.h"
#include "net/checksum.h"
#include "net/packet.h"
#include "openflow/bundle.h"
#include "openflow/table_status.h"
#include "openflow/wire.h"
#include "util/rng.h"

namespace zen {
namespace {

net::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  net::Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// ---- packet parser ----

TEST(FuzzPacket, RandomBytesNeverCrash) {
  util::Rng rng(0xf00d);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes frame = random_bytes(rng, 128);
    auto parsed = net::parse_packet(frame);
    if (parsed.ok()) ++accepted;
  }
  // Random bytes occasionally form a valid unknown-ethertype frame, but
  // should essentially never parse as full IPv4/TCP stacks.
  SUCCEED() << accepted << " frames accepted";
}

TEST(FuzzPacket, BitflippedValidFramesNeverCrash) {
  util::Rng rng(0xf11d);
  const net::Bytes base = net::build_ipv4_udp(
      net::MacAddress::from_u64(1), net::MacAddress::from_u64(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1, 2,
      std::vector<std::uint8_t>(32, 0x77));
  for (int i = 0; i < 20000; ++i) {
    net::Bytes frame = base;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(frame.size());
      frame[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    auto parsed = net::parse_packet(frame);
    (void)parsed;
  }
  SUCCEED();
}

TEST(FuzzPacket, AllTruncationsOfValidFrameRejectedOrConsistent) {
  net::TcpSpec spec;
  spec.src_port = 80;
  spec.dst_port = 12345;
  const net::Bytes base = net::build_ipv4_tcp(
      net::MacAddress::from_u64(1), net::MacAddress::from_u64(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), spec,
      std::vector<std::uint8_t>(64, 0));
  for (std::size_t len = 0; len <= base.size(); ++len) {
    auto parsed = net::parse_packet(std::span(base.data(), len));
    if (len < base.size() - 64) {
      // Truncation inside the header stack must be rejected.
      EXPECT_FALSE(parsed.ok()) << "len=" << len;
    }
  }
}

TEST(FuzzPacket, DiscoveryParserOnRandomLldpFrames) {
  util::Rng rng(0xd15c);
  for (int i = 0; i < 10000; ++i) {
    net::Bytes frame = random_bytes(rng, 96);
    if (frame.size() >= 14) {
      frame[12] = 0x88;  // force LLDP ethertype so the TLV walker runs
      frame[13] = 0xcc;
    }
    auto info = net::parse_discovery_frame(frame);
    (void)info;
  }
  SUCCEED();
}

// ---- wire codec ----

TEST(FuzzCodec, RandomBytesIntoDecoder) {
  util::Rng rng(0xc0de);
  for (int i = 0; i < 20000; ++i) {
    const net::Bytes frame = random_bytes(rng, 96);
    auto decoded = openflow::decode(frame);
    (void)decoded;
  }
  SUCCEED();
}

TEST(FuzzCodec, CorruptedValidMessagesIntoDecoder) {
  util::Rng rng(0xc0df);
  openflow::FlowMod mod;
  mod.priority = 7;
  mod.match.eth_type(net::EtherType::kIpv4)
      .ipv4_dst(net::Ipv4Address(10, 0, 0, 1), 24)
      .l4_dst(80);
  mod.instructions = openflow::output_to(3);
  const openflow::Bytes base = openflow::encode_frame(openflow::Message{mod}, 42);
  for (int i = 0; i < 20000; ++i) {
    openflow::Bytes wire = base;
    const int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(wire.size());
      wire[pos] = static_cast<std::uint8_t>(rng.next_u64());
    }
    auto decoded = openflow::decode(wire);
    (void)decoded;
  }
  SUCCEED();
}

TEST(FuzzCodec, BatchWithGarbageTailKeepsValidPrefix) {
  // Valid frames with random bytes behind them: the reader yields the
  // valid frames intact and in order, then at most one error for the
  // garbage, then nothing — within a bounded number of calls.
  util::Rng rng(0x57e4);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    openflow::WireArena arena;
    std::vector<net::Bytes> payloads(1 + rng.next_below(4));
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      payloads[i] = random_bytes(rng, 16);
      arena.append(openflow::Message{openflow::EchoRequest{payloads[i]}},
                   static_cast<openflow::Xid>(i + 1));
    }
    openflow::Bytes batch = arena.take();
    const net::Bytes garbage = random_bytes(rng, 64);
    batch.insert(batch.end(), garbage.begin(), garbage.end());

    openflow::BatchReader reader(batch);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      auto frame = reader.next();
      ASSERT_TRUE(frame.has_value() && frame->ok());
      EXPECT_EQ(frame->value().xid, i + 1);
      auto msg = openflow::decode_frame(frame->value());
      ASSERT_TRUE(msg.ok());
      const auto* echo = std::get_if<openflow::EchoRequest>(&msg.value().msg);
      ASSERT_NE(echo, nullptr);
      EXPECT_EQ(echo->data, payloads[i]);
    }
    // Non-empty garbage costs exactly one error; then the batch ends.
    auto tail = reader.next();
    EXPECT_EQ(tail.has_value(), !garbage.empty());
    EXPECT_FALSE(tail.has_value() && tail->ok());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.frames_yielded(), payloads.size());
  }
}

TEST(FuzzCodec, LengthFieldAttacksBounded) {
  // A frame claiming an enormous length must end its batch with one
  // error, not allocate or wait for bytes that never come.
  openflow::Bytes evil = {openflow::kProtocolVersion,
                          0 /*Hello*/,
                          0x7f, 0xff, 0xff, 0xff,  // length = 2 GiB
                          0, 0, 0, 1};
  openflow::BatchReader reader(evil);
  auto msg = reader.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_FALSE(msg->ok());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.frames_yielded(), 0u);
}

// ---- bundle member frames ----

TEST(FuzzBundle, CorruptedBundleAddPayloadsNeverCrash) {
  openflow::FlowMod mod;
  mod.priority = 9;
  mod.match.eth_type(net::EtherType::kIpv4).l4_dst(443);
  mod.instructions = openflow::output_to(2);
  const openflow::Experimenter add =
      openflow::make_bundle_add(4, 1, openflow::Message{mod});
  ASSERT_TRUE(openflow::parse_bundle_message(add).ok());

  // Every strict prefix is rejected as truncated...
  for (std::size_t len = 0; len < add.payload.size(); ++len) {
    openflow::Experimenter cut = add;
    cut.payload.resize(len);
    EXPECT_FALSE(openflow::parse_bundle_message(cut).ok())
        << "accepted truncation to " << len << " bytes";
  }

  // ...so are bytes trailing the member frame...
  for (std::size_t extra = 1; extra <= 16; ++extra) {
    openflow::Experimenter fat = add;
    fat.payload.insert(fat.payload.end(), extra, 0xee);
    EXPECT_FALSE(openflow::parse_bundle_message(fat).ok())
        << "accepted " << extra << " trailing bytes";
  }

  // ...and random byte flips anywhere in the payload never crash.
  util::Rng rng(0xb0d1e);
  for (int i = 0; i < 20000; ++i) {
    openflow::Experimenter msg = add;
    const int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(msg.payload.size());
      msg.payload[pos] = static_cast<std::uint8_t>(rng.next_u64());
    }
    auto parsed = openflow::parse_bundle_message(msg);
    (void)parsed;
  }
  SUCCEED();
}

// ---- dataplane under random rules and traffic ----

TEST(FuzzSwitch, RandomRulesAndFramesNeverCrash) {
  util::Rng rng(0x5111);
  dataplane::Switch sw(1, {});
  for (std::uint32_t p = 1; p <= 4; ++p) {
    openflow::PortDesc port;
    port.port_no = p;
    sw.add_port(port);
  }

  // Random rule soup across all tables, including goto/groups/meters that
  // may dangle.
  for (int i = 0; i < 300; ++i) {
    openflow::FlowMod mod;
    mod.table_id = static_cast<std::uint8_t>(rng.next_below(4));
    mod.priority = static_cast<std::uint16_t>(rng.next_below(100));
    if (rng.next_bool(0.6)) mod.match.eth_type(net::EtherType::kIpv4);
    if (rng.next_bool(0.4))
      mod.match.ipv4_dst(net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())),
                         static_cast<int>(rng.next_in(8, 32)));
    switch (rng.next_below(5)) {
      case 0:
        mod.instructions = openflow::output_to(
            static_cast<std::uint32_t>(1 + rng.next_below(4)));
        break;
      case 1:
        mod.instructions = {
            openflow::GotoTable{static_cast<std::uint8_t>(rng.next_below(6))}};
        break;
      case 2:
        mod.instructions = {openflow::ApplyActions{
            {openflow::GroupAction{static_cast<std::uint32_t>(rng.next_below(8))}}}};
        break;
      case 3:
        mod.instructions = {
            openflow::MeterInstruction{static_cast<std::uint32_t>(rng.next_below(8))},
            openflow::ApplyActions{{openflow::OutputAction{2, 0xffff}}}};
        break;
      default:
        mod.instructions = {};  // drop
        break;
    }
    sw.flow_mod(mod, 0);
  }
  // A couple of groups, some of which the rules above reference.
  for (std::uint32_t g = 0; g < 4; ++g) {
    openflow::GroupMod gm;
    gm.command = openflow::GroupModCommand::Add;
    gm.type = g % 2 ? openflow::GroupType::Select : openflow::GroupType::All;
    gm.group_id = g;
    gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny,
                                   {openflow::OutputAction{1 + g % 4, 0xffff}}}};
    sw.group_mod(gm);
  }

  // Blast random and semi-valid frames through it.
  for (int i = 0; i < 5000; ++i) {
    net::Bytes frame;
    if (rng.next_bool(0.5)) {
      frame = random_bytes(rng, 96);
    } else {
      frame = net::build_ipv4_udp(
          net::MacAddress::from_u64(rng.next_u64() & 0xffffffffffff),
          net::MacAddress::from_u64(rng.next_u64() & 0xffffffffffff),
          net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())),
          net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())),
          static_cast<std::uint16_t>(rng.next_u64()),
          static_cast<std::uint16_t>(rng.next_u64()),
          std::vector<std::uint8_t>(rng.next_below(32), 0));
    }
    const auto in_port = static_cast<std::uint32_t>(1 + rng.next_below(4));
    auto result = sw.ingress(static_cast<double>(i) * 1e-6, in_port, frame);
    // Outputs, if any, must be to existing ports.
    for (const auto& egress : result.outputs) {
      EXPECT_GE(egress.port, 1u);
      EXPECT_LE(egress.port, 4u);
    }
  }
}

TEST(FuzzSwitch, RandomWireMessagesThroughAgentSurface) {
  // Random bytes fed to a Switch via the decode path: whatever decodes to
  // a valid message must be handled; invalid ones rejected gracefully.
  util::Rng rng(0xa9e7);
  dataplane::Switch sw(1, {});
  openflow::PortDesc port;
  port.port_no = 1;
  sw.add_port(port);

  for (int i = 0; i < 10000; ++i) {
    const net::Bytes wire = random_bytes(rng, 64);
    auto decoded = openflow::decode(wire);
    if (!decoded.ok()) continue;
    // Apply anything rule-shaped; must not crash.
    if (const auto* mod = std::get_if<openflow::FlowMod>(&decoded.value().msg))
      sw.flow_mod(*mod, 0);
    else if (const auto* gm = std::get_if<openflow::GroupMod>(&decoded.value().msg))
      sw.group_mod(*gm);
    else if (const auto* mm = std::get_if<openflow::MeterMod>(&decoded.value().msg))
      sw.meter_mod(*mm);
  }
  SUCCEED();
}

// ---- MutablePacket rewrites on arbitrary parsed frames ----

// Checks every checksum in `frame`: the IPv4 header's, TCP/UDP over the
// IPv4 or IPv6 pseudo-header, and ICMPv4 over the message alone.
::testing::AssertionResult checksums_verify(std::span<const std::uint8_t> frame,
                                            const net::ParsedPacket& p) {
  std::size_t l4 = net::EthernetHeader::kSize + (p.vlan ? net::VlanTag::kSize : 0);
  if (p.ipv4) {
    if (net::internet_checksum(frame.subspan(l4, net::Ipv4Header::kMinSize)) != 0)
      return ::testing::AssertionFailure() << "IPv4 header checksum";
    l4 += net::Ipv4Header::kMinSize;
  } else if (p.ipv6) {
    l4 += net::Ipv6Header::kSize;
  }
  const auto segment = frame.subspan(l4);
  std::uint16_t residue = 0;
  if (p.icmp)
    residue = net::internet_checksum(segment);
  else if ((p.tcp || p.udp) && p.ipv4)
    residue = net::l4_checksum_ipv4(p.ipv4->src, p.ipv4->dst, p.ipv4->protocol,
                                    segment);
  else if ((p.tcp || p.udp) && p.ipv6)
    residue = net::l4_checksum_ipv6(p.ipv6->src, p.ipv6->dst,
                                    p.ipv6->next_header, segment);
  if (residue != 0)
    return ::testing::AssertionFailure() << "L4 checksum residue " << residue;
  return ::testing::AssertionSuccess();
}

TEST(FuzzRewrite, RandomActionSequencesKeepFramesParseable) {
  util::Rng rng(0x3e14);
  const net::MacAddress m1 = net::MacAddress::from_u64(1);
  const net::MacAddress m2 = net::MacAddress::from_u64(2);
  const net::Ipv4Address a4(10, 0, 0, 1), b4(10, 0, 0, 2);
  const auto a6 = *net::Ipv6Address::parse("2001:db8::1");
  const auto b6 = *net::Ipv6Address::parse("2001:db8::2");
  const std::vector<std::uint8_t> payload(17, 0x42);
  net::TcpSpec tcp;
  tcp.src_port = 80;
  tcp.dst_port = 12345;
  // One base frame from every builder that writes through the frame writer.
  const std::vector<net::Bytes> bases = {
      net::build_arp_request(m1, a4, b4),
      net::build_ipv4_tcp(m1, m2, a4, b4, tcp, payload),
      net::build_ipv4_udp(m1, m2, a4, b4, 1, 2, payload),
      net::build_ipv4_icmp_echo(m1, m2, a4, b4, true, 7, 9),
      net::build_ipv6_tcp(m1, m2, a6, b6, tcp, payload),
      net::build_ipv6_udp(m1, m2, a6, b6, 1000, 2000, payload),
  };
  for (int i = 0; i < 3000; ++i) {
    const std::size_t b = rng.next_below(bases.size());
    dataplane::MutablePacket pkt(bases[b]);
    ASSERT_TRUE(pkt.ok());
    const int n_actions = static_cast<int>(rng.next_below(6));
    bool alive = true;
    for (int a = 0; a < n_actions && alive; ++a) {
      openflow::Action action = openflow::PopVlanAction{};
      switch (rng.next_below(10)) {
        case 0: action = openflow::SetEthSrcAction{net::MacAddress::from_u64(rng.next_u64() & 0xffffffffffff)}; break;
        case 1: action = openflow::SetEthDstAction{net::MacAddress::from_u64(rng.next_u64() & 0xffffffffffff)}; break;
        case 2: action = openflow::SetIpv4SrcAction{net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()))}; break;
        case 3: action = openflow::SetIpv4DstAction{net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()))}; break;
        case 4: action = openflow::SetL4SrcAction{static_cast<std::uint16_t>(rng.next_u64())}; break;
        case 5: action = openflow::SetL4DstAction{static_cast<std::uint16_t>(rng.next_u64())}; break;
        case 6: action = openflow::SetIpDscpAction{static_cast<std::uint8_t>(rng.next_below(64))}; break;
        case 7: action = openflow::PushVlanAction{static_cast<std::uint16_t>(rng.next_below(4096)), 0}; break;
        case 8: action = openflow::PopVlanAction{}; break;
        default: action = openflow::DecTtlAction{}; break;
      }
      alive = pkt.apply(action);
    }
    if (!alive) continue;  // legitimately dropped (e.g. pop on untagged)
    const net::Bytes out = pkt.serialize();
    ASSERT_EQ(out.size(), pkt.wire_size()) << "trial " << i << ", base " << b;
    auto parsed = net::parse_packet(out);
    ASSERT_TRUE(parsed.ok())
        << "rewritten frame unparseable at trial " << i << ", base " << b;
    const net::ParsedPacket& p = parsed.value();
    EXPECT_TRUE(checksums_verify(out, p)) << "trial " << i << ", base " << b;
    // The writer is the parser's inverse on its own output.
    EXPECT_EQ(net::serialize_packet(p, std::span(out).subspan(p.payload_offset)),
              out)
        << "trial " << i << ", base " << b;
  }
}

// ---- vacancy (TableStatus) experimenter payloads ----

TEST(FuzzTableStatus, EveryTruncationAndAnyTrailingBytesRejected) {
  openflow::TableStatus status;
  status.table_id = 2;
  status.reason = openflow::VacancyReason::VacancyDown;
  status.active_count = 47;
  status.max_entries = 64;
  status.vacancy_down_pct = 25;
  status.vacancy_up_pct = 50;
  const openflow::Experimenter msg =
      openflow::make_table_status_message(status);

  // The intact message round-trips...
  auto parsed = openflow::parse_table_status_message(msg);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), status);

  // ...every strict prefix is rejected as truncated...
  for (std::size_t len = 0; len < msg.payload.size(); ++len) {
    openflow::Experimenter cut = msg;
    cut.payload.resize(len);
    EXPECT_FALSE(openflow::parse_table_status_message(cut).ok())
        << "accepted truncation to " << len << " bytes";
  }

  // ...and so is any oversized payload (trailing garbage).
  for (std::size_t extra = 1; extra <= 16; ++extra) {
    openflow::Experimenter fat = msg;
    fat.payload.insert(fat.payload.end(), extra, 0xee);
    EXPECT_FALSE(openflow::parse_table_status_message(fat).ok())
        << "accepted " << extra << " trailing bytes";
  }
}

TEST(FuzzTableStatus, RandomAndBitflippedPayloadsNeverCrash) {
  util::Rng rng(0x7ab1e);
  const openflow::Experimenter base =
      openflow::make_table_status_message(openflow::TableStatus{});
  for (int i = 0; i < 20000; ++i) {
    openflow::Experimenter msg;
    // Half the trials wear the real envelope ids so the payload parser is
    // actually reached; the rest must bounce off the id checks.
    if (rng.next_below(2) == 0) {
      msg.experimenter_id = openflow::kVacancyExperimenterId;
      msg.exp_type = openflow::kExpTypeTableStatus;
    } else {
      msg.experimenter_id = static_cast<std::uint32_t>(rng.next_u64());
      msg.exp_type = static_cast<std::uint32_t>(rng.next_below(4));
    }
    if (rng.next_below(2) == 0) {
      msg.payload = random_bytes(rng, 32);
    } else {
      msg.payload = base.payload;
      msg.payload[rng.next_below(msg.payload.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    auto parsed = openflow::parse_table_status_message(msg);
    (void)parsed;
  }
  SUCCEED();
}

TEST(FuzzTableStatus, CorruptedWireFramesThroughDecoder) {
  util::Rng rng(0x7ab1f);
  openflow::TableStatus status;
  status.table_id = 1;
  status.active_count = 60;
  status.max_entries = 64;
  const openflow::Bytes base = openflow::encode_frame(
      openflow::Message{openflow::make_table_status_message(status)}, 99);
  for (int i = 0; i < 20000; ++i) {
    openflow::Bytes wire = base;
    const int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f)
      wire[rng.next_below(wire.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    auto decoded = openflow::decode(wire);
    if (!decoded.ok()) continue;
    if (const auto* exp =
            std::get_if<openflow::Experimenter>(&decoded.value().msg)) {
      auto parsed = openflow::parse_table_status_message(*exp);
      (void)parsed;  // either verdict is fine; crashing is not
    }
  }
  SUCCEED();
}

// ---- TableFull error frames ----

TEST(FuzzError, TableFullErrorRoundTripsAndClassifies) {
  openflow::ErrorMsg err;
  err.type = openflow::ErrorType::FlowModFailed;
  err.code = openflow::flow_mod_failed_code::kTableFull;
  err.data = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(openflow::is_table_full(err));

  const openflow::Bytes wire = openflow::encode_frame(openflow::Message{err}, 7);
  auto decoded = openflow::decode(wire);
  ASSERT_TRUE(decoded.ok());
  const auto* back = std::get_if<openflow::ErrorMsg>(&decoded.value().msg);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, err);
  EXPECT_TRUE(openflow::is_table_full(*back));

  // Same type with a different code is NOT table-full.
  err.code = openflow::flow_mod_failed_code::kBadTableId;
  EXPECT_FALSE(openflow::is_table_full(err));
}

TEST(FuzzError, TruncatedAndCorruptedTableFullFramesNeverCrash) {
  util::Rng rng(0xe1107);
  openflow::ErrorMsg err;
  err.type = openflow::ErrorType::FlowModFailed;
  err.code = openflow::flow_mod_failed_code::kTableFull;
  err.data = std::vector<std::uint8_t>(24, 0x5a);
  const openflow::Bytes base = openflow::encode_frame(openflow::Message{err}, 3);
  // Every truncation either fails to decode or yields a consistent error.
  for (std::size_t len = 0; len < base.size(); ++len) {
    openflow::Bytes cut(base.begin(),
                        base.begin() + static_cast<std::ptrdiff_t>(len));
    auto decoded = openflow::decode(cut);
    (void)decoded;
  }
  for (int i = 0; i < 20000; ++i) {
    openflow::Bytes wire = base;
    const int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f)
      wire[rng.next_below(wire.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    auto decoded = openflow::decode(wire);
    if (!decoded.ok()) continue;
    if (const auto* e = std::get_if<openflow::ErrorMsg>(&decoded.value().msg))
      (void)openflow::is_table_full(*e);  // must never misbehave
  }
  SUCCEED();
}

}  // namespace
}  // namespace zen
