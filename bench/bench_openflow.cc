// E2 — southbound wire-protocol codec throughput.
//
// Encode/decode rates for the messages that dominate controller traffic
// (FlowMod, PacketIn, PacketOut) plus batched arena encoding, i.e. the
// per-flow control-channel cost a controller pays.
#include <benchmark/benchmark.h>

#include "net/headers.h"
#include "openflow/wire.h"

namespace {

using namespace zen;
using namespace zen::openflow;

FlowMod typical_flow_mod() {
  FlowMod mod;
  mod.priority = 100;
  mod.cookie = 0xc0ffee;
  mod.idle_timeout = 30;
  mod.match.in_port(3)
      .eth_type(net::EtherType::kIpv4)
      .ipv4_src(net::Ipv4Address(10, 0, 0, 1), 32)
      .ipv4_dst(net::Ipv4Address(10, 0, 0, 2), 32)
      .ip_proto(net::IpProto::kTcp)
      .l4_dst(80);
  mod.instructions = output_to(7);
  return mod;
}

PacketIn typical_packet_in() {
  PacketIn pin;
  pin.buffer_id = 42;
  pin.in_port = 3;
  pin.total_len = 1500;
  pin.data.assign(128, 0x5a);
  return pin;
}

void BM_EncodeFlowMod(benchmark::State& state) {
  const Message msg{typical_flow_mod()};
  for (auto _ : state) {
    auto wire = encode_frame(msg, 1);
    benchmark::DoNotOptimize(wire);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeFlowMod);

void BM_DecodeFlowMod(benchmark::State& state) {
  const Bytes wire = encode_frame(Message{typical_flow_mod()}, 1);
  for (auto _ : state) {
    auto msg = decode(wire);
    benchmark::DoNotOptimize(msg);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeFlowMod);

void BM_EncodePacketIn(benchmark::State& state) {
  const Message msg{typical_packet_in()};
  for (auto _ : state) {
    auto wire = encode_frame(msg, 1);
    benchmark::DoNotOptimize(wire);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodePacketIn);

void BM_DecodePacketIn(benchmark::State& state) {
  const Bytes wire = encode_frame(Message{typical_packet_in()}, 1);
  for (auto _ : state) {
    auto msg = decode(wire);
    benchmark::DoNotOptimize(msg);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodePacketIn);

void BM_RoundtripPacketOut(benchmark::State& state) {
  PacketOut out;
  out.in_port = Ports::kController;
  out.actions = {OutputAction{Ports::kFlood, 0xffff}};
  out.data.assign(128, 0x11);
  for (auto _ : state) {
    auto wire = encode_frame(Message{out}, 9);
    auto back = decode(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoundtripPacketOut);

// Southbound encode throughput, batched vs unbatched. Arg is the batch
// size staged into one WireArena before it is recycled — the shape of a
// Southbound flush. Arg 0 is the v1 path (one heap allocation per
// message via encode_frame()), the baseline the arena replaces.
void BM_SouthboundEncodeThroughput(benchmark::State& state) {
  const Message msg{typical_flow_mod()};
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::size_t bytes = 0;
  if (batch == 0) {
    for (auto _ : state) {
      auto wire = encode_frame(msg, 1);
      bytes += wire.size();
      benchmark::DoNotOptimize(wire);
    }
  } else {
    WireArena arena;
    for (auto _ : state) {
      if (arena.frame_count() == batch) arena.clear();
      auto frame = arena.append(msg, 1);
      bytes += frame.size();
      benchmark::DoNotOptimize(frame.data());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SouthboundEncodeThroughput)->Arg(0)->Arg(1)->Arg(64);

}  // namespace
