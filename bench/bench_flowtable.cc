// E3 — flow-table lookup rate vs table size, mask diversity, and the
// linear-scan ablation.
//
// Expected shape: tuple-space lookup is ~flat in rules-per-table and scales
// with the number of distinct masks; linear scan degrades linearly and is
// hopeless beyond a few hundred rules (why OVS uses tuple-space search).
// The scan walks a snapshot of the table's entries, taken once before the
// timed loop, so only the scan itself is timed.
#include <benchmark/benchmark.h>

#include "dataplane/flow_table.h"
#include "net/headers.h"
#include "util/rng.h"

namespace {

using namespace zen;
using dataplane::FlowEntryPtr;
using dataplane::FlowTable;

// Populates `table` with `n` rules spread over `mask_kinds` distinct masks.
void populate(FlowTable& table, std::size_t n, int mask_kinds, util::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    openflow::Match match;
    match.eth_type(net::EtherType::kIpv4);
    const auto ip = net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()));
    switch (i % static_cast<std::size_t>(mask_kinds)) {
      case 0:
        match.ipv4_dst(ip, 32);
        break;
      case 1:
        match.ipv4_dst(ip, 24);
        break;
      case 2:
        match.ipv4_dst(ip, 16).ip_proto(net::IpProto::kTcp);
        break;
      case 3:
        match.ipv4_dst(ip, 32).ip_proto(net::IpProto::kUdp).l4_dst(
            static_cast<std::uint16_t>(rng.next_below(1024)));
        break;
      default:
        match.ipv4_src(ip, 24).ipv4_dst(
            net::Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())), 24);
        break;
    }
    dataplane::FlowEntry entry;
    entry.match = match;
    entry.priority = static_cast<std::uint16_t>(rng.next_below(1000));
    entry.instructions = openflow::output_to(1);
    table.add(std::move(entry), 0);
  }
}

std::vector<net::FlowKey> make_keys(std::size_t n, util::Rng& rng) {
  std::vector<net::FlowKey> keys(n);
  for (auto& key : keys) {
    key.eth_type = net::EtherType::kIpv4;
    key.ipv4_src = static_cast<std::uint32_t>(rng.next_u64());
    key.ipv4_dst = static_cast<std::uint32_t>(rng.next_u64());
    key.ip_proto = rng.next_bool(0.5) ? net::IpProto::kTcp : net::IpProto::kUdp;
    key.l4_dst = static_cast<std::uint16_t>(rng.next_below(1024));
  }
  return keys;
}

// The ablation: every entry's match is checked in turn, highest priority
// wins.
FlowEntryPtr linear_scan(const std::vector<FlowEntryPtr>& entries,
                         const net::FlowKey& key) {
  FlowEntryPtr best;
  for (const auto& entry : entries) {
    if (!entry->match.matches(key)) continue;
    if (!best || entry->priority > best->priority) best = entry;
  }
  return best;
}

// Times the lookup that `make_lookup(table)` returns, once the table is
// populated with state.range(0) rules over state.range(1) masks.
template <typename MakeLookup>
void run_lookup_bench(benchmark::State& state, MakeLookup make_lookup) {
  const auto n_rules = static_cast<std::size_t>(state.range(0));
  const int mask_kinds = static_cast<int>(state.range(1));
  util::Rng rng(7);
  FlowTable table;
  populate(table, n_rules, mask_kinds, rng);
  const auto keys = make_keys(4096, rng);
  auto lookup = make_lookup(table);

  std::size_t i = 0;
  for (auto _ : state) {
    auto hit = lookup(keys[i++ & 4095]);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rules"] = static_cast<double>(n_rules);
  state.counters["masks"] = static_cast<double>(table.mask_group_count());
}

void BM_TupleSpaceLookup(benchmark::State& state) {
  run_lookup_bench(state, [](FlowTable& table) {
    return [&table](const net::FlowKey& key) { return table.lookup(key); };
  });
}
BENCHMARK(BM_TupleSpaceLookup)
    ->Args({10, 2})
    ->Args({100, 2})
    ->Args({1000, 2})
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({10000, 5})
    ->Args({100000, 5});

void BM_LinearScanLookup(benchmark::State& state) {
  run_lookup_bench(state, [](FlowTable& table) {
    return [entries = table.entries()](const net::FlowKey& key) {
      return linear_scan(entries, key);
    };
  });
}
// Linear scan is the ablation: capped lower — it's O(rules) per packet.
BENCHMARK(BM_LinearScanLookup)
    ->Args({10, 2})
    ->Args({100, 2})
    ->Args({1000, 2})
    ->Args({10000, 2});

void BM_FlowTableInsert(benchmark::State& state) {
  util::Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    FlowTable table;
    state.ResumeTiming();
    populate(table, static_cast<std::size_t>(state.range(0)), 5, rng);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowTableInsert)->Arg(1000)->Arg(10000);

}  // namespace
