#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dataplane/flow_table.h"
#include "net/headers.h"
#include "util/rng.h"

namespace zen::dataplane {
namespace {

using net::Ipv4Address;
using openflow::Match;

FlowEntry make_entry(Match match, std::uint16_t priority,
                     std::uint32_t out_port = 1) {
  FlowEntry entry;
  entry.match = std::move(match);
  entry.priority = priority;
  entry.instructions = openflow::output_to(out_port);
  return entry;
}

net::FlowKey ipv4_key(Ipv4Address dst, std::uint16_t l4_dst = 0) {
  net::FlowKey key;
  key.eth_type = net::EtherType::kIpv4;
  key.ipv4_dst = dst.value();
  key.l4_dst = l4_dst;
  return key;
}

// The E3 baseline and the classifier's equivalence oracle: every entry's
// match is checked in turn and the highest priority wins.
FlowEntryPtr linear_scan(const std::vector<FlowEntryPtr>& entries,
                         const net::FlowKey& key) {
  FlowEntryPtr best;
  for (const auto& entry : entries) {
    if (!entry->match.matches(key)) continue;
    if (!best || entry->priority > best->priority) best = entry;
  }
  return best;
}

TEST(FlowTable, EmptyTableMissesEverything) {
  FlowTable table;
  EXPECT_EQ(table.lookup(ipv4_key(Ipv4Address(1, 2, 3, 4))), nullptr);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.lookup_count(), 1u);
  EXPECT_EQ(table.matched_count(), 0u);
}

TEST(FlowTable, ExactMatchHit) {
  FlowTable table;
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 0, 1), 32),
                       10),
            0);
  EXPECT_NE(table.lookup(ipv4_key(Ipv4Address(10, 0, 0, 1))), nullptr);
  EXPECT_EQ(table.lookup(ipv4_key(Ipv4Address(10, 0, 0, 2))), nullptr);
}

TEST(FlowTable, HighestPriorityWinsAcrossMasks) {
  FlowTable table;
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 0, 0), 8),
                       10, 1),
            0);
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 1, 0, 0), 16),
                       20, 2),
            0);
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 1, 1, 1), 32),
                       30, 3),
            0);

  const auto hit = table.lookup(ipv4_key(Ipv4Address(10, 1, 1, 1)));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 30);

  const auto hit16 = table.lookup(ipv4_key(Ipv4Address(10, 1, 9, 9)));
  ASSERT_NE(hit16, nullptr);
  EXPECT_EQ(hit16->priority, 20);

  const auto hit8 = table.lookup(ipv4_key(Ipv4Address(10, 200, 0, 1)));
  ASSERT_NE(hit8, nullptr);
  EXPECT_EQ(hit8->priority, 10);
}

TEST(FlowTable, SamePriorityDifferentKeysCoexist) {
  FlowTable table;
  for (int i = 1; i <= 10; ++i) {
    table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                             .ipv4_dst(Ipv4Address(10, 0, 0,
                                                   static_cast<std::uint8_t>(i)),
                                       32),
                         10, static_cast<std::uint32_t>(i)),
              0);
  }
  EXPECT_EQ(table.size(), 10u);
  EXPECT_EQ(table.mask_group_count(), 1u);  // same mask -> one group
  for (int i = 1; i <= 10; ++i) {
    const auto hit = table.lookup(
        ipv4_key(Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i))));
    ASSERT_NE(hit, nullptr);
  }
}

TEST(FlowTable, AddIdenticalMatchPriorityReplaces) {
  FlowTable table;
  const Match m = Match().l4_dst(80);
  table.add(make_entry(m, 5, 1), 0);
  auto replaced = table.add(make_entry(m, 5, 2), 0);
  EXPECT_EQ(table.size(), 1u);
  net::FlowKey key;
  key.l4_dst = 80;
  EXPECT_EQ(table.lookup(key).get(), replaced.get());
}

TEST(FlowTable, WildcardEntryMatchesAll) {
  FlowTable table;
  table.add(make_entry(Match(), 0, 99), 0);
  EXPECT_NE(table.lookup(ipv4_key(Ipv4Address(1, 1, 1, 1))), nullptr);
  EXPECT_NE(table.lookup(net::FlowKey{}), nullptr);
}

TEST(FlowTable, ModifyNonStrictUpdatesSubsumed) {
  FlowTable table;
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 0, 1), 32),
                       10),
            0);
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 0, 2), 32),
                       20),
            0);
  const auto updated =
      table.modify(Match().eth_type(net::EtherType::kIpv4), 0,
                   openflow::output_to(42), /*strict=*/false);
  EXPECT_EQ(updated, 2u);
  const auto hit = table.lookup(ipv4_key(Ipv4Address(10, 0, 0, 1)));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(outputs_to_port(*hit, 42));
}

TEST(FlowTable, ModifyStrictRequiresExact) {
  FlowTable table;
  const Match m = Match().l4_dst(80);
  table.add(make_entry(m, 10), 0);
  EXPECT_EQ(table.modify(m, 11, openflow::output_to(5), true), 0u);
  EXPECT_EQ(table.modify(m, 10, openflow::output_to(5), true), 1u);
}

TEST(FlowTable, DeleteNonStrictRemovesSubsumed) {
  FlowTable table;
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 0, 1), 32),
                       10),
            0);
  table.add(make_entry(Match().eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 5, 1), 32),
                       10),
            0);
  table.add(make_entry(Match().l4_dst(80), 10), 0);

  const auto removed =
      table.remove(Match()
                       .eth_type(net::EtherType::kIpv4)
                       .ipv4_dst(Ipv4Address(10, 0, 0, 0), 24),
                   0, /*strict=*/false);
  EXPECT_EQ(removed.size(), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlowTable, DeleteAllWithWildcard) {
  FlowTable table;
  for (int i = 0; i < 20; ++i)
    table.add(make_entry(Match().l4_dst(static_cast<std::uint16_t>(i)), 1), 0);
  const auto removed = table.remove(Match(), 0, false);
  EXPECT_EQ(removed.size(), 20u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.mask_group_count(), 0u);
}

TEST(FlowTable, DeleteFiltersByOutPort) {
  FlowTable table;
  table.add(make_entry(Match().l4_dst(1), 1, 10), 0);
  table.add(make_entry(Match().l4_dst(2), 1, 20), 0);
  const auto removed = table.remove(Match(), 0, false, /*out_port=*/20);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_TRUE(outputs_to_port(*removed[0], 20));
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, DeleteStrict) {
  FlowTable table;
  const Match m = Match().l4_dst(80);
  table.add(make_entry(m, 10), 0);
  table.add(make_entry(m, 20), 0);
  const auto removed = table.remove(m, 10, /*strict=*/true);
  EXPECT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0]->priority, 10);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, IdleTimeoutExpiry) {
  FlowTable table;
  FlowEntry entry = make_entry(Match().l4_dst(80), 10);
  entry.idle_timeout = 5;
  table.add(std::move(entry), /*now=*/0);

  EXPECT_TRUE(table.expire(4.9).empty());
  net::FlowKey key;
  key.l4_dst = 80;
  auto hit = table.lookup(key);
  ASSERT_NE(hit, nullptr);
  hit->last_used_at = 4.0;  // used at t=4: idle clock restarts
  EXPECT_TRUE(table.expire(8.9).empty());
  EXPECT_EQ(table.expire(9.1).size(), 1u);
}

TEST(FlowTable, HardTimeoutExpiryIgnoresUse) {
  FlowTable table;
  FlowEntry entry = make_entry(Match().l4_dst(80), 10);
  entry.hard_timeout = 5;
  table.add(std::move(entry), 0);
  net::FlowKey key;
  key.l4_dst = 80;
  table.lookup(key)->last_used_at = 4.9;
  EXPECT_EQ(table.expire(5.0).size(), 1u);
}

TEST(FlowTable, EntriesEnumeratesAll) {
  FlowTable table;
  for (int i = 0; i < 7; ++i)
    table.add(make_entry(Match().l4_src(static_cast<std::uint16_t>(i)), 1), 0);
  EXPECT_EQ(table.entries().size(), 7u);
}

// A clone owns its own mask groups: it must rebuild the probe order rather
// than walk the source's, and a move (here a vector reallocation) must
// carry the order along with the groups it points into.
TEST(FlowTable, CloneAndMoveKeepLookupsValid) {
  const auto dst = [](Ipv4Address ip, int prefix) {
    return Match().eth_type(net::EtherType::kIpv4).ipv4_dst(ip, prefix);
  };
  const std::vector<std::pair<Match, std::uint16_t>> rules = {
      {dst(Ipv4Address(10, 0, 0, 1), 32), 30},
      {dst(Ipv4Address(10, 0, 1, 0), 24), 20},
      {dst(Ipv4Address(10, 0, 0, 0), 16), 10},
      {Match().eth_type(net::EtherType::kIpv4).l4_dst(80), 5},
  };
  const std::vector<std::pair<net::FlowKey, std::uint16_t>> expected = {
      {ipv4_key(Ipv4Address(10, 0, 0, 1)), 30},
      {ipv4_key(Ipv4Address(10, 0, 1, 9)), 20},
      {ipv4_key(Ipv4Address(10, 0, 7, 7)), 10},
      {ipv4_key(Ipv4Address(192, 168, 0, 1), 80), 5},
  };
  const auto check = [&](FlowTable& table) {
    for (const auto& [key, priority] : expected) {
      const auto hit = table.lookup(key);
      ASSERT_NE(hit, nullptr);
      EXPECT_EQ(hit->priority, priority);
    }
    EXPECT_EQ(table.lookup(ipv4_key(Ipv4Address(192, 168, 0, 1))), nullptr);
  };

  std::vector<FlowTable> tables;
  {
    auto source = std::make_unique<FlowTable>();
    for (const auto& [match, priority] : rules)
      source->add(make_entry(match, priority), 0);
    ASSERT_EQ(source->mask_group_count(), 4u);
    check(*source);  // builds the source's probe order
    tables.push_back(source->clone());
  }  // source destroyed: any pointer the clone kept into it now dangles
  check(tables.front());

  const std::size_t capacity = tables.capacity();
  while (tables.capacity() == capacity) tables.emplace_back();
  check(tables.front());
}

// Property: tuple-space search and linear scan agree on arbitrary rule sets
// and arbitrary keys (the correctness claim behind the E3 ablation).
TEST(FlowTableProperty, TupleSpaceEquivalentToLinearScan) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    FlowTable table;
    for (int i = 0; i < 200; ++i) {
      Match m;
      if (rng.next_bool(0.7)) {
        m.eth_type(net::EtherType::kIpv4);
        const int prefix = static_cast<int>(rng.next_in(8, 32));
        m.ipv4_dst(Ipv4Address(static_cast<std::uint32_t>(rng.next_u64())),
                   prefix);
      }
      if (rng.next_bool(0.3)) m.ip_proto(rng.next_bool(0.5) ? 6 : 17);
      if (rng.next_bool(0.3))
        m.l4_dst(static_cast<std::uint16_t>(rng.next_below(1024)));
      if (rng.next_bool(0.2))
        m.in_port(static_cast<std::uint32_t>(rng.next_below(16)));
      const auto priority = static_cast<std::uint16_t>(rng.next_below(100));
      table.add(make_entry(m, priority), 0);
    }
    const auto entries = table.entries();

    for (int i = 0; i < 500; ++i) {
      net::FlowKey key;
      key.eth_type = rng.next_bool(0.8) ? net::EtherType::kIpv4 : 0x9999;
      key.ipv4_dst = static_cast<std::uint32_t>(rng.next_u64());
      key.ip_proto = rng.next_bool(0.5) ? 6 : 17;
      key.l4_dst = static_cast<std::uint16_t>(rng.next_below(1024));
      key.in_port = static_cast<std::uint32_t>(rng.next_below(16));

      const auto a = table.lookup(key);
      const auto b = linear_scan(entries, key);
      ASSERT_EQ(a == nullptr, b == nullptr) << "trial " << trial;
      if (a) {
        EXPECT_EQ(a->priority, b->priority);
      }
    }
  }
}

}  // namespace
}  // namespace zen::dataplane
