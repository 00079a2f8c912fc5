// Determinism and race harness for the sharded multi-core packet engine.
//
// The contract under test (see DESIGN.md "Threading model"):
//   1. N = 1 (inline) is byte-identical to the classic single-threaded
//      simulator — the golden southbound stream is the oracle.
//   2. Any N produces the same final state (flow tables, host delivery
//      counts, deterministic metric totals) as inline, because sharded
//      events apply in seq order regardless of how computes were fanned
//      out. This holds with either megaflow layout, and the flow tables
//      are plain: a switch has one owner per slice and flow_mods apply
//      between slices.
//   3. The concurrent megaflow ways never leak a stale-version hit and
//      never free memory a pinned reader can still reach (epoch
//      reclamation).
//
// Runs as its own binary so the metric registry can be reset between
// scenario runs without disturbing other suites. The raw-thread stress
// sections are the TSan CI job's main course.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "controller/apps/discovery.h"
#include "controller/apps/l3_routing.h"
#include "controller/controller.h"
#include "dataplane/flow_table.h"
#include "dataplane/megaflow_cache.h"
#include "obs/metrics.h"
#include "obs/shard_stats.h"
#include "openflow/wire.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "topo/generators.h"
#include "util/epoch.h"
#include "util/rng.h"

namespace zen {
namespace {

#ifndef ZEN_OBS_DISABLED
constexpr bool kObsEnabled = true;
#else
constexpr bool kObsEnabled = false;
#endif

// ---------------------------------------------------------------------------
// Epoch reclamation
// ---------------------------------------------------------------------------

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1, std::memory_order_relaxed); }
  ~Tracked() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> Tracked::live{0};

TEST(EpochReclaimer, FreesOnlyAfterGuardRelease) {
  util::EpochReclaimer ebr;
  auto* unguarded = new Tracked;
  ebr.retire(unguarded);
  ebr.collect();
  EXPECT_EQ(Tracked::live.load(), 0);

  auto* held = new Tracked;
  {
    util::EpochReclaimer::Guard guard(ebr);
    ebr.retire(held);  // retired while a reader is pinned
    ebr.collect();
    EXPECT_EQ(Tracked::live.load(), 1) << "freed under a live guard";
    ebr.collect();  // epoch advances never unblock a still-pinned reader
    EXPECT_EQ(Tracked::live.load(), 1);
  }
  ebr.collect();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(ebr.pending(), 0u);
  EXPECT_EQ(ebr.retired_total(), ebr.freed_total());
}

TEST(EpochReclaimer, EveryRetiredObjectIsEventuallyFreed) {
  util::EpochReclaimer ebr;
  constexpr int kObjects = 500;  // crosses several auto-collect strides
  for (int i = 0; i < kObjects; ++i) ebr.retire(new Tracked);
  for (int i = 0; i < 4 && ebr.pending() > 0; ++i) ebr.collect();
  EXPECT_EQ(ebr.pending(), 0u);
  EXPECT_EQ(ebr.retired_total(), static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(ebr.freed_total(), ebr.retired_total());
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochReclaimer, ConcurrentGuardsNeverSeeFreedMemory) {
  // Readers chase a shared pointer under guards while a writer keeps
  // swapping and retiring it. The canary value would be destroyed by the
  // deleter, so any read of 0xdead after free is a use-after-free TSan/ASan
  // would also flag.
  struct Node {
    std::uint64_t canary = 0xfeedfacecafebeefULL;
    ~Node() { canary = 0; }
  };
  util::EpochReclaimer ebr;
  std::atomic<Node*> shared{new Node};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        util::EpochReclaimer::Guard guard(ebr);
        Node* n = shared.load(std::memory_order_acquire);
        if (n->canary != 0xfeedfacecafebeefULL)
          bad_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    Node* fresh = new Node;
    Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
    ebr.retire(old);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  delete shared.load();
  for (int i = 0; i < 4 && ebr.pending() > 0; ++i) ebr.collect();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(ebr.pending(), 0u);
  EXPECT_EQ(ebr.freed_total(), ebr.retired_total());
}

// ---------------------------------------------------------------------------
// ParallelEngine
// ---------------------------------------------------------------------------

struct AppendCtx {
  std::vector<int>* out;
  int value;
};
void append_task(void* ctx) {
  auto* a = static_cast<AppendCtx*>(ctx);
  a->out->push_back(a->value);
}

TEST(ParallelEngine, PerKeyFifoOrderAndQuiescenceBarrier) {
  sim::ParallelEngine engine({.workers = 4, .spin = 0});
  constexpr int kKeys = 32;
  constexpr int kBatches = 50;
  // Per-key output vectors: all tasks for one key land on one worker in
  // submission order, so these are single-writer by construction — exactly
  // the ordering contract under test. TSan verifies the "single-writer" half.
  std::vector<std::vector<int>> per_key(kKeys);
  std::vector<AppendCtx> ctxs(kKeys);

  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<sim::ParallelEngine::Task> tasks;
    for (int k = 0; k < kKeys; ++k) {
      ctxs[k] = AppendCtx{&per_key[k], batch};
      tasks.push_back({static_cast<std::uint64_t>(k), &ctxs[k], &append_task});
    }
    engine.run_batch(tasks);
    // run_batch is a barrier: the coordinator may inspect shared state.
    for (int k = 0; k < kKeys; ++k)
      ASSERT_EQ(per_key[k].size(), static_cast<std::size_t>(batch + 1));
  }

  for (int k = 0; k < kKeys; ++k) {
    for (int i = 0; i < kBatches; ++i)
      ASSERT_EQ(per_key[k][static_cast<std::size_t>(i)], i)
          << "per-key FIFO order broken for key " << k;
  }

  EXPECT_EQ(engine.tasks_run(),
            static_cast<std::uint64_t>(kKeys) * kBatches);
  EXPECT_EQ(engine.batches(), static_cast<std::uint64_t>(kBatches));
  std::uint64_t per_worker_sum = 0;
  for (unsigned w = 0; w < engine.workers(); ++w)
    per_worker_sum += engine.worker_tasks(w);
  EXPECT_EQ(per_worker_sum, engine.tasks_run());
}

TEST(ParallelEngine, PerCoreStatsDrainToGlobalCounters) {
  auto& reg = obs::MetricsRegistry::global();
  const auto counter_value = [&](const char* name) {
    const auto snap = reg.snapshot();  // flushes every registered shard
    const auto* s = snap.find(name);
    return s ? s->value : 0.0;
  };
  const double before = counter_value("zen_engine_tasks_total");

  constexpr int kTasks = 300;
  std::atomic<int> ran{0};
  struct Ctx {
    std::atomic<int>* ran;
  } ctx{&ran};
  {
    sim::ParallelEngine engine({.workers = 3, .spin = 0});
    std::vector<sim::ParallelEngine::Task> tasks;
    for (int i = 0; i < kTasks; ++i)
      tasks.push_back({static_cast<std::uint64_t>(i), &ctx, [](void* c) {
                         static_cast<Ctx*>(c)->ran->fetch_add(
                             1, std::memory_order_relaxed);
                       }});
    engine.run_batch(tasks);
    EXPECT_EQ(ran.load(), kTasks);
    // Quiesced (post-barrier): the lazy per-core slots drain exactly the
    // single-threaded total into the shared counter.
    EXPECT_EQ(counter_value("zen_engine_tasks_total") - before,
              static_cast<double>(kObsEnabled ? kTasks : 0));
  }
  // Destruction flushes residue; the total must not change (no double count).
  EXPECT_EQ(counter_value("zen_engine_tasks_total") - before,
            static_cast<double>(kObsEnabled ? kTasks : 0));
}

TEST(ShardStats, MultiShardConcurrentBumpsSumExactly) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& total = reg.counter("zen_test_parallel_shard_agg_total", "",
                                    "test-only aggregation counter");
  const double before = total.value();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBumps = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&total, t] {
      obs::ShardStats shard;  // one block per thread: single-writer bumps
      shard.bind(0, total);
      for (std::uint64_t i = 0; i < kBumps + static_cast<std::uint64_t>(t);
           ++i)
        shard.bump(0);
      // Destructor flushes the residue.
    });
  }
  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) expected += kBumps + t;
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.value() - before,
            static_cast<double>(kObsEnabled ? expected : 0));
}

TEST(ShardStats, PendingExposesUndrainedDelta) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& c = reg.counter("zen_test_parallel_shard_pending_total");
  obs::ShardStats shard;
  shard.bind(0, c);
  shard.bump(0, 7);
  EXPECT_EQ(shard.pending(0), kObsEnabled ? 7u : 0u);
  const double before = c.value();
  shard.flush();
  EXPECT_EQ(shard.pending(0), 0u);
  EXPECT_EQ(c.value() - before, kObsEnabled ? 7.0 : 0.0);
}

// ---------------------------------------------------------------------------
// EventQueue sharded dispatch
// ---------------------------------------------------------------------------

TEST(EventQueueSharded, InlineModeRunsBothPhasesInSeqOrder) {
  sim::EventQueue q;
  std::vector<std::string> order;
  q.schedule_sharded_at(1.0, 7, [&](sim::EventQueue::Phase p) {
    order.push_back(p == sim::EventQueue::Phase::kCompute ? "C0" : "A0");
  });
  q.schedule_at(1.0, [&] { order.push_back("P"); });
  q.schedule_sharded_at(1.0, 9, [&](sim::EventQueue::Phase p) {
    order.push_back(p == sim::EventQueue::Phase::kCompute ? "C1" : "A1");
  });
  q.run();
  EXPECT_EQ(order, (std::vector<std::string>{"C0", "A0", "P", "C1", "A1"}));
  EXPECT_EQ(q.parallel_events(), 0u);
}

TEST(EventQueueSharded, ParallelSliceComputesAllBeforeSeqOrderApplies) {
  sim::ParallelEngine engine({.workers = 4, .spin = 0});
  sim::EventQueue q;
  q.set_engine(&engine);

  constexpr int kEvents = 16;
  std::atomic<int> computes{0};
  std::vector<int> applies;          // coordinator-only
  std::vector<int> computes_at_apply;
  for (int i = 0; i < kEvents; ++i) {
    q.schedule_sharded_at(2.0, static_cast<std::uint64_t>(i),
                          [&, i](sim::EventQueue::Phase p) {
                            if (p == sim::EventQueue::Phase::kCompute) {
                              computes.fetch_add(1, std::memory_order_relaxed);
                            } else {
                              computes_at_apply.push_back(
                                  computes.load(std::memory_order_relaxed));
                              applies.push_back(i);
                            }
                          });
  }
  q.run();
  // Applies strictly in seq (scheduling) order...
  ASSERT_EQ(applies.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(applies[i], i);
  // ...and the parallel compute phase fully quiesced before the first one.
  for (const int seen : computes_at_apply) EXPECT_EQ(seen, kEvents);
  EXPECT_EQ(q.parallel_events(), static_cast<std::uint64_t>(kEvents));
}

TEST(EventQueueSharded, PlainEventAtSameInstantEndsTheSlice) {
  sim::ParallelEngine engine({.workers = 2, .spin = 0});
  sim::EventQueue q;
  q.set_engine(&engine);
  std::vector<std::string> order;
  q.schedule_sharded_at(1.0, 1, [&](sim::EventQueue::Phase p) {
    if (p == sim::EventQueue::Phase::kApply) order.push_back("A0");
  });
  q.schedule_at(1.0, [&] { order.push_back("P"); });
  q.schedule_sharded_at(1.0, 2, [&](sim::EventQueue::Phase p) {
    if (p == sim::EventQueue::Phase::kApply) order.push_back("A1");
  });
  q.run();
  // The plain event is a conservative conflict: it must not be hoisted
  // past (or into) a slice of sharded events.
  EXPECT_EQ(order, (std::vector<std::string>{"A0", "P", "A1"}));
  EXPECT_EQ(q.parallel_events(), 0u);  // both runs were singleton slices
}

TEST(EventQueueSharded, ApplyMayScheduleFollowOnEvents) {
  sim::ParallelEngine engine({.workers = 2, .spin = 0});
  sim::EventQueue q;
  q.set_engine(&engine);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    q.schedule_sharded_at(1.0, static_cast<std::uint64_t>(i),
                          [&, i](sim::EventQueue::Phase p) {
                            if (p != sim::EventQueue::Phase::kApply) return;
                            order.push_back(i);
                            q.schedule_sharded_at(
                                1.0, static_cast<std::uint64_t>(i),
                                [&, i](sim::EventQueue::Phase pp) {
                                  if (pp == sim::EventQueue::Phase::kApply)
                                    order.push_back(100 + i);
                                });
                          });
  }
  q.run();
  // Follow-ons get fresh seqs: they fire after the whole first slice, in
  // their own scheduling order — same as inline mode.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100, 101, 102, 103}));
}

// ---------------------------------------------------------------------------
// MegaflowCache: concurrent lookups racing version bumps and inserts
// ---------------------------------------------------------------------------

net::FlowKey make_key(std::uint32_t i) {
  net::FlowKey key;
  key.eth_type = 0x0800;
  key.ipv4_src = 0x0a000001;
  key.ipv4_dst = 0x0a000100 + (i % 97);
  key.ip_proto = 17;
  key.l4_src = static_cast<std::uint16_t>(1000 + (i % 251));
  key.l4_dst = 5001;
  return key;
}

TEST(MegaflowConcurrent, NoStaleVersionHitEscapesUnderChurn) {
  auto& ebr = util::EpochReclaimer::global();
  const std::uint64_t retired_before = ebr.retired_total();

  std::atomic<std::uint64_t> stale_hits{0};
  std::atomic<std::uint64_t> total_hits{0};
  std::atomic<bool> stop{false};
  {
    dataplane::MegaflowCache cache(1024);
    cache.enable_concurrent(4);
    // The version a verdict was inserted under rides in controller_cookie,
    // so a reader can detect a stale hit the instant it happens.
    std::atomic<std::uint64_t> version{1};

    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        util::Rng rng(42 + static_cast<std::uint64_t>(r));
        while (!stop.load(std::memory_order_acquire)) {
          const std::uint64_t v = version.load(std::memory_order_acquire);
          const net::FlowKey key =
              make_key(static_cast<std::uint32_t>(rng.next_below(4096)));
          util::EpochReclaimer::Guard guard(ebr);
          if (const auto* verdict = cache.find(key, v, guard)) {
            total_hits.fetch_add(1, std::memory_order_relaxed);
            if (verdict->controller_cookie != v)
              stale_hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    util::Rng rng(7);
    for (int i = 0; i < 60000; ++i) {
      std::uint64_t v = version.load(std::memory_order_relaxed);
      if (i % 1500 == 1499) {
        // Rule churn: bump the version; every cached verdict is now stale
        // and must never be returned for the new version.
        version.store(++v, std::memory_order_release);
      }
      dataplane::CachedVerdict verdict;
      verdict.controller_cookie = v;
      verdict.out_ports.push_back({static_cast<std::uint32_t>(i % 8), 0});
      cache.insert(make_key(static_cast<std::uint32_t>(rng.next_below(4096))),
                   std::move(verdict), v);
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_EQ(stale_hits.load(), 0u);
    EXPECT_GT(total_hits.load(), 0u) << "stress never exercised the hit path";
    EXPECT_GT(cache.hits() + cache.misses(), 0u);
  }
  // Cache destroyed, no guards live: reclamation must drain completely —
  // every retired generation (version bumps + way flushes) freed.
  for (int i = 0; i < 4 && ebr.pending() > 0; ++i) ebr.collect();
  EXPECT_EQ(ebr.pending(), 0u);
  EXPECT_GT(ebr.retired_total(), retired_before)
      << "churn never retired a table generation";
  EXPECT_EQ(ebr.freed_total(), ebr.retired_total());
}

// ---------------------------------------------------------------------------
// Golden determinism: the sharded engine against the single-threaded oracle
// ---------------------------------------------------------------------------

// `concurrent_lookup` picks the megaflow layout: W lock-free ways, or the
// classic map that the sharded engine drives under its one-owner rule.
sim::SimOptions parallel_options(unsigned workers, bool concurrent_lookup) {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  opts.switch_config.concurrent_lookup = concurrent_lookup;
  opts.engine_workers = workers;
  return opts;
}

// The L3RoutingDeterminism golden scenario, parameterized by worker count:
// byte-for-byte southbound stream (FlowMod/GroupMod, fixed xid).
std::vector<std::uint8_t> golden_stream(unsigned workers,
                                        bool concurrent_lookup) {
  std::vector<std::uint8_t> stream;
  sim::SimNetwork net(topo::make_fat_tree(4),
                      parallel_options(workers, concurrent_lookup));
  controller::Controller ctrl(net);
  ctrl.set_southbound_tap(
      [&](controller::Dpid dpid, const openflow::Message& msg) {
        const auto type = openflow::type_of(msg);
        if (type != openflow::MsgType::FlowMod &&
            type != openflow::MsgType::GroupMod)
          return;
        for (int shift = 56; shift >= 0; shift -= 8)
          stream.push_back(static_cast<std::uint8_t>(dpid >> shift));
        const openflow::Bytes bytes = openflow::encode_frame(msg, 0);
        stream.insert(stream.end(), bytes.begin(), bytes.end());
      });
  controller::apps::Discovery::Options disc;
  disc.stop_after_s = 2.5;
  ctrl.add_app<controller::apps::Discovery>(disc);
  controller::apps::L3Routing::Options options;
  options.use_ecmp_groups = true;
  ctrl.add_app<controller::apps::L3Routing>(options);
  ctrl.connect_all();
  net.run_until(3.0);
  for (std::size_t i = 0; i < 16; ++i) {
    net.host_at(net.generated().hosts[i])
        .send_udp(net.host_at(net.generated().hosts[15 - i]).ip(), 5000, 5001,
                  64);
  }
  net.run_until(6.0);
  if (workers > 1) {
    EXPECT_NE(net.engine(), nullptr);
    EXPECT_GT(net.events().parallel_events(), 0u)
        << "parallel path never engaged at N=" << workers;
  }
  return stream;
}

TEST(ParallelDeterminism, SouthboundStreamIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<std::uint8_t> inline_stream = golden_stream(0, false);
  ASSERT_FALSE(inline_stream.empty());
  // N=1 means "no pool" by contract — same code path as 0.
  for (const bool concurrent_lookup : {false, true}) {
    for (const unsigned workers : {0u, 1u, 2u, 4u, 8u}) {
      if (workers == 0 && !concurrent_lookup) continue;  // the reference
      EXPECT_EQ(golden_stream(workers, concurrent_lookup), inline_stream)
          << "southbound stream diverged at N=" << workers
          << " concurrent_lookup=" << concurrent_lookup;
    }
  }
}

// Full end-state fingerprint of a seeded random-traffic run: per-switch
// rule tables, per-host delivery counts, and the deterministic subset of
// the global metric totals.
struct RunFingerprint {
  std::vector<std::string> rules;          // sorted
  std::vector<std::uint64_t> host_udp;     // by host index
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_seeded(unsigned workers, bool concurrent_lookup,
                          std::uint64_t seed) {
  obs::MetricsRegistry::global().reset_values();
  RunFingerprint fp;
  {
    sim::SimNetwork net(topo::make_fat_tree(4),
                        parallel_options(workers, concurrent_lookup));
    controller::Controller ctrl(net);
    controller::apps::Discovery::Options disc;
    disc.stop_after_s = 2.5;
    ctrl.add_app<controller::apps::Discovery>(disc);
    controller::apps::L3Routing::Options options;
    options.use_ecmp_groups = true;
    ctrl.add_app<controller::apps::L3Routing>(options);
    ctrl.connect_all();
    net.run_until(3.0);

    util::Rng rng(seed);
    double t = 3.0;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 32; ++i) {
        const std::size_t src = rng.next_below(16);
        const std::size_t dst = (src + 1 + rng.next_below(15)) % 16;
        net.host_at(net.generated().hosts[src])
            .send_udp(net.host_at(net.generated().hosts[dst]).ip(),
                      static_cast<std::uint16_t>(1000 + rng.next_below(128)),
                      5001, 64 + static_cast<std::size_t>(rng.next_below(4)) *
                                     200);
      }
      net.run_until(t += 1.0);
    }
    net.run_until(t + 1.0);

    for (const auto& [id, sw] : net.switches()) {
      fp.cache_hits += sw->cache().hits();
      fp.cache_misses += sw->cache().misses();
      for (std::uint8_t tb = 0; tb < sw->table_count(); ++tb) {
        for (const auto& entry : sw->table(tb).entries()) {
          fp.rules.push_back(
              std::to_string(id) + "/" + std::to_string(tb) + "/" +
              std::to_string(entry->priority) + "/" +
              std::to_string(entry->cookie) + "/" +
              std::to_string(
                  std::hash<net::FlowKey>{}(entry->match.value())) +
              "/" + std::to_string(entry->match.field_count()) + "/" +
              std::to_string(entry->packet_count) + "/" +
              std::to_string(entry->byte_count));
        }
      }
    }
    std::sort(fp.rules.begin(), fp.rules.end());
    for (const auto host_id : net.generated().hosts)
      fp.host_udp.push_back(net.host_at(host_id).stats().udp_received);
  }
  // Deterministic totals only: event counts, packet counts, megaflow
  // traffic, flow mods. (Engine/parallel series intentionally excluded —
  // they legitimately differ between inline and sharded runs.)
  const auto snap = obs::MetricsRegistry::global().snapshot();
  for (const char* name :
       {"zen_sim_events_total", "zen_dataplane_packets_total",
        "zen_dataplane_megaflow_hits_total",
        "zen_dataplane_megaflow_misses_total",
        "zen_sim_host_frames_received_total",
        "zen_controller_flow_mods_total", "zen_sim_host_frames_sent_total",
        "zen_controller_packet_ins_total"}) {
    double total = 0;
    for (const auto& s : snap.series)
      if (s.name == name) total += s.value;
    fp.metrics.emplace_back(name, total);
  }
  return fp;
}

TEST(ParallelDeterminism, FinalStateMatchesInlineOnSeed42) {
  const RunFingerprint inline_fp = run_seeded(0, false, 42);
  ASSERT_FALSE(inline_fp.rules.empty());
  ASSERT_GT(inline_fp.cache_hits, 0u);
  for (const bool concurrent_lookup : {true, false}) {
    for (const unsigned workers : {2u, 4u, 8u}) {
      const RunFingerprint fp = run_seeded(workers, concurrent_lookup, 42);
      SCOPED_TRACE(testing::Message()
                   << "N=" << workers
                   << " concurrent_lookup=" << concurrent_lookup);
      EXPECT_EQ(fp.rules, inline_fp.rules);
      EXPECT_EQ(fp.host_udp, inline_fp.host_udp);
      EXPECT_EQ(fp.metrics, inline_fp.metrics);
      EXPECT_EQ(fp.cache_hits, inline_fp.cache_hits);
      EXPECT_EQ(fp.cache_misses, inline_fp.cache_misses);
    }
  }
}

TEST(ParallelDeterminism, FinalStateMatchesInlineOnSeed7) {
  const RunFingerprint inline_fp = run_seeded(0, false, 7);
  ASSERT_FALSE(inline_fp.rules.empty());
  for (const bool concurrent_lookup : {true, false}) {
    for (const unsigned workers : {2u, 4u}) {
      const RunFingerprint fp = run_seeded(workers, concurrent_lookup, 7);
      SCOPED_TRACE(testing::Message()
                   << "N=" << workers
                   << " concurrent_lookup=" << concurrent_lookup);
      EXPECT_EQ(fp.rules, inline_fp.rules);
      EXPECT_EQ(fp.host_udp, inline_fp.host_udp);
      EXPECT_EQ(fp.metrics, inline_fp.metrics);
    }
  }
}

}  // namespace
}  // namespace zen
