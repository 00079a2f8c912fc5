// Parameterized property sweeps: the same invariant checked across a grid
// of topologies / strategies / workloads (gtest TEST_P suites).
#include <gtest/gtest.h>

#include <cmath>

#include "controller/apps/discovery.h"
#include "controller/apps/l3_routing.h"
#include "controller/controller.h"
#include "core/zen.h"
#include "te/allocation.h"
#include "te/demand.h"
#include "topo/generators.h"

namespace zen {
namespace {

// ---- invariant: with discovery + routing, every host pair can exchange
// traffic, on ANY connected topology ----

struct TopoCase {
  const char* name;
  topo::GeneratedTopo (*make)();
};

// gtest's default printer dumps the struct's bytes, i.e. two pointers that
// move with every load address, and the listed test name carries the printed
// parameter; printing the case name keeps that name the same on every run.
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.name; }

topo::GeneratedTopo make_case_fat_tree() { return topo::make_fat_tree(4); }
topo::GeneratedTopo make_case_leaf_spine() {
  return topo::make_leaf_spine(3, 4, 3);
}
topo::GeneratedTopo make_case_linear() { return topo::make_linear(5, 2); }
topo::GeneratedTopo make_case_ring() { return topo::make_ring(6, 2); }
topo::GeneratedTopo make_case_jellyfish() {
  util::Rng rng(99);
  return topo::make_jellyfish(10, 3, 2, rng);
}
topo::GeneratedTopo make_case_random() {
  util::Rng rng(7);
  return topo::make_random_connected(12, 3.0, rng);
}

class RoutedTopologySweep : public ::testing::TestWithParam<TopoCase> {};

TEST_P(RoutedTopologySweep, AllPairsDeliver) {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  sim::SimNetwork net(GetParam().make(), opts);
  controller::Controller ctrl(net);
  controller::apps::Discovery::Options disc;
  disc.stop_after_s = 2.0;
  ctrl.add_app<controller::apps::Discovery>(disc);
  ctrl.add_app<controller::apps::L3Routing>();
  ctrl.connect_all();
  net.run_until(2.5);

  const auto& hosts = net.generated().hosts;
  const std::size_t n = hosts.size();
  // Every host sends to every other (ARP proxy + routing must hold).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j)
        net.host_at(hosts[i]).send_udp(sim::host_ip(hosts[j]), 4000, 4001, 64);
  net.run_until(12.0);

  std::uint64_t received = 0;
  for (const auto id : hosts) received += net.host_at(id).stats().udp_received;
  EXPECT_EQ(received, n * (n - 1)) << GetParam().name;

  // And the steady state is controller-free.
  const auto pins = ctrl.stats().packet_ins;
  for (std::size_t i = 0; i + 1 < n; ++i)
    net.host_at(hosts[i]).send_udp(sim::host_ip(hosts[i + 1]), 4000, 4001, 64);
  net.run_until(14.0);
  EXPECT_EQ(ctrl.stats().packet_ins, pins) << GetParam().name;
}

std::vector<TopoCase> topo_cases() {
  return {TopoCase{"fat_tree", make_case_fat_tree},
          TopoCase{"leaf_spine", make_case_leaf_spine},
          TopoCase{"linear", make_case_linear},
          TopoCase{"ring", make_case_ring},
          TopoCase{"jellyfish", make_case_jellyfish},
          TopoCase{"random", make_case_random}};
}

std::string topo_case_name(const ::testing::TestParamInfo<TopoCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Topologies, RoutedTopologySweep,
                         ::testing::ValuesIn(topo_cases()), topo_case_name);

// ---- invariant: every TE allocator respects capacity and demand caps on
// every workload at every load level ----

struct TeCase {
  te::Strategy strategy;
  int workload;  // 0 uniform, 1 gravity, 2 hotspot, 3 permutation
  double offered_gbps;
};

class TeInvariantSweep : public ::testing::TestWithParam<TeCase> {};

TEST_P(TeInvariantSweep, CapacityAndDemandRespected) {
  const auto [strategy, workload, offered] = GetParam();
  auto gen = topo::make_wan_abilene(10e9);
  util::Rng rng(11);
  te::DemandMatrix demands;
  switch (workload) {
    case 0: demands = te::uniform_demands(gen.switches, offered * 1e9); break;
    case 1: demands = te::gravity_demands(gen.switches, offered * 1e9, rng); break;
    case 2: demands = te::hotspot_demands(gen.switches, 7, offered * 1e9); break;
    default:
      demands = te::permutation_demands(gen.switches, offered * 1e9 / 11, rng);
      break;
  }

  const te::Allocation alloc = te::allocate(gen.topo, demands, strategy);

  // Capacity invariant.
  EXPECT_LE(alloc.max_utilization(gen.topo), 1.0 + 1e-6);
  // No demand is over-served.
  for (const auto& [key, bps] : demands.entries())
    EXPECT_LE(alloc.allocated(key), bps + 1e-3);
  // Shares are nonnegative and consistent with the link-load map.
  std::unordered_map<topo::LinkId, double> recomputed;
  for (const auto& [key, shares] : alloc.shares) {
    for (const auto& share : shares) {
      EXPECT_GE(share.bps, 0);
      for (const auto lid : share.path.links) recomputed[lid] += share.bps;
    }
  }
  for (const auto& [lid, load] : alloc.link_load_bps)
    EXPECT_NEAR(load, recomputed[lid], 1.0);
  // Light load must be fully satisfied.
  if (offered <= 10) {
    EXPECT_NEAR(alloc.satisfaction(demands), 1.0, 1e-6);
  }
}

std::vector<TeCase> te_grid() {
  std::vector<TeCase> cases;
  for (const auto strategy :
       {te::Strategy::ShortestPath, te::Strategy::Ecmp, te::Strategy::Greedy,
        te::Strategy::MaxMinFair}) {
    for (int workload = 0; workload < 4; ++workload) {
      for (const double offered : {5.0, 40.0, 100.0}) {
        cases.push_back(TeCase{strategy, workload, offered});
      }
    }
  }
  return cases;
}

std::string te_case_name(const ::testing::TestParamInfo<TeCase>& info) {
  static const char* const workloads[] = {"uniform", "gravity", "hotspot",
                                          "perm"};
  return std::string(te::to_string(info.param.strategy)) + "_" +
         workloads[info.param.workload] + "_" +
         std::to_string(static_cast<int>(info.param.offered_gbps)) + "G";
}

INSTANTIATE_TEST_SUITE_P(Grid, TeInvariantSweep,
                         ::testing::ValuesIn(te_grid()), te_case_name);

// ---- invariant: fat-tree ECMP width scales as (k/2)^2 for inter-pod
// pairs ----

class FatTreeEcmpSweep : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeEcmpSweep, InterPodEcmpWidth) {
  const auto k = static_cast<std::size_t>(GetParam());
  auto gen = topo::make_fat_tree(k);
  const topo::NodeId src = gen.attachments.front().sw;
  const topo::NodeId dst = gen.attachments.back().sw;
  const auto paths = topo::equal_cost_paths(gen.topo, src, dst, 256);
  EXPECT_EQ(paths.size(), (k / 2) * (k / 2));
  for (const auto& path : paths) EXPECT_EQ(path.hop_count(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Widths, FatTreeEcmpSweep,
                         ::testing::Values(2, 4, 6, 8));

// ---- invariant: SWAN step bound holds across the load sweep ----

class UpdateStepSweep : public ::testing::TestWithParam<int> {};

TEST_P(UpdateStepSweep, StepsWithinSwanBound) {
  const double load = static_cast<double>(GetParam()) / 100.0;
  topo::Topology topo;
  for (topo::NodeId id = 1; id <= 4; ++id)
    topo.add_node(id, topo::NodeKind::Switch);
  topo.add_link(1, 1, 2, 1, 10e9);
  topo.add_link(2, 2, 4, 1, 10e9);
  topo.add_link(1, 2, 3, 1, 10e9);
  topo.add_link(3, 2, 4, 2, 10e9);
  const auto paths = topo::k_shortest_paths(topo, 1, 4, 2);

  te::Allocation from, to;
  const te::DemandKey x{1, 4}, y{10, 40};
  const double bps = 10e9 * load;
  from.shares[x].push_back(te::PathShare{paths[0], bps});
  from.shares[y].push_back(te::PathShare{paths[1], bps});
  to.shares[x].push_back(te::PathShare{paths[1], bps});
  to.shares[y].push_back(te::PathShare{paths[0], bps});

  te::PlannerOptions options;
  options.max_steps = 64;
  const te::UpdatePlan plan = te::plan_update(topo, from, to, options);
  ASSERT_TRUE(plan.feasible) << "load " << load;
  // SWAN: with slack s = 1 - load, ceil(1/s) - 1 intermediate steps
  // suffice, i.e. step_count <= ceil(1/s).
  const double slack = 1.0 - load;
  const auto bound = static_cast<std::size_t>(std::ceil(1.0 / slack));
  EXPECT_LE(plan.step_count(), bound) << "load " << load;
  for (std::size_t i = 0; i + 1 < plan.stages.size(); ++i) {
    EXPECT_LE(te::transient_peak_utilization(topo, plan.stages[i],
                                             plan.stages[i + 1]),
              1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, UpdateStepSweep,
                         ::testing::Values(10, 30, 50, 67, 75, 80, 90));

}  // namespace
}  // namespace zen
