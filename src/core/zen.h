// Umbrella header: the full zen public API in one include.
//
// Layer map (bottom to top):
//   util/        logging, clock, buffers, rng, histograms
//   obs/         metrics registry + virtual-time tracing (zen_obs)
//   net/         addresses, headers, packets, flow keys
//   openflow/    southbound wire protocol (match, actions, messages, wire)
//   dataplane/   software switch: flow/group/meter tables, megaflow cache
//   topo/        topology graph, path algorithms, generators
//   sim/         discrete-event network substrate
//   controller/  control plane runtime + apps
//   intent/      northbound intent framework
//   te/          traffic engineering: demands, allocators, update planner
//   cluster/     partitioned control plane: delegates, root, failover
//   core/        Network façade composing the stack
#pragma once

#include "cluster/cluster_manager.h"
#include "cluster/failover.h"
#include "cluster/group_agent.h"
#include "controller/apps/discovery.h"
#include "controller/apps/firewall.h"
#include "controller/apps/l3_routing.h"
#include "controller/apps/learning_switch.h"
#include "controller/apps/load_balancer.h"
#include "controller/apps/qos_policy.h"
#include "controller/apps/reactive_forwarding.h"
#include "controller/apps/stats_monitor.h"
#include "controller/apps/te_installer.h"
#include "controller/apps/telemetry_collector.h"
#include "controller/controller.h"
#include "controller/flow_rule_store.h"
#include "core/network.h"
#include "dataplane/switch.h"
#include "diag/invariant_monitor.h"
#include "diag/packet_tracer.h"
#include "intent/intent_manager.h"
#include "net/packet.h"
#include "obs/obs.h"
#include "openflow/wire.h"
#include "sim/engine.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "te/allocation.h"
#include "te/update_planner.h"
#include "telemetry/telemetry.h"
#include "topo/generators.h"
#include "topo/paths.h"
