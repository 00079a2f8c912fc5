// fabricbench: the traced run — a layer-by-layer cost model measured from
// outside the program.
//
// One call runs the workload three ways on the same seed:
//   1. untraced, for the layer counts and the wall time they are checked
//      against (registry deltas, switch/controller/path-engine stats);
//   2. traced, stepping the event queue one event at a time and recording
//      the southbound stream and every offered segment;
//   3. offline, replaying what (2) recorded into shadow switches, hosts,
//      the wire codec, the controller app and the path engine, timing each
//      call into those layers' public functions.
// It then sums the per-layer self times per packet and per flow setup and
// reports what the model leaves unexplained next to the untraced wall time.
#pragma once

#include <string>
#include <vector>

#include "fabric.h"

namespace fabricbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedReport {
  std::vector<Metric> metrics;  // the per-layer metric set
  std::string table;            // human-readable sum-check
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

TracedReport run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                        double seconds);

// Determinism self-check: two runs of `spec` on `seed` for a fixed number
// of ticks must give identical layer counts and first-packet latencies,
// and `seed + 1` must generate a different input stream. Returns failures.
std::vector<std::string> determinism_selfcheck(const WorkloadSpec& spec,
                                               std::uint64_t seed);

}  // namespace fabricbench
