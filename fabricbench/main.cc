// fabricbench driver: one workload, one seed, one process.
//
//   fabricbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--git-sha <sha>] [--src-digest <digest>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the layer-by-layer cost model (layers.h) and the determinism
// self-check. Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any output check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "fabric.h"
#include "layers.h"

namespace {

using namespace fabricbench;

// The timed ticks run on kNetworks fresh networks of the same seed in turn:
// the first for its share of --seconds, the others for as many ticks. A
// set-up shorter than kSetupBatchS is repeated before each later network
// until the batch is spent. For one seed, timed tick i does the same work
// on every network and set-up step i
// (Fabric::setup_laps_ns) the same work in every set-up. Background load on
// a shared host slows the program by up to ~1.6x in spells of a fraction of
// a second to minutes, so the benchmark keeps each tick's and each set-up
// step's fastest time over the repeats, spread over the whole run, and
// reports quantiles and sums of those: the program as it runs when quiet.
constexpr std::size_t kNetworks = 10;
constexpr double kSetupBatchS = 0.2;

// best[i] = min(best[i], sample[i]); false when the lengths differ.
bool keep_fastest(std::vector<double>& best, const std::vector<double>& sample) {
  if (best.empty()) best = sample;
  if (best.size() != sample.size()) return false;
  for (std::size_t i = 0; i < best.size(); ++i)
    best[i] = std::min(best[i], sample[i]);
  return true;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> fastest_laps_ns;
  bool same_steps = true;

  void add(const Fabric& fabric, double s) {
    total_s.push_back(s);
    same_steps &= keep_fastest(fastest_laps_ns, fabric.setup_laps_ns());
  }
  // Extra set-ups before a network; the batch counts that network's own
  // set-up, assumed as long as the first.
  void repeat(const WorkloadSpec& w, std::uint64_t seed) {
    if (total_s.empty()) return;
    for (double spent_s = total_s.front(); spent_s < kSetupBatchS;) {
      Fabric fabric(w, seed);
      const double s = fabric.setup();
      add(fabric, s);
      spent_s += s;
    }
  }
  // Sum of the steps' fastest times; the fastest whole set-up if the
  // set-ups did not all run the same steps.
  double quiet_s() const {
    return same_steps ? sum(fastest_laps_ns) * 1e-9 : quantile(total_s, 0);
  }
};

// Adds one network's timed phase to the whole run's totals. The
// first-packet latency sample is the same on every network (one seed), so
// the first network's is kept.
void append(PhaseResult& run, const PhaseResult& part) {
  run.ticks += part.ticks;
  run.wall_ns += part.wall_ns;
  run.offered += part.offered;
  run.delivered += part.delivered;
  run.timed_offered += part.timed_offered;
  run.setups += part.setups;
  run.failed += part.failed;
  run.failures.insert(run.failures.end(), part.failures.begin(),
                      part.failures.end());
  if (run.first_pkt_us.empty()) run.first_pkt_us = part.first_pkt_us;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fabricbench: %s\nusage: fabricbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--src-digest <digest>]\nworkloads:",
               why);
  for (const auto& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = value[0] - '0';
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--src-digest") {
      a.src_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seconds and --trace are required");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, starts afresh at exec and so excludes the launching process.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

void print_meta(const Args& a, const WorkloadSpec& w) {
#ifdef ZEN_OBS_DISABLED
  const char* obs = "off";
#else
  const char* obs = "on";
#endif
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"src_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"obs\": \"%s\", \"nproc\": %u, "
      "\"params\": {\"topology\": \"fat_tree k=%zu\", \"tick_s\": %s, "
      "\"cache_capacity\": %zu, \"reactive\": %s, \"fresh_tuples\": %s, "
      "\"engine_workers\": %u, \"pkts_per_tick\": %zu, \"warm_set\": %zu, "
      "\"new_flows_per_tick\": %zu, \"flow_packets\": %zu, "
      "\"idle_timeout_s\": %u, \"latency_samples\": %zu, "
      "\"networks\": %zu, \"setup_batch_s\": %s}}}\n",
      w.name, static_cast<unsigned long long>(a.seed),
      json_number(a.seconds).c_str(), a.trace, a.git_sha.c_str(),
      a.src_digest.c_str(), FABRICBENCH_BUILD_TYPE, obs,
      std::thread::hardware_concurrency(), kFatTreeK,
      json_number(kTickS).c_str(),
      w.cache_capacity > 0 ? w.cache_capacity
                           : zen::dataplane::SwitchConfig{}.cache_capacity,
      w.reactive ? "true" : "false", w.fresh_tuples ? "true" : "false",
      w.engine_workers, w.pkts_per_tick, w.warm_set, w.new_flows_per_tick,
      w.flow_packets, static_cast<unsigned>(kIdleTimeoutS), w.latency_samples,
      kNetworks, json_number(kSetupBatchS).c_str());
  if (std::strcmp(FABRICBENCH_BUILD_TYPE, "Release") != 0)
    std::fprintf(stderr,
                 "fabricbench: WARNING: build type is %s, not Release; "
                 "timings are not comparable with Release numbers\n",
                 FABRICBENCH_BUILD_TYPE);
}

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Result run_end_to_end(const Args& a, const WorkloadSpec& w) {
  Result res;
  SetupTimes setup;
  PhaseResult r;
  std::vector<double> quiet_tick_ns;  // each tick's fastest over networks
  for (std::size_t k = 0; k < kNetworks; ++k) {
    setup.repeat(w, a.seed);
    Fabric fabric(w, a.seed);
    const double s = fabric.setup();
    setup.add(fabric, s);
    const PhaseResult part = k == 0 ? fabric.run(a.seconds / kNetworks)
                                    : fabric.run(0, quiet_tick_ns.size());
    keep_fastest(quiet_tick_ns, part.tick_ns);
    append(r, part);
  }
  const std::vector<double>& setup_s = setup.total_s;
  const double quiet_setup_s = setup.quiet_s();
  res.failures = r.failures;
  res.attempted = r.offered;
  res.failed = r.failed;

  const double wall_s = r.wall_ns * 1e-9;
  const double lost_frac =
      r.offered ? static_cast<double>(r.failed) / static_cast<double>(r.offered) : 1;
  const double offered_per_network =
      static_cast<double>(r.timed_offered) / static_cast<double>(kNetworks);
  const double quiet_pps = offered_per_network / (sum(quiet_tick_ns) * 1e-9);
  const double tick_p50 = quantile(quiet_tick_ns, 0.5) / 1e3;
  const double tick_p99 = quantile(quiet_tick_ns, 0.99) / 1e3;
  const double virt_p50 = quantile(r.first_pkt_us, 0.5);
  const double virt_p99 = quantile(r.first_pkt_us, 0.99);
  std::printf("timed: %zu networks x %zu ticks, %llu segments offered, %llu "
              "delivered, %llu setups, wall %.3f s\n",
              kNetworks, quiet_tick_ns.size(),
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.setups), wall_s);
  std::printf("whole run: delivered_pps %.1f, mean tick %.3f us; each tick's "
              "fastest of %zu: delivered_pps %.1f, tick_us p50 %.3f p99 %.3f\n",
              static_cast<double>(r.timed_offered) / wall_s,
              r.wall_ns / 1e3 / static_cast<double>(r.ticks), kNetworks,
              quiet_pps, tick_p50, tick_p99);
  std::printf("setup: %zu set-ups of %zu steps, fastest steps summed %.4f s, "
              "whole set-up min %.4f median %.4f max %.4f s; "
              "setup_virt_us p50 %.3f p99 %.3f (n=%zu); setups_per_s %.1f; "
              "lost_frac %.6f\n",
              setup_s.size(), setup.fastest_laps_ns.size(), quiet_setup_s,
              quantile(setup_s, 0), quantile(setup_s, 0.5),
              quantile(setup_s, 1), virt_p50, virt_p99,
              r.first_pkt_us.size(),
              wall_s > 0 ? static_cast<double>(r.setups) / wall_s : 0, lost_frac);
  if (r.first_pkt_us.size() < w.latency_samples)
    std::printf("warning: only %zu of %zu first-packet latency samples\n",
                r.first_pkt_us.size(), w.latency_samples);
  res.metrics = {
      {"setup_s", quiet_setup_s, "s"},
      {"delivered_pps", quiet_pps * (1 - lost_frac), "pkt/s"},
      {"tick_us_p50", tick_p50, "us"},
      {"setup_virt_us_p50", virt_p50, "us"},
      {"setup_virt_us_p99", virt_p99, "us"},
      {"delivered_frac", 1 - lost_frac, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return res;
}

Result run_layers(const Args& a, const WorkloadSpec& w) {
  Result res;
  TracedReport rep = run_traced(w, a.seed, a.seconds);
  std::fputs(rep.table.c_str(), stdout);
  res.metrics = std::move(rep.metrics);
  res.failures = std::move(rep.failures);
  res.attempted = rep.attempted;
  res.failed = rep.failed;
  const auto self = determinism_selfcheck(w, a.seed);
  std::printf("determinism self-check: %s\n", self.empty() ? "pass" : "FAIL");
  for (const auto& f : self) res.failures.push_back("determinism: " + f);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* workload = find_workload(args.workload);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  print_meta(args, *workload);

  const Result res = args.trace == 0 ? run_end_to_end(args, *workload)
                                     : run_layers(args, *workload);
  for (const auto& f : res.failures) std::printf("check failed: %s\n", f.c_str());
  const bool correct = res.failures.empty();

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
