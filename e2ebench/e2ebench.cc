// End-to-end benchmark of the Saba reproduction with per-layer attribution.
//
//   e2ebench --workload <star_testbed|spineleaf_policies|controller_churn>
//            --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//
// Three figure-shaped workloads, each in its own process on one thread
// (controller_churn's flush fans out to min(4, nproc) pool workers):
//
//   star_testbed        Fig 8: 32-host 56 Gb/s star, 16-job cluster setups
//                       from GenerateClusterSetup, each co-run under baseline
//                       and saba.
//   spineleaf_policies  Fig 10: BuildSimCluster's 1,944-server spine-leaf at a
//                       reduced instance count, in seed-drawn placements,
//                       co-run under baseline, saba, ideal, homa and
//                       sincronia with the fig10 options.
//   controller_churn    Fig 11 at scale: DistributedController on a 2x
//                       spine-leaf (3,888 hosts), 4 shards, a ramp to ~50k
//                       connections, then closed-loop job replacement.
//
// Untraced runs time RunCoRun (or the public controller API) from outside;
// traced runs also execute TracedCoRun beside each RunCoRun twin and
// attribute host time to layers. Every timing is host time from
// saba::Stopwatch; simulated outputs only feed the correctness digests.
//
// Prints one JSON object on stdout: metrics, per-cell digests, check counts
// and the attribution report. e2ebench/run.py turns it into the benchmark's
// result line.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sim_cluster.h"
// saba-lint: allow(R6): e2ebench/ is a standalone package, rooted at the repository.
#include "e2ebench/traced_corun.h"
#include "src/core/distributed_controller.h"
#include "src/core/solve_cache.h"
#include "src/exp/cluster_setup.h"
#include "src/exp/corun.h"
#include "src/exp/knobs.h"
#include "src/net/units.h"
#include "src/numerics/stats.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/wallclock.h"

namespace saba {
namespace {

// Set-up is repeated this many times per run; setup_s is the median. The
// churn ramp costs seconds per set-up, so it repeats fewer times.
constexpr int kSetupRepeats = 5;
constexpr int kChurnSetupRepeats = 3;

// Workload sizes. Co-run host time per update varies by ~10-15% between
// random setups, so a run averages over several to stay steady across seeds.
constexpr int kStarSetups = 4;
constexpr int kSpineleafPlacements = 2;
constexpr int kSpineleafInstances = 6;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <star_testbed|spineleaf_policies|"
               "controller_churn> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    const std::optional<int64_t> number = ParseInt64(value);
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!number || *number < 0) {
        Usage("--seed must be a non-negative integer");
      }
      args.seed = static_cast<uint64_t>(*number);
    } else if (flag == "--seconds") {
      if (!number || *number < 1) {
        Usage("--seconds must be a positive integer");
      }
      args.seconds = static_cast<double>(*number);
    } else if (flag == "--trace") {
      if (!number || (*number != 0 && *number != 1)) {
        Usage("--trace must be 0 or 1");
      }
      args.trace = *number == 1;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        Usage("--size must be full or tiny");
      }
      args.tiny = value == "tiny";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50); }

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string Num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

// Correctness bookkeeping: every check counts as attempted; failures feed
// fail_frac. Digests are compared against e2ebench/digests.json by run.py.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> digests;  // Cell -> hex digest.

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// Hash of a co-run's simulated outputs: the bits of every completion time and
// of the makespan.
uint64_t CoRunDigest(const CoRunResult& r) {
  uint64_t h = kFnvOffsetBasis;
  h = HashBytes(h, r.completion_seconds.data(), r.completion_seconds.size() * sizeof(double));
  return HashBytes(h, &r.makespan, sizeof(r.makespan));
}

bool CoRunFinished(const CoRunResult& r) {
  double last = 0;
  for (const double t : r.completion_seconds) {
    if (!(t > 0)) {
      return false;
    }
    last = std::max(last, t);
  }
  return r.makespan >= last;
}

// ---------------------------------------------------------------------------
// Attribution report.

struct Report {
  std::ostringstream text;

  void Row(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-34s %14.6g %-6s", name.c_str(), value, unit.c_str());
    text << buf << note << '\n';
  }
};

// Per-layer rows of one trace, each name prefixed (e.g. "saba.").
void LayerRows(Report* report, const std::string& prefix, const LayerTrace& t, double per) {
  const auto s = [&](const char* name, double v, const std::string& note = "") {
    report->Row(prefix + name, v / per, "s", note);
  };
  const auto n = [&](const char* name, double v, const std::string& note = "") {
    report->Row(prefix + name, v / per, "count", note);
  };
  n("sim.events", static_cast<double>(t.events));
  s("exp.assemble_s", t.assemble_s);
  n("net.realloc.n", static_cast<double>(t.realloc_n));
  s("net.realloc_s", t.realloc_s);
  if (t.split_n > 0) {
    s("net.sync_s", t.sync_s, "  (" + Num(t.split_n / per) + " reallocations split at the hook)");
    s("net.solve_s", t.solve_s);
  } else {
    report->text << "  " << prefix
                 << "net.sync_s/solve_s: n/a (the policy owns the pre-allocate hook)\n";
  }
  n("net.tick.n", static_cast<double>(t.tick_n));
  s("net.tick_s", t.tick_s);
  n("net.flows_rerated", static_cast<double>(t.flows_rerated));
  n("net.flows_frozen", static_cast<double>(t.flows_frozen));
  n("net.full_recomputes", static_cast<double>(t.full_recomputes));
  if (t.flows_rerated > 0 && t.split_n == t.realloc_n) {
    report->Row(prefix + "net.ns_per_rerated_flow", t.solve_s * 1e9 / t.flows_rerated, "ns",
                "  (net.solve_s / net.flows_rerated)");
  }
  s("workload.event_s", t.workload_s);
  if (t.flush_n + t.conn_n + t.register_n > 0) {
    n("core.flush.n", static_cast<double>(t.flush_n));
    s("core.flush_s", t.flush_s);
    s("core.conn_s", t.conn_s, "  (" + Num(t.conn_n / per) + " calls)");
    s("core.register_s", t.register_s, "  (" + Num(t.register_n / per) + " calls)");
    n("core.port_reconfigs", static_cast<double>(t.port_reconfigs));
    n("core.ports_flushed", static_cast<double>(t.ports_flushed));
    n("core.parallel_flushes", static_cast<double>(t.parallel_flushes));
    const uint64_t lookups = t.eq2_hits + t.eq2_misses;
    report->Row(prefix + "core.eq2_hit_ratio",
                lookups > 0 ? static_cast<double>(t.eq2_hits) / lookups : 0, "ratio",
                "  (" + std::to_string(t.eq2_hits) + " hits / " + std::to_string(lookups) +
                    " hits + misses)");
  }
  const double covered = t.SelfTotal() / t.traced_wall_s;
  report->Row(prefix + "trace.coverage", covered, "ratio",
              "  (self times / traced wall " + Num(t.traced_wall_s / per) + " s)");
}

// ---------------------------------------------------------------------------
// Output.

struct Output {
  std::map<std::string, double> metrics;
  Checks checks;
  Report report;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void PrintJson(const Args& args, const Output& out) {
  std::ostringstream js;
  js << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
     << ", \"size\": \"" << (args.tiny ? "tiny" : "full") << "\", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : out.metrics) {
    js << sep << "\"" << name << "\": " << Num(value);
    sep = ", ";
  }
  js << "}, \"attempted\": " << out.checks.attempted << ", \"failed\": " << out.checks.failed
     << ", \"failures\": [";
  sep = "";
  for (const std::string& f : out.checks.failures) {
    js << sep << "\"" << JsonEscape(f) << "\"";
    sep = ", ";
  }
  js << "], \"digests\": {";
  sep = "";
  for (const auto& [cell, digest] : out.checks.digests) {
    js << sep << "\"" << cell << "\": \"" << digest << "\"";
    sep = ", ";
  }
  js << "}, \"report\": \"" << JsonEscape(out.report.text.str()) << "\"}";
  std::cout << js.str() << std::endl;
}

// The per_layer metrics every workload reports (BENCHMARK.json), from the
// per-pass average of the workload's summed trace.
void LayerMetrics(const LayerTrace& t, double per, double untraced_wall_s, Output* out) {
  auto& m = out->metrics;
  m["sim.events"] = static_cast<double>(t.events) / per;
  m["net.realloc.n"] = static_cast<double>(t.realloc_n) / per;
  m["net.realloc_s"] = t.realloc_s / per;
  m["net.sync_s"] = t.sync_s / per;
  m["net.solve_s"] = t.solve_s / per;
  m["net.tick.n"] = static_cast<double>(t.tick_n) / per;
  m["net.flows_rerated"] = static_cast<double>(t.flows_rerated) / per;
  m["net.full_recomputes"] = static_cast<double>(t.full_recomputes) / per;
  m["workload.event_s"] = t.workload_s / per;
  m["core.flush.n"] = static_cast<double>(t.flush_n) / per;
  m["core.flush_s"] = t.flush_s / per;
  m["core.conn_s"] = t.conn_s / per;
  m["core.register_s"] = t.register_s / per;
  m["core.port_reconfigs"] = static_cast<double>(t.port_reconfigs) / per;
  m["core.ports_flushed"] = static_cast<double>(t.ports_flushed) / per;
  m["core.parallel_flushes"] = static_cast<double>(t.parallel_flushes) / per;
  const uint64_t lookups = t.eq2_hits + t.eq2_misses;
  m["core.eq2_hit_ratio"] = lookups > 0 ? static_cast<double>(t.eq2_hits) / lookups : 0;
  m["trace.coverage"] = t.SelfTotal() / t.traced_wall_s;
  m["trace.overhead"] = t.traced_wall_s / untraced_wall_s - 1;
}

// ---------------------------------------------------------------------------
// Co-run workloads: a fixed list of cells, repeated in passes until the time
// is up (at least two passes). Pass k's digests must equal pass 1's.

struct CoRunCell {
  std::string name;    // Unique per workload, e.g. "setup0.saba".
  std::string policy;  // Metric prefix.
  const Topology* topology;
  const std::vector<JobSpec>* jobs;
  CoRunOptions options;
};

void RunCoRunCells(const Args& args, const std::vector<CoRunCell>& cells, Output* out) {
  std::vector<std::string> policies;  // In order of first appearance.
  for (const CoRunCell& cell : cells) {
    if (std::find(policies.begin(), policies.end(), cell.policy) == policies.end()) {
      policies.push_back(cell.policy);
    }
  }
  std::vector<double> pass_wall;
  std::map<std::string, double> policy_untraced_s;
  std::map<std::string, double> policy_updates;  // Flow updates per pass.
  std::map<std::string, LayerTrace> policy_trace;
  std::map<std::string, double> policy_min_share;  // Lowest per-cell realloc share.
  LayerTrace total_trace;
  double untraced_total = 0;
  const Stopwatch window;
  int passes = 0;
  // At least two passes, so every cell has a repeat to take the fastest of;
  // later passes start only if they are expected to end inside the window.
  double longest_pass = 0;
  std::vector<double> cell_best(cells.size(), 1e300);
  while (passes < 2 || window.ElapsedSeconds() + longest_pass <= args.seconds) {
    ++passes;
    const Stopwatch pass_clock;
    double traced_s = 0;
    for (size_t c = 0; c < cells.size(); ++c) {
      const CoRunCell& cell = cells[c];
      const Stopwatch cell_clock;
      const CoRunResult result = RunCoRun(*cell.topology, *cell.jobs, cell.options);
      const double elapsed = cell_clock.ElapsedSeconds();
      cell_best[c] = std::min(cell_best[c], elapsed);
      untraced_total += elapsed;
      policy_untraced_s[cell.policy] += elapsed;
      const std::string digest = Hex(CoRunDigest(result));
      out->checks.Expect(CoRunFinished(result), cell.name + ": a job did not finish");
      if (passes == 1) {
        out->checks.digests[cell.name] = digest;
        policy_updates[cell.policy] += static_cast<double>(
            result.engine_stats.flows_rerated + result.engine_stats.flows_frozen);
      } else {
        out->checks.Expect(out->checks.digests[cell.name] == digest,
                           cell.name + ": pass " + std::to_string(passes) +
                               " digest differs from pass 1");
      }
      if (args.trace) {
        const Stopwatch traced_clock;
        LayerTrace trace;
        const CoRunResult traced = TracedCoRun(*cell.topology, *cell.jobs, cell.options, &trace);
        traced_s += traced_clock.ElapsedSeconds();
        out->checks.Expect(Hex(CoRunDigest(traced)) == digest,
                           cell.name + ": traced co-run differs from its RunCoRun twin");
        policy_trace[cell.policy].Add(trace);
        total_trace.Add(trace);
        const double share = trace.realloc_s / trace.traced_wall_s;
        const auto [it, fresh] = policy_min_share.emplace(cell.policy, share);
        it->second = fresh ? share : std::min(it->second, share);
      }
    }
    longest_pass = std::max(longest_pass, pass_clock.ElapsedSeconds());
    pass_wall.push_back(pass_clock.ElapsedSeconds() - traced_s);
  }

  // Host speed varies by ~10% from one second to the next, so each cell's
  // time is its fastest pass; cells are summed per policy.
  double updates = 0;
  double best_total = 0;
  std::map<std::string, double> policy_best;
  for (size_t c = 0; c < cells.size(); ++c) {
    policy_best[cells[c].policy] += cell_best[c];
    best_total += cell_best[c];
  }
  for (const auto& [policy, n] : policy_updates) {
    updates += n;
  }
  out->metrics["wall_ns_per_update"] = best_total / updates * 1e9;
  out->metrics["saba_ns_per_update"] = policy_best["saba"] / policy_updates["saba"] * 1e9;
  Report& report = out->report;
  report.text << "untraced, " << passes << " passes over " << cells.size()
              << " cells; each cell timed by its fastest pass. An update is one flow rated "
              << "or re-confirmed by one reallocation:\n";
  report.Row("wall_s", best_total, "s", "  (median pass " + Num(Median(pass_wall)) + " s)");
  report.Row("updates", updates, "count");
  report.Row("wall_ns_per_update", best_total / updates * 1e9, "ns");
  for (const std::string& policy : policies) {
    report.Row(policy + "_s", policy_best[policy], "s");
    report.Row(policy + "_ns_per_update", policy_best[policy] / policy_updates[policy] * 1e9,
               "ns", "  (" + Num(policy_updates[policy]) + " updates)");
  }
  if (args.trace) {
    const double per = passes;
    LayerMetrics(total_trace, per, untraced_total, out);
    report.text << "traced, per pass (mean of " << passes << " passes):\n";
    LayerRows(&report, "", total_trace, per);
    report.Row("trace.overhead", total_trace.traced_wall_s / untraced_total - 1, "ratio",
               "  (traced wall / untraced wall - 1)");
    for (const std::string& policy : policies) {
      const LayerTrace& t = policy_trace[policy];
      report.text << policy << " (" << Num(t.traced_wall_s / per) << " s traced, "
                  << Num(policy_untraced_s[policy] / per) << " s untraced):\n";
      LayerRows(&report, policy + ".", t, per);
      report.Row(policy + ".net.realloc_share", t.realloc_s / t.traced_wall_s, "ratio",
                 "  (net.realloc_s / traced wall; lowest single cell " +
                     Num(policy_min_share[policy]) + ")");
    }
  }
}

CoRunOptions Fig10Options(PolicyKind policy, const SensitivityTable* table, uint64_t seed) {
  CoRunOptions options;
  options.policy = policy;
  options.table = table;
  options.num_pls = 16;
  options.fecn_gamma = 0.15;
  options.seed = seed;
  return options;
}

// Fig 8 shape. Setup: profiling the HiBench catalog, the star, the setups.
struct StarInputs {
  SensitivityTable table;
  Topology topology;
  std::vector<std::vector<JobSpec>> setups;
};

StarInputs BuildStar(const Args& args) {
  StarInputs in;
  in.table = ProfileCatalog(args.seed);
  in.topology = BuildSingleSwitchStar(32, Gbps64(56));
  Rng rng(args.seed);
  ClusterSetupOptions options;
  // The 10x dataset scale only stretches a setup's simulated time (the
  // per-reallocation shape is the same), so it is left out to fit more
  // independent setups into a run.
  options.dataset_scales = {0.1, 1.0};
  if (args.tiny) {
    options.jobs_per_setup = 4;
    options.dataset_scales = {0.1};
  }
  const int num_setups = args.tiny ? 1 : kStarSetups;
  for (int s = 0; s < num_setups; ++s) {
    in.setups.push_back(GenerateClusterSetup(HiBenchCatalog(), options, &rng));
  }
  return in;
}

void RunStarTestbed(const Args& args, Output* out) {
  std::vector<double> setup_s;
  StarInputs in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Stopwatch clock;
    in = BuildStar(args);
    setup_s.push_back(clock.ElapsedSeconds());
  }
  out->metrics["setup_s"] = Median(setup_s);

  std::vector<CoRunCell> cells;
  for (size_t s = 0; s < in.setups.size(); ++s) {
    CoRunOptions baseline;
    baseline.policy = PolicyKind::kBaseline;
    cells.push_back({"setup" + std::to_string(s) + ".baseline", "baseline", &in.topology,
                     &in.setups[s], baseline});
    CoRunOptions saba;
    saba.policy = PolicyKind::kSaba;
    saba.table = &in.table;
    saba.seed = args.seed + s;
    cells.push_back(
        {"setup" + std::to_string(s) + ".saba", "saba", &in.topology, &in.setups[s], saba});
  }
  RunCoRunCells(args, cells, out);
}

// The Fig 10 synthetic catalog and its profiles are fixed (BuildSimCluster at
// the figure's default seed); the run seed draws each placement's hosts and
// start times. A seed-drawn catalog would make host time per update swing by
// ~25% between seeds, since Sincronia's cost depends on the workload mix.
constexpr uint64_t kSpineleafCatalogSeed = 42;

std::vector<JobSpec> PlaceJobs(const SimCluster& cluster, Rng* rng) {
  std::vector<JobSpec> jobs = cluster.jobs;
  std::vector<NodeId> servers = cluster.topology.Hosts();
  rng->Shuffle(&servers);
  size_t cursor = 0;
  for (JobSpec& job : jobs) {
    for (NodeId& host : job.hosts) {
      host = servers[cursor++];
    }
    job.start_at = rng->Uniform(0, 5.0);
  }
  return jobs;
}

void RunSpineleafPolicies(const Args& args, Output* out) {
  const int num_placements = args.tiny ? 1 : kSpineleafPlacements;
  std::vector<double> setup_s;
  SimCluster cluster;
  std::vector<std::vector<JobSpec>> placements;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Stopwatch clock;
    SimClusterConfig config;
    config.seed = kSpineleafCatalogSeed;
    config.instances_per_workload = args.tiny ? 2 : kSpineleafInstances;
    cluster = BuildSimCluster(config);
    placements.clear();
    for (int p = 0; p < num_placements; ++p) {
      Rng rng(Rng::StreamSeed(args.seed, static_cast<uint64_t>(p)));
      placements.push_back(PlaceJobs(cluster, &rng));
    }
    setup_s.push_back(clock.ElapsedSeconds());
  }
  out->metrics["setup_s"] = Median(setup_s);

  const std::vector<std::pair<std::string, PolicyKind>> policies = {
      {"baseline", PolicyKind::kBaseline},
      {"saba", PolicyKind::kSaba},
      {"ideal", PolicyKind::kIdealMaxMin},
      {"homa", PolicyKind::kHoma},
      {"sincronia", PolicyKind::kSincronia}};
  std::vector<CoRunCell> cells;
  for (size_t p = 0; p < placements.size(); ++p) {
    for (const auto& [name, kind] : policies) {
      cells.push_back({"placement" + std::to_string(p) + "." + name, name, &cluster.topology,
                       &placements[p], Fig10Options(kind, &cluster.table, args.seed)});
    }
  }
  RunCoRunCells(args, cells, out);
}

// ---------------------------------------------------------------------------
// controller_churn: the bench_fig11_scale churn loop through the public
// DistributedController API.

// Exposes a fingerprint of everything the controller programmed (per-port
// SL tables, queue weights, solved per-app weights in ascending link order),
// as bench_fig11_scale's StateDigest does.
class DigestController : public DistributedController {
 public:
  using DistributedController::DistributedController;

  uint64_t StateDigest(const Network& network) const {
    uint64_t h = kFnvOffsetBasis;
    const size_t num_links = network.topology().num_links();
    for (LinkId link = 0; link < static_cast<LinkId>(num_links); ++link) {
      const PortConfig& port = network.port(link);
      h = HashBytes(h, port.sl_to_queue.data(), port.sl_to_queue.size() * sizeof(int));
      h = HashBytes(h, port.queue_weights.data(), port.queue_weights.size() * sizeof(double));
      auto it = port_weights_.find(link);
      if (it == port_weights_.end()) {
        continue;
      }
      for (const auto& [app, weight] : it->second) {
        h = HashBytes(h, &app, sizeof(app));
        h = HashBytes(h, &weight, sizeof(weight));
      }
    }
    return h;
  }
};

constexpr int kChurnInstances = 32;
constexpr int kChurnFanout = 4;
constexpr int kChurnWorkloads = 64;

struct ChurnConn {
  NodeId src;
  NodeId dst;
  uint64_t salt;
};

struct ChurnJob {
  AppId app = 0;
  std::string workload;
  std::vector<ChurnConn> conns;
};

std::string WorkloadName(int64_t index) {
  std::string name = "w";
  name += std::to_string(index);
  return name;
}

ChurnJob MakeChurnJob(AppId app, const std::vector<NodeId>& hosts, Rng* rng) {
  ChurnJob job;
  job.app = app;
  job.workload = WorkloadName(rng->UniformInt(0, kChurnWorkloads - 1));
  std::vector<NodeId> placement;
  for (int i = 0; i < kChurnInstances; ++i) {
    placement.push_back(rng->Choice(hosts));
  }
  for (int i = 0; i < kChurnInstances; ++i) {
    for (int k = 1; k <= kChurnFanout; ++k) {
      const NodeId src = placement[static_cast<size_t>(i)];
      const NodeId dst = placement[static_cast<size_t>((i + k) % kChurnInstances)];
      if (src != dst) {
        job.conns.push_back({src, dst, rng->Next()});
      }
    }
  }
  return job;
}

// Random convex decreasing degree-3 polynomial in (1-b), as in fig11/fig12.
SensitivityModel RandomModel(Rng* rng) {
  const double s = rng->Uniform(0.1, 4.0);
  const double q = rng->Uniform(0.0, 3.0);
  const double c = rng->Uniform(0.0, 2.0);
  return SensitivityModel{Polynomial({1 + s + q + c, -(s + 2 * q + 3 * c), q + 3 * c, -c})};
}

// One ramped controller universe plus the churn script's generator state.
struct ChurnUniverse {
  Topology topology;
  std::vector<NodeId> hosts;
  SensitivityTable table;
  std::unique_ptr<EventScheduler> scheduler;
  std::unique_ptr<Network> network;
  std::unique_ptr<WfqMaxMinAllocator> allocator;
  std::unique_ptr<FlowSimulator> flow_sim;
  std::unique_ptr<DigestController> controller;
  Rng rng{0};
  std::vector<ChurnJob> live;
  AppId next_app = 1;
  size_t live_conns = 0;
};

int ShardJobs() {
  // saba-lint: allow(R7): queries the thread count, constructs no thread.
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hardware), 1, 4);
}

void Settle(ChurnUniverse* u) { u->scheduler->RunUntil(u->scheduler->Now() + 1e-9); }

void Arrive(ChurnUniverse* u, const ChurnJob& job) {
  u->controller->AppRegister(job.app, job.workload);
  for (const ChurnConn& conn : job.conns) {
    u->controller->ConnCreate(job.app, conn.src, conn.dst, conn.salt);
  }
}

// Setup: fabric, profiled table, offline database, and the ramp to the
// target connection count with one flush per arrival.
std::unique_ptr<ChurnUniverse> BuildChurn(const Args& args) {
  auto u = std::make_unique<ChurnUniverse>();
  const int scale = 2;
  u->topology = BuildSpineLeaf({.num_spine = 54,
                                .num_leaf = 102 * scale,
                                .num_tor = 108 * scale,
                                .hosts_per_tor = 18,
                                .num_pods = 6 * scale,
                                .host_link_bps = Gbps64(56),
                                .tor_leaf_bps = Gbps64(56),
                                .leaf_spine_bps = Gbps64(56)});
  u->hosts = u->topology.Hosts();
  Rng model_rng(Rng::StreamSeed(args.seed, 1));
  for (int w = 0; w < kChurnWorkloads; ++w) {
    SensitivityEntry entry;
    entry.model = RandomModel(&model_rng);
    u->table.Put(WorkloadName(w), entry);
  }
  u->scheduler = std::make_unique<EventScheduler>();
  u->network = std::make_unique<Network>(u->topology, /*default_queues=*/16);
  u->allocator = std::make_unique<WfqMaxMinAllocator>();
  u->flow_sim =
      std::make_unique<FlowSimulator>(u->scheduler.get(), u->network.get(), u->allocator.get());
  DistributedControllerOptions options;
  options.base.seed = Rng::StreamSeed(args.seed, 4);
  options.num_shards = 4;
  options.shard_jobs = ShardJobs();
  u->controller = std::make_unique<DigestController>(
      u->network.get(), u->flow_sim.get(), &u->table,
      MappingDatabase::Build(u->table, /*num_pls=*/8, Rng::StreamSeed(args.seed, 2)), options);

  const size_t target_conns = args.tiny ? 2000 : 50000;
  u->rng = Rng(Rng::StreamSeed(args.seed, 3));
  while (u->live_conns < target_conns) {
    u->live.push_back(MakeChurnJob(u->next_app++, u->hosts, &u->rng));
    u->live_conns += u->live.back().conns.size();
    Arrive(u.get(), u->live.back());
    Settle(u.get());
  }
  return u;
}

struct ChurnEvent {
  size_t slot;
  ChurnJob departs;
  ChurnJob arrives;
};

// The next `n` replacement events of the universe's script, generated before
// timing starts. Replays identically on every universe built from one seed.
std::vector<ChurnEvent> NextEvents(ChurnUniverse* u, int n) {
  std::vector<ChurnEvent> events;
  std::vector<ChurnJob> live = u->live;
  AppId next_app = u->next_app;
  for (int e = 0; e < n; ++e) {
    ChurnEvent event;
    event.slot = static_cast<size_t>(
        u->rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    event.departs = live[event.slot];
    event.arrives = MakeChurnJob(next_app++, u->hosts, &u->rng);
    live[event.slot] = event.arrives;
    events.push_back(std::move(event));
  }
  return events;
}

// Applies one replacement event; with `trace`, attributes its host time.
void Replace(ChurnUniverse* u, const ChurnEvent& event, LayerTrace* trace) {
  DigestController& c = *u->controller;
  if (trace == nullptr) {
    for (const ChurnConn& conn : event.departs.conns) {
      c.ConnDestroy(event.departs.app, conn.src, conn.dst, conn.salt);
    }
    c.AppDeregister(event.departs.app);
    Arrive(u, event.arrives);
    Settle(u);
  } else {
    const Stopwatch clock;
    double mark = clock.ElapsedSeconds();
    const auto span = [&](double* total) {
      const double now = clock.ElapsedSeconds();
      *total += now - mark;
      mark = now;
    };
    double driver_s = 0;
    for (const ChurnConn& conn : event.departs.conns) {
      span(&driver_s);
      c.ConnDestroy(event.departs.app, conn.src, conn.dst, conn.salt);
      span(&trace->conn_s);
      ++trace->conn_n;
    }
    span(&driver_s);
    c.AppDeregister(event.departs.app);
    span(&trace->register_s);
    c.AppRegister(event.arrives.app, event.arrives.workload);
    span(&trace->register_s);
    trace->register_n += 2;
    for (const ChurnConn& conn : event.arrives.conns) {
      span(&driver_s);
      c.ConnCreate(event.arrives.app, conn.src, conn.dst, conn.salt);
      span(&trace->conn_s);
      ++trace->conn_n;
    }
    span(&driver_s);
    // Settle step by step: the flush, then the reallocation it requests. No
    // flows exist, so every pending event is due now and the queue drains;
    // RunUntil then advances the clock exactly as Settle() does.
    double hook_at = -1;
    u->flow_sim->SetPreAllocateHook([&clock, &hook_at] { hook_at = clock.ElapsedSeconds(); });
    while (true) {
      const uint64_t runs0 = u->flow_sim->allocator_runs();
      const double calc0 = c.stats().total_calc_wall_seconds;
      hook_at = -1;
      const double t0 = clock.ElapsedSeconds();
      if (!u->scheduler->Step()) {
        break;
      }
      const double t1 = clock.ElapsedSeconds();
      ++trace->events;
      if (u->flow_sim->allocator_runs() != runs0) {
        ++trace->realloc_n;
        trace->realloc_s += t1 - t0;
        if (hook_at >= 0) {
          ++trace->split_n;
          trace->sync_s += hook_at - t0;
          trace->solve_s += t1 - hook_at;
        }
      } else if (c.stats().total_calc_wall_seconds != calc0) {
        ++trace->flush_n;
        trace->flush_s += t1 - t0;
      } else {
        trace->workload_s += t1 - t0;
      }
      mark = t1;
    }
    Settle(u);
    u->flow_sim->SetPreAllocateHook(nullptr);
    span(&driver_s);
    trace->workload_s += driver_s;
    trace->traced_wall_s += clock.ElapsedSeconds();
  }
  u->live[event.slot] = event.arrives;
  u->next_app = std::max(u->next_app, event.arrives.app + 1);
  u->live_conns += event.arrives.conns.size();
  u->live_conns -= event.departs.conns.size();
}

// Cumulative simulator and controller counters of a universe.
void ChurnCounters(const ChurnUniverse& u, LayerTrace* t) {
  t->flows_rerated = u.flow_sim->engine_stats().flows_rerated;
  t->full_recomputes = u.flow_sim->engine_stats().full_recomputes;
  t->port_reconfigs = u.controller->stats().port_reconfigurations;
  t->eq2_hits = u.controller->stats().eq2_cache_hits;
  t->eq2_misses = u.controller->stats().eq2_cache_misses;
  t->ports_flushed = u.controller->distributed_stats().ports_flushed;
  t->parallel_flushes = u.controller->distributed_stats().parallel_flushes;
}

void RunControllerChurn(const Args& args, Output* out) {
  // Setup repeats build fresh universes; the last one (two when traced: the
  // untraced twin and the traced copy) runs the churn.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<ChurnUniverse>> universes;
  const size_t keep = args.trace ? 2 : 1;
  for (int r = 0; r < kChurnSetupRepeats; ++r) {
    const Stopwatch clock;
    universes.push_back(BuildChurn(args));
    setup_s.push_back(clock.ElapsedSeconds());
    if (universes.size() > keep) {
      universes.erase(universes.begin());
    }
  }
  out->metrics["setup_s"] = Median(setup_s);
  ChurnUniverse* untraced = universes[0].get();
  ChurnUniverse* traced = args.trace ? universes[1].get() : nullptr;

  const int block = args.tiny ? 20 : 100;
  std::vector<double> latency_ms;
  std::vector<double> block_wall;
  std::vector<double> block_event_s;
  std::vector<double> event_ns_per_update;
  LayerTrace trace;
  // Traced counters are reported as deltas over the timed phase.
  LayerTrace ramp;
  if (traced != nullptr) {
    ChurnCounters(*traced, &ramp);
  }
  const Stopwatch window;
  int blocks = 0;
  while (blocks == 0 || window.ElapsedSeconds() < args.seconds) {
    ++blocks;
    const std::vector<ChurnEvent> events = NextEvents(untraced, block);
    const Stopwatch block_clock;
    double event_s = 0;
    for (const ChurnEvent& event : events) {
      const double updates =
          static_cast<double>(event.departs.conns.size() + event.arrives.conns.size());
      const Stopwatch event_clock;
      Replace(untraced, event, nullptr);
      const double elapsed = event_clock.ElapsedSeconds();
      event_s += elapsed;
      latency_ms.push_back(elapsed * 1e3);
      event_ns_per_update.push_back(elapsed / updates * 1e9);
    }
    block_wall.push_back(block_clock.ElapsedSeconds());
    block_event_s.push_back(event_s);

    const ControllerStats& stats = untraced->controller->stats();
    out->checks.Expect(stats.conn_creates - stats.conn_destroys == untraced->live_conns,
                       "block " + std::to_string(blocks) + ": live connection count drifted");
    out->checks.Expect(stats.registrations - stats.deregistrations == untraced->live.size(),
                       "block " + std::to_string(blocks) + ": live job count drifted");
    const std::string digest = Hex(untraced->controller->StateDigest(*untraced->network));
    if (blocks == 1) {
      out->checks.digests["block1"] = digest;
    }
    if (traced != nullptr) {
      const std::vector<ChurnEvent> replay = NextEvents(traced, block);
      for (const ChurnEvent& event : replay) {
        Replace(traced, event, &trace);
      }
      out->checks.Expect(
          Hex(traced->controller->StateDigest(*traced->network)) == digest &&
              traced->controller->distributed_stats().ports_flushed ==
                  untraced->controller->distributed_stats().ports_flushed,
          "block " + std::to_string(blocks) + ": traced churn differs from its untraced twin");
    }
  }
  // The 10th percentile of per-event cost: like the co-run workloads' fastest
  // pass, a low quantile follows the code, not the host's slow spells. Every
  // timed event is Saba's controller, so the two metrics coincide here.
  const double fast_ns = Percentile(event_ns_per_update, 10);
  out->metrics["wall_ns_per_update"] = fast_ns;
  out->metrics["saba_ns_per_update"] = fast_ns;
  Report& report = out->report;
  const size_t n = latency_ms.size();
  report.text << "untraced: " << blocks << " blocks of " << block << " replacement events, "
              << untraced->live_conns << " live connections, " << untraced->hosts.size()
              << " hosts, " << ShardJobs() << " flush workers\n";
  report.Row("wall_s", Median(block_wall), "s",
             "  (median of " + std::to_string(blocks) + " blocks)");
  report.Row("wall_ns_per_update", fast_ns, "ns",
             "  (10th percentile of " + std::to_string(latency_ms.size()) +
                 " events' latency per update; an update is one connection created or "
                 "destroyed)");
  report.Row("churn_ms.p50", Percentile(latency_ms, 50), "ms",
             "  (" + std::to_string(n) + " events)");
  report.Row("churn_ms.p90", Percentile(latency_ms, 90), "ms",
             "  (" + std::to_string(n) + " events, " + std::to_string(n / 10) + " beyond)");
  if (n >= 1000) {
    report.Row("churn_ms.p99", Percentile(latency_ms, 99), "ms",
               "  (" + std::to_string(n) + " events, " + std::to_string(n / 100) + " beyond)");
  }
  if (args.trace) {
    LayerTrace now;
    ChurnCounters(*traced, &now);
    trace.flows_rerated = now.flows_rerated - ramp.flows_rerated;
    trace.full_recomputes = now.full_recomputes - ramp.full_recomputes;
    trace.port_reconfigs = now.port_reconfigs - ramp.port_reconfigs;
    trace.eq2_hits = now.eq2_hits - ramp.eq2_hits;
    trace.eq2_misses = now.eq2_misses - ramp.eq2_misses;
    trace.ports_flushed = now.ports_flushed - ramp.ports_flushed;
    trace.parallel_flushes = now.parallel_flushes - ramp.parallel_flushes;
    double untraced_total = 0;
    for (const double s : block_event_s) {
      untraced_total += s;
    }
    LayerMetrics(trace, blocks, untraced_total, out);
    report.text << "traced, per block of " << block << " events (mean of " << blocks
                << " blocks):\n";
    LayerRows(&report, "", trace, blocks);
    report.Row("trace.overhead", trace.traced_wall_s / untraced_total - 1, "ratio",
               "  (traced wall / untraced wall - 1)");
    report.Row("core.share", (trace.flush_s + trace.conn_s + trace.register_s) /
                                 trace.traced_wall_s,
               "ratio", "  ((core.flush_s + core.conn_s + core.register_s) / traced wall)");
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Output out;
  if (args.workload == "star_testbed") {
    RunStarTestbed(args, &out);
  } else if (args.workload == "spineleaf_policies") {
    RunSpineleafPolicies(args, &out);
  } else if (args.workload == "controller_churn") {
    RunControllerChurn(args, &out);
  } else {
    Usage("unknown workload " + args.workload);
  }
  PrintJson(args, out);
  return 0;
}

}  // namespace
}  // namespace saba

int main(int argc, char** argv) { return saba::Main(argc, argv); }
