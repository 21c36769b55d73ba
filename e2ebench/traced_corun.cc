// saba-lint: allow(R6): e2ebench/ is a standalone package, rooted at the repository.
#include "e2ebench/traced_corun.h"

#include <cassert>
#include <memory>
#include <string>
#include <utility>

#include "src/baselines/homa_policy.h"
#include "src/baselines/sincronia_policy.h"
#include "src/core/saba_client.h"
#include "src/exp/knobs.h"
#include "src/net/allocator.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/wallclock.h"
#include "src/workload/app_runtime.h"

namespace saba {
namespace {

// Times the Saba library's RPCs. `nested_s` collects the span time inside the
// current event so the stepping loop can subtract it.
class TimedPolicy : public AppNetworkPolicy {
 public:
  TimedPolicy(AppNetworkPolicy* inner, const Stopwatch* clock, LayerTrace* trace)
      : inner_(inner), clock_(clock), trace_(trace) {}

  int OnAppStart(AppId app, const std::string& workload_name,
                 const std::vector<NodeId>& hosts) override {
    const double t0 = clock_->ElapsedSeconds();
    const int sl = inner_->OnAppStart(app, workload_name, hosts);
    Close(t0, &trace_->register_s, &trace_->register_n);
    return sl;
  }
  void OnConnectionOpen(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override {
    const double t0 = clock_->ElapsedSeconds();
    inner_->OnConnectionOpen(app, src, dst, path_salt);
    Close(t0, &trace_->conn_s, &trace_->conn_n);
  }
  void OnConnectionClose(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override {
    const double t0 = clock_->ElapsedSeconds();
    inner_->OnConnectionClose(app, src, dst, path_salt);
    Close(t0, &trace_->conn_s, &trace_->conn_n);
  }
  void OnAppFinish(AppId app) override {
    const double t0 = clock_->ElapsedSeconds();
    inner_->OnAppFinish(app);
    Close(t0, &trace_->register_s, &trace_->register_n);
  }
  int ServiceLevelFor(AppId app) const override { return inner_->ServiceLevelFor(app); }

  double nested_s = 0;

 private:
  void Close(double t0, double* total, uint64_t* count) {
    const double span = clock_->ElapsedSeconds() - t0;
    *total += span;
    *count += 1;
    nested_s += span;
  }

  AppNetworkPolicy* inner_;
  const Stopwatch* clock_;
  LayerTrace* trace_;
};

}  // namespace

double LayerTrace::SelfTotal() const {
  return assemble_s + realloc_s + tick_s + flush_s + conn_s + register_s + workload_s;
}

void LayerTrace::Add(const LayerTrace& o) {
  events += o.events;
  assemble_s += o.assemble_s;
  realloc_n += o.realloc_n;
  realloc_s += o.realloc_s;
  split_n += o.split_n;
  sync_s += o.sync_s;
  solve_s += o.solve_s;
  tick_n += o.tick_n;
  tick_s += o.tick_s;
  flush_n += o.flush_n;
  flush_s += o.flush_s;
  conn_n += o.conn_n;
  conn_s += o.conn_s;
  register_n += o.register_n;
  register_s += o.register_s;
  workload_s += o.workload_s;
  traced_wall_s += o.traced_wall_s;
  flows_rerated += o.flows_rerated;
  flows_frozen += o.flows_frozen;
  full_recomputes += o.full_recomputes;
  port_reconfigs += o.port_reconfigs;
  eq2_hits += o.eq2_hits;
  eq2_misses += o.eq2_misses;
  ports_flushed += o.ports_flushed;
  parallel_flushes += o.parallel_flushes;
}

namespace {

// Mirrors RunCoRun (src/exp/corun.cc) for the benchmark's policies; any
// divergence in wiring shows up as a digest mismatch against the RunCoRun twin.
// Returns with `*loop_end` set to the clock reading after the last event.
CoRunResult Simulate(const Topology& topology, const std::vector<JobSpec>& jobs,
                     const CoRunOptions& options, const Stopwatch& clock, LayerTrace* trace,
                     double* loop_end) {
  assert(!jobs.empty());
  assert(options.failures.empty());
  LayerTrace& cell = *trace;

  EventScheduler scheduler;
  Network network(topology, /*default_queues=*/1);
  std::unique_ptr<BandwidthAllocator> allocator;
  switch (options.policy) {
    case PolicyKind::kBaseline:
      network.SetQueueCountEverywhere(1);
      network.SetCongestionModel(std::make_unique<FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<WfqMaxMinAllocator>();
      break;
    case PolicyKind::kSaba:
      network.SetQueueCountEverywhere(options.queues_per_port);
      network.SetCongestionModel(std::make_unique<FecnCongestionModel>(options.fecn_gamma));
      allocator = std::make_unique<WfqMaxMinAllocator>();
      break;
    case PolicyKind::kIdealMaxMin:
      network.SetCongestionModel(std::make_unique<IdealCongestionModel>());
      allocator = std::make_unique<PerAppWfqAllocator>();
      break;
    case PolicyKind::kHoma:
    case PolicyKind::kSincronia:
      network.SetCongestionModel(std::make_unique<IdealCongestionModel>());
      allocator = std::make_unique<StrictPriorityAllocator>();
      break;
    default:
      assert(false && "policy not supported by the traced co-run");
  }

  FlowSimulator flow_sim(&scheduler, &network, allocator.get());
  flow_sim.SetCompletionQuantum(options.completion_quantum);
  flow_sim.SetSolveJobs(options.solve_jobs > 0 ? options.solve_jobs : EnvSolveJobs());

  std::unique_ptr<CentralizedController> controller;
  std::unique_ptr<HomaScheduler> homa;
  std::unique_ptr<SincroniaScheduler> sincronia;
  std::unique_ptr<AppNetworkPolicy> inner_policy;
  switch (options.policy) {
    case PolicyKind::kSaba: {
      assert(options.table != nullptr);
      ControllerOptions controller_options;
      controller_options.num_pls = options.num_pls;
      controller_options.relative_min_weight = options.relative_min_weight;
      controller_options.reserved_queues = options.reserved_queues;
      controller_options.reserved_queue_weight = options.reserved_queue_weight;
      controller_options.c_saba = options.c_saba;
      controller_options.seed = options.seed;
      controller = std::make_unique<CentralizedController>(&network, &flow_sim, options.table,
                                                           controller_options);
      inner_policy = std::make_unique<SabaClient>(controller.get());
      break;
    }
    case PolicyKind::kHoma: {
      HomaConfig config;
      config.num_priorities = options.queues_per_port;
      homa = std::make_unique<HomaScheduler>(&flow_sim, config);
      inner_policy = std::make_unique<NullNetworkPolicy>();
      break;
    }
    case PolicyKind::kSincronia: {
      SincroniaConfig config;
      config.num_priorities = options.queues_per_port;
      sincronia = std::make_unique<SincroniaScheduler>(&flow_sim, config);
      inner_policy = std::make_unique<NullNetworkPolicy>();
      break;
    }
    default:
      inner_policy = std::make_unique<NullNetworkPolicy>();
      break;
  }
  // Only Saba's client reaches the controller; other policies are no-ops.
  TimedPolicy timed(inner_policy.get(), &clock, &cell);
  AppNetworkPolicy* policy = controller != nullptr ? &timed : inner_policy.get();

  // Homa and Sincronia own the pre-allocate hook; elsewhere it marks the
  // boundary between the all-flow drain and the engine solve.
  const bool split = homa == nullptr && sincronia == nullptr;
  double hook_at = -1;
  if (split) {
    flow_sim.SetPreAllocateHook([&clock, &hook_at] { hook_at = clock.ElapsedSeconds(); });
  }

  CoRunResult result;
  result.completion_seconds.assign(jobs.size(), -1);
  std::vector<std::unique_ptr<Application>> apps;
  apps.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    apps.push_back(std::make_unique<Application>(&scheduler, &flow_sim, jobs[j].spec,
                                                 jobs[j].hosts, static_cast<AppId>(j), policy));
  }
  for (size_t j = 0; j < jobs.size(); ++j) {
    Application* app = apps[j].get();
    scheduler.ScheduleAt(jobs[j].start_at, [app, &result, j] {
      app->Start([&result, j](AppId, SimTime completion) {
        result.completion_seconds[j] = completion;
      });
    });
  }
  // Construction spans are charged to the assembly, not to an event.
  cell.assemble_s = clock.ElapsedSeconds() - timed.nested_s;

  const double no_calc = 0;
  const double* calc_wall =
      controller != nullptr ? &controller->stats().total_calc_wall_seconds : &no_calc;
  while (true) {
    const uint64_t runs0 = flow_sim.allocator_runs();
    const uint64_t done0 = flow_sim.completed_flow_count();
    const double calc0 = *calc_wall;
    timed.nested_s = 0;
    hook_at = -1;
    const double t0 = clock.ElapsedSeconds();
    if (!scheduler.Step()) {
      break;
    }
    const double t1 = clock.ElapsedSeconds();
    const double self = (t1 - t0) - timed.nested_s;
    if (flow_sim.allocator_runs() != runs0) {
      ++cell.realloc_n;
      cell.realloc_s += self;
      if (hook_at >= 0) {
        ++cell.split_n;
        cell.sync_s += hook_at - t0;
        cell.solve_s += t1 - hook_at;
      }
    } else if (flow_sim.completed_flow_count() != done0) {
      ++cell.tick_n;
      cell.tick_s += self;
    } else if (*calc_wall != calc0) {
      ++cell.flush_n;
      cell.flush_s += self;
    } else {
      cell.workload_s += self;
    }
  }
  *loop_end = clock.ElapsedSeconds();

  for (double t : result.completion_seconds) {
    assert(t > 0 && "all jobs must complete");
    (void)t;
  }
  if (controller != nullptr) {
    result.controller_stats = controller->stats();
  }
  result.allocator_runs = flow_sim.allocator_runs();
  result.engine_stats = flow_sim.engine_stats();
  result.rerouted_flows = flow_sim.rerouted_flow_count();
  result.makespan = scheduler.Now();

  cell.events = scheduler.dispatched_count();
  cell.flows_rerated = result.engine_stats.flows_rerated;
  cell.flows_frozen = result.engine_stats.flows_frozen;
  cell.full_recomputes = result.engine_stats.full_recomputes;
  cell.port_reconfigs = result.controller_stats.port_reconfigurations;
  cell.eq2_hits = result.controller_stats.eq2_cache_hits;
  cell.eq2_misses = result.controller_stats.eq2_cache_misses;
  return result;
}

}  // namespace

CoRunResult TracedCoRun(const Topology& topology, const std::vector<JobSpec>& jobs,
                        const CoRunOptions& options, LayerTrace* trace) {
  const Stopwatch clock;
  LayerTrace cell;
  double loop_end = 0;
  CoRunResult result = Simulate(topology, jobs, options, clock, &cell, &loop_end);
  // Result collection and teardown after the last event are assembly work too.
  cell.traced_wall_s = clock.ElapsedSeconds();
  cell.assemble_s += cell.traced_wall_s - loop_end;
  trace->Add(cell);
  return result;
}

}  // namespace saba
