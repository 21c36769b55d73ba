// Traced twin of saba::RunCoRun for the end-to-end benchmark.
//
// RunCoRun drives EventScheduler::Run() internally, so per-layer attribution
// needs a copy of its wiring that steps the scheduler itself. TracedCoRun
// builds the same network, allocator, policy machinery and applications as
// RunCoRun (for the policies the benchmark runs; no failure schedule), then
// loops on Step() with a Stopwatch read around each event. Each event is
// classified by the public counters it moved:
//
//   allocator_runs() changed            -> net reallocation (sync/solve split
//                                          at the pre-allocate hook when the
//                                          policy leaves the hook free)
//   completed_flow_count() changed      -> net completion tick
//   controller calc wall time changed   -> core flush
//   anything else                       -> workload event
//
// SabaClient is wrapped in an AppNetworkPolicy decorator that times the
// registration and connection RPCs (core.register_s, core.conn_s); a
// decorator span is subtracted from the event that contains it, so every
// figure is a self time. The simulated outputs must be bit-identical to
// RunCoRun's; the benchmark checks that on every traced cell.

#ifndef E2EBENCH_TRACED_CORUN_H_
#define E2EBENCH_TRACED_CORUN_H_

#include <cstdint>
#include <vector>

#include "src/exp/corun.h"
#include "src/net/topology.h"

namespace saba {

// Host-time self times (seconds) and layer counters of one or more traced
// cells. Counters read from the simulator are deterministic per seed.
struct LayerTrace {
  uint64_t events = 0;           // sim.events: events dispatched.
  double assemble_s = 0;         // exp: building the co-run before the first event.
  uint64_t realloc_n = 0;        // net.realloc.n
  double realloc_s = 0;          // net.realloc_s (self time, includes sync + solve)
  uint64_t split_n = 0;          // Reallocations with a sync/solve split.
  double sync_s = 0;             // net.sync_s: event start -> pre-allocate hook.
  double solve_s = 0;            // net.solve_s: hook -> event end.
  uint64_t tick_n = 0;
  double tick_s = 0;             // net.tick_s
  uint64_t flush_n = 0;          // core.flush.n
  double flush_s = 0;            // core.flush_s
  uint64_t conn_n = 0;
  double conn_s = 0;             // core.conn_s
  uint64_t register_n = 0;
  double register_s = 0;         // core.register_s (register + deregister)
  double workload_s = 0;         // workload.event_s
  double traced_wall_s = 0;      // Host time of the traced cell(s).
  // Simulator counters.
  uint64_t flows_rerated = 0;
  uint64_t flows_frozen = 0;
  uint64_t full_recomputes = 0;
  uint64_t port_reconfigs = 0;
  uint64_t eq2_hits = 0;
  uint64_t eq2_misses = 0;
  uint64_t ports_flushed = 0;
  uint64_t parallel_flushes = 0;

  // Sum of every self time: the part of traced_wall_s the trace explains.
  double SelfTotal() const;
  void Add(const LayerTrace& other);
};

// Runs `jobs` exactly as RunCoRun(topology, jobs, options) would, stepping
// the scheduler and attributing host time per event into `*trace`. Supports
// kBaseline, kSaba, kIdealMaxMin, kHoma and kSincronia with no failures.
CoRunResult TracedCoRun(const Topology& topology, const std::vector<JobSpec>& jobs,
                        const CoRunOptions& options, LayerTrace* trace);

}  // namespace saba

#endif  // E2EBENCH_TRACED_CORUN_H_
