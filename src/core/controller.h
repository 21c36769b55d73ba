// Saba's controller (paper §5): tracks registered applications and their
// connections, solves the per-port weight problem (Eq 2), maps applications
// to PLs and PLs to queues (hierarchy walk), and programs the switches'
// SL-to-VL tables and VL weights.
//
// ControllerInterface mirrors the RPC surface the Saba library calls (Fig 7):
// app_register / conn_create / conn_destroy / app_deregister.
//
// One class serves both of the paper's deployments, told apart by two inputs:
// - PL source: K-means over the live applications, re-run on every register
//   and deregister; or, given the profiler's offline MappingDatabase (§5.4),
//   a static lookup with no re-clustering.
// - Shards: Eq 2 is independent per port, so the ports split over
//   `num_shards` shards by owning switch, each with its own solve context,
//   and a flush runs the per-shard batches on `shard_jobs` workers. One
//   shard is the serial ascending-link walk the other layouts are tested
//   against: neither count changes programmed state or merged counters
//   (DESIGN.md §7.3).

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/pl_mapper.h"
#include "src/core/queue_mapper.h"
#include "src/core/sensitivity.h"
#include "src/core/solve_cache.h"
#include "src/core/weight_solver.h"
#include "src/net/flow_simulator.h"
#include "src/net/network.h"
#include "src/sim/rng.h"
#include "src/sim/worker_pool.h"

namespace saba {

class ControllerInterface {
 public:
  virtual ~ControllerInterface() = default;

  // Registers a Saba-compliant application; returns its assigned PL (== the
  // Service Level its connections must carry).
  virtual int AppRegister(AppId app, const std::string& workload_name) = 0;

  // Announces a connection. `path_salt` must match the salt the transport
  // uses so the controller resolves the same path (the real controller reads
  // the fabric's forwarding tables, §7.2).
  virtual void ConnCreate(AppId app, NodeId src, NodeId dst, uint64_t path_salt) = 0;
  virtual void ConnDestroy(AppId app, NodeId src, NodeId dst, uint64_t path_salt) = 0;

  virtual void AppDeregister(AppId app) = 0;

  // The application's current PL (PLs move when the controller re-clusters).
  virtual int CurrentServiceLevel(AppId app) const = 0;
};

struct ControllerOptions {
  // Number of priority levels used for Saba traffic. The testbed reserves 8
  // VLs of the switch's 9 (§8.1); InfiniBand's ceiling is 16.
  int num_pls = 8;
  // C_saba: fraction of each link managed by Saba (1.0 in all experiments).
  double c_saba = 1.0;
  // Weight floor per application at a port (absolute and relative to the
  // equal share; see WeightSolverOptions).
  double min_weight = 0.01;
  double relative_min_weight = 0.75;
  // Non-Saba co-existence (§3): the operator may statically reserve the
  // *last* `reserved_queues` queues of every port for non-compliant traffic
  // (control services, latency-critical RPCs). Saba never remaps them; SLs
  // not assigned to Saba PLs stay pointed at the first reserved queue, and
  // each reserved queue keeps `reserved_queue_weight` of scheduling weight.
  // With reservations the operator normally also sets c_saba < 1.
  int reserved_queues = 0;
  double reserved_queue_weight = 0.1;
  // Control-plane latency: delay between a library notification and the
  // switch configuration taking effect (RPC + switch programming time).
  // 0 applies reconfigurations within the same simulated instant.
  double control_plane_latency_seconds = 0;
  // Signature-keyed memoization of Eq-2 solves and PL-to-queue mappings
  // (DESIGN.md §7.2). Off is for A/B testing only — results are bit-identical
  // either way (the solve is a pure function of the port's app-mix
  // signature); the cache just skips re-deriving them.
  bool solve_cache = true;
  uint64_t seed = 7;
};

// Everything one flush worker needs to reallocate ports independently: a
// shard's Eq-2 solve cache and queue-map memo, per-call scratch arenas and
// flush-local stat counters. One per shard, touched by at most one
// WorkerPool task per flush (DESIGN.md §7.3).
struct PortSolveContext {
  explicit PortSolveContext(bool cache_enabled) : cache(cache_enabled) {}

  // Memoized Eq-2 solves keyed by app-mix signature (DESIGN.md §7.2).
  // Persists across re-clusterings: entries are keyed by the full solver
  // input, so they can never go stale.
  Eq2SolveCache cache;
  std::optional<QueueMapper> mapper;

  // Stat deltas local to the current flush; the flush drains them into
  // ControllerStats in ascending shard order after workers join, so the
  // totals never depend on scheduling.
  uint64_t reconfigurations = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // ReallocatePort scratch, reused across calls to avoid reallocation.
  std::vector<AppId> ids;
  std::vector<const SensitivityModel*> models;
  std::vector<int> app_pls;
  PortSignature sig;
  std::vector<SensitivityModel> canonical_models;
  std::vector<double> uncached_weights;
  std::vector<int> present_pls;
  std::vector<double> queue_weights;
};

struct ControllerStats {
  uint64_t registrations = 0;
  uint64_t deregistrations = 0;
  uint64_t conn_creates = 0;
  uint64_t conn_destroys = 0;
  uint64_t port_reconfigurations = 0;
  uint64_t pl_reclusterings = 0;
  // Eq-2 solve cache traffic: hits are reconfigured ports whose app-mix
  // signature was already solved; misses are distinct solves actually run.
  uint64_t eq2_cache_hits = 0;
  uint64_t eq2_cache_misses = 0;
  // Flush accounting, invariant across num_shards and shard_jobs except
  // `parallel_flushes` (flushes dispatched to the pool): 0 at one shard or
  // one job, and the same for every shard_jobs > 1.
  uint64_t flushes = 0;
  uint64_t parallel_flushes = 0;
  uint64_t ports_flushed = 0;
  // Shard messages (§5.4), counted only with more than one shard: setups
  // per shard owning the path's first port, and one forward per shard
  // boundary the path crosses.
  std::vector<uint64_t> conn_setups_per_shard;
  uint64_t cross_shard_messages = 0;
  // Wall-clock cost of weight calculations (Eq 2 solves), for Fig 12.
  double total_calc_wall_seconds = 0;
  double last_calc_wall_seconds = 0;
};

// Declared in src/core/distributed_controller.h.
struct MappingDatabase;
struct DistributedControllerOptions;

class CentralizedController : public ControllerInterface {
 public:
  // One shard; PLs re-clustered by K-means on every register and deregister.
  // `flow_sim` may be null for offline/what-if use (no live retagging).
  CentralizedController(Network* network, FlowSimulator* flow_sim,
                        const SensitivityTable* table, ControllerOptions options = {});
  // PLs from the offline `database` (§5.4), ports split over
  // `options.num_shards` shards flushed by `options.shard_jobs` workers.
  CentralizedController(Network* network, FlowSimulator* flow_sim,
                        const SensitivityTable* table, MappingDatabase database,
                        DistributedControllerOptions options);
  ~CentralizedController() override;

  int AppRegister(AppId app, const std::string& workload_name) override;
  void ConnCreate(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override;
  void ConnDestroy(AppId app, NodeId src, NodeId dst, uint64_t path_salt) override;
  void AppDeregister(AppId app) override;
  int CurrentServiceLevel(AppId app) const override;

  const ControllerStats& stats() const { return stats_; }
  // The same counters under the name e2ebench reads.
  const ControllerStats& distributed_stats() const { return stats_; }

  // Recomputes every port currently carrying Saba connections and returns
  // the wall-clock seconds spent — the Fig 12 "calculation time".
  double RecomputeAllPortsTimed();

  // The last solved weight of `app` at port `link` (its Eq-2 share before
  // queue grouping), or 0 if the app has no flows there. Feeds the
  // PerAppWfqAllocator in the unlimited-queues configuration (Fig 11b).
  double AppWeightAtPort(LinkId link, AppId app) const;

  // FNV fingerprint of everything the controller programmed: per-port SL
  // tables, queue weights, and solved per-app weights, in ascending link
  // order. A pure function of the call history, not of the solve cache or
  // the shard count.
  uint64_t StateDigest() const;

  size_t registered_app_count() const { return apps_.size(); }

 protected:
  // Per port: last solved per-application weights, sorted by AppId (a flat
  // vector: rebuilt wholesale on every reallocation). Protected, like
  // shard_ctxs_, so test and benchmark probes can compare it.
  // saba-lint: unordered-iter-ok(lookup-only: find/erase/rebuild, never iterated)
  std::unordered_map<LinkId, std::vector<std::pair<AppId, double>>> port_weights_;
  std::vector<PortSolveContext> shard_ctxs_;  // One per shard.

 private:
  struct AppState {
    SensitivityModel model;
    int pl = 0;
    int connections = 0;
  };

  // Flushes of fewer dirty ports run on the caller thread even with
  // shard_jobs > 1: pool dispatch would dwarf a handful of warm-cache port
  // solves (the adaptive fallback of DESIGN.md §7.3).
  static constexpr size_t kMinParallelFlushPorts = 64;

  CentralizedController(Network* network, FlowSimulator* flow_sim,
                        const SensitivityTable* table, ControllerOptions options,
                        std::unique_ptr<const MappingDatabase> database, int num_shards,
                        int shard_jobs);

  // Re-runs application-to-PL K-means and rebuilds the PL hierarchy; retags
  // live flows; refreshes every active port. Only without a database.
  void ReclusterPls();

  // Solves Eq 2 for the applications at `link` and programs the port, using
  // `ctx`'s cache, mapper, and scratch. Thread-compatible as long as each
  // concurrent caller owns a distinct ctx and a disjoint set of links, and
  // finds its port_weights_ slot pre-created (see FlushDirtyPorts).
  void ReallocatePort(LinkId link, PortSolveContext* ctx);

  // Marks ports for recomputation. With a live flow simulator the flush is
  // coalesced to the end of the current simulated instant (a burst of
  // conn_create calls — e.g. a whole job starting — costs one recompute per
  // port); offline it is synchronous.
  void MarkPortsDirty(const std::vector<LinkId>& links);
  // Reallocates the dirty ports, each shard's batch in ascending link order
  // with that shard's solve context, and clears the dirty set.
  void FlushDirtyPorts();

  // The shard owning a port: the src node for switch egress, the dst switch
  // for host NIC egress (the NIC is configured via its ToR's manager).
  int ShardOfPort(LinkId link) const;

  Network* network_;
  FlowSimulator* flow_sim_;
  const SensitivityTable* table_;
  ControllerOptions options_;
  std::unique_ptr<const MappingDatabase> database_;  // Null: K-means PLs.
  int num_shards_;
  int shard_jobs_;
  WeightSolver solver_;
  Rng rng_;
  ControllerStats stats_;

  std::map<AppId, AppState> apps_;
  // Per port: connection count per application. Iterated only to harvest
  // keys, which are always sorted (directly or via dirty_ports_) before any
  // order-sensitive use; solves are keyed by signature, not visit order.
  // saba-lint: unordered-iter-ok(keys sorted before every order-sensitive use)
  std::unordered_map<LinkId, std::map<AppId, int>> port_apps_;
  // Path each live connection was accounted under, keyed by the connection
  // tuple (LIFO per tuple for duplicates), so ConnDestroy unwinds exactly the
  // ports ConnCreate charged even if a failure rerouted the pair in between.
  // Rerouted connections stay accounted at their create-time ports until
  // they close; the real controller polls forwarding state (§7.2).
  std::map<std::tuple<AppId, NodeId, NodeId, uint64_t>, std::vector<std::vector<LinkId>>>
      conn_paths_;
  // FlushDirtyPorts batches these per shard and sorts each batch ascending
  // before reallocating, so set order never leaks out.
  // saba-lint: unordered-iter-ok(flush sorts the links before reallocating)
  std::unordered_set<LinkId> dirty_ports_;
  std::vector<std::vector<LinkId>> shard_ports_;  // Scratch: dirty links per shard.
  std::vector<int> dirty_shards_;                 // Scratch: shards with work, ascending.
  std::unique_ptr<WorkerPool> pool_;              // Lazy; only with shard_jobs > 1.
  bool flush_scheduled_ = false;
};

}  // namespace saba

#endif  // SRC_CORE_CONTROLLER_H_
