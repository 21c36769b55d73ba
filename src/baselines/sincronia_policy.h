// Sincronia-like baseline (paper §8.4, study 6).
//
// Sincronia schedules *coflows* — the set of related flows an application
// stage produces — by computing a total order with the Bottleneck-Select-
// Scale-Iterate (BSSI) primal-dual greedy and assigning flow priorities from
// the order; a priority-enabled transport enforces the rates. It is
// clairvoyant (assumes flow sizes are known a priori) and optimizes coflow
// completion time, not application completion time — which is exactly the
// contrast the paper draws with Saba.
//
// Here a coflow is an application's in-flight flow set. Before every
// allocation the policy recomputes the BSSI order over remaining demands and
// maps order positions onto the available strict-priority classes.

#ifndef SRC_BASELINES_SINCRONIA_POLICY_H_
#define SRC_BASELINES_SINCRONIA_POLICY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/net/flow_simulator.h"

namespace saba {

struct SincroniaConfig {
  // Priority classes available in the fabric (8 in the paper's setups).
  int num_priorities = 8;
};

// One coflow's per-port demand: the input format of ComputeBssiOrder.
struct CoflowDemand {
  AppId app = kInvalidApp;
  // Port (link) -> total remaining bits the coflow must push through it. An
  // entry with zero bits still makes the port present (see BssiSolver).
  std::map<LinkId, double> port_demand;
};

// Dense BSSI core. Each port has a column of (coflow index, demand) entries,
// kept in ascending coflow index, and each coflow a row of the ports it has
// an entry on.
//
// Greedy from the back: repeatedly find the most-bottlenecked port (largest
// total unplaced demand, lowest LinkId on ties), place the unplaced coflow
// with the largest demand on it *last* (larger app id on ties), and scale the
// other coflows' demands on that port down by max(0, v - d*v/worst). This is
// Sincronia's 4-approximation ordering specialized to unit coflow weights.
//
// Exact by construction: a port's total is re-summed from 0.0 over its
// unplaced entries in ascending coflow index — the same additions, in the
// same order, as rebuilding every total from scratch each slot. A placement
// changes only the columns of the chosen coflow's ports (the scaled
// bottleneck is one of them), so only those are re-summed; every other total
// stays equal bit for bit. A port with no unplaced entry is absent (never the
// bottleneck), not zero. Ports may be added in any order: the bottleneck is
// the maximum of (total, -LinkId), whichever order the scan visits them in.
class BssiSolver {
 public:
  // Starts an empty instance, keeping the capacity of the previous one.
  void Reset();

  // Appends a coflow and returns its index. Coflow indices order the
  // summation, so callers add coflows in their canonical order.
  uint32_t AddCoflow(AppId app);

  // Appends a port for `link` (distinct from every port added since Reset)
  // and returns its index.
  uint32_t AddPort(LinkId link);

  // Adds `bits` to coflow `coflow`'s demand on `port`, creating the entry
  // (at 0.0) on first use. Repeated calls accumulate in call order.
  void AddDemand(uint32_t coflow, uint32_t port, double bits);

  // Runs BSSI. Returns coflow indices, result[0] scheduled first (highest
  // priority). Consumes the demands; Reset before the next instance.
  const std::vector<uint32_t>& Solve();

  AppId app(uint32_t coflow) const { return apps_[coflow]; }
  size_t num_coflows() const { return apps_.size(); }
  LinkId port_link(uint32_t port) const { return links_[port]; }
  size_t num_ports() const { return links_.size(); }

 private:
  struct Entry {
    uint32_t coflow;
    double demand;
  };

  // Recomputes total_[port] from the port's column.
  void Resum(uint32_t port);

  // Per port. Columns past num_ports() are spare capacity.
  std::vector<LinkId> links_;
  std::vector<std::vector<Entry>> columns_;
  std::vector<double> total_;  // -inf while absent.
  // Per coflow.
  std::vector<AppId> apps_;
  std::vector<std::vector<uint32_t>> rows_;
  std::vector<char> placed_;
  std::vector<double> at_bottleneck_;
  std::vector<uint32_t> order_;
};

// Computes the BSSI order over `coflows` (indexed in input order) with
// BssiSolver: result[0] is scheduled first (highest priority).
std::vector<AppId> ComputeBssiOrder(const std::vector<CoflowDemand>& coflows);

class SincroniaScheduler {
 public:
  SincroniaScheduler(FlowSimulator* flow_sim, SincroniaConfig config = {});

 private:
  void RefreshPriorities();

  FlowSimulator* flow_sim_;
  SincroniaConfig config_;

  // Refresh scratch, reused across refreshes. Coflows are the apps with
  // active flows and ports the links they cross, both indexed in order of
  // first appearance in the ascending-id flow walk.
  BssiSolver solver_;
  std::vector<uint32_t> app_coflow_;  // AppId -> coflow index; UINT32_MAX if none.
  std::vector<uint32_t> link_port_;   // LinkId -> port index; UINT32_MAX if none.
  std::vector<int> coflow_priority_;  // Coflow index -> priority class.
};

}  // namespace saba

#endif  // SRC_BASELINES_SINCRONIA_POLICY_H_
