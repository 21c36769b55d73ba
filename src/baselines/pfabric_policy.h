// pFabric-like baseline (related work, Alizadeh et al. SIGCOMM'13).
//
// pFabric attaches the flow's *remaining size* to every packet and switches
// serve the smallest-remaining packet first — idealized SRPT with an
// effectively unbounded priority space. In the fluid model this is the
// Homa-like scheduler without the 10 KB cutoff: remaining sizes map onto a
// fine-grained geometric class ladder, so a 1 MB flow preempts a 1 GB flow
// (which Homa's shared bottom class cannot express). Like Homa and
// Sincronia, it optimizes flow-level metrics and is application-agnostic —
// the contrast Saba draws in §9.

#ifndef SRC_BASELINES_PFABRIC_POLICY_H_
#define SRC_BASELINES_PFABRIC_POLICY_H_

#include "src/net/flow_simulator.h"

namespace saba {

struct PFabricConfig {
  // Priority classes emulating the "unbounded" priority space: geometric
  // size buckets spanning `min_bits` .. `max_bits`.
  int num_priorities = 32;
  double min_bits = 8.0 * 1500;   // One MTU.
  double max_bits = 8e12;         // 1 TB — everything real is inside.
};

class PFabricScheduler {
 public:
  PFabricScheduler(FlowSimulator* flow_sim, PFabricConfig config = {});

  // Priority class for a flow with `remaining_bits` left: class 0 (served
  // first) for the smallest flows, growing geometrically. Total: non-positive
  // and NaN sizes map to class 0, +inf to the last class.
  int PriorityFor(double remaining_bits) const;

 private:
  void RefreshPriorities();

  FlowSimulator* flow_sim_;
  PFabricConfig config_;
  double log_min_ = 0;
  double log_range_ = 1;
};

}  // namespace saba

#endif  // SRC_BASELINES_PFABRIC_POLICY_H_
