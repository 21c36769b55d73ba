// Fluid bandwidth allocation over the fabric.
//
// The simulator is flow-level: instead of packets, each active flow has an
// instantaneous rate, recomputed whenever the set of flows (or the switch
// configuration) changes. A BandwidthAllocator is a queue discipline plus,
// for per-application queues, a weight function. Three disciplines exist:
//
//  * kWfqSlQueues (WfqMaxMinAllocator) — weighted max-min across per-port
//    queues, matching the WFQ/WRR scheduling of InfiniBand switches (§5.2).
//    A flow's weight at a link is queue_weight / flows_in_that_queue; rates
//    are computed by weighted progressive filling: all flows grow
//    proportionally to their path-wide minimum weight until a link
//    saturates, whose flows then freeze at their share, and so on. The
//    allocation is work-conserving and every flow ends up bottlenecked at
//    some saturated link. (The per-flow weight is fixed at the start of each
//    allocation — the classical approximation used by fluid simulators;
//    per-queue shares at a single bottleneck are exact.)
//
//  * kStrictPriority (StrictPriorityAllocator) — serves priority classes in
//    order (class 0 first), giving each class a max-min allocation of the
//    capacity left by higher classes. Used by the Homa-like and
//    Sincronia-like baselines.
//
//  * kPerAppQueues (PerAppWfqAllocator) — one virtual queue per application
//    at every port; see PerAppWfqAllocator below.
//
// Capacity efficiency: each queue's share is scaled by the Network's
// CongestionModel according to how many distinct applications share the
// queue at that link (see network.h for the rationale).
//
// Both entry points run the shared allocation core
// (src/net/allocation_engine.{h,cc}): Allocate() recomputes everything from
// scratch, while CreateEngine() yields a stateful AllocationEngine that keeps
// the resource graph alive between events and re-solves only the components
// touched by deltas. Both paths run the same component solver, so their
// rates are bit-identical.

#ifndef SRC_NET_ALLOCATOR_H_
#define SRC_NET_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/net/units.h"

namespace saba {

using FlowId = int64_t;
using AppId = int32_t;

inline constexpr FlowId kInvalidFlow = -1;
inline constexpr AppId kInvalidApp = -1;

// A flow currently in the fabric, as seen by the allocator.
//
// While a flow is registered with an AllocationEngine, its path, app, sl,
// priority and intra_weight form its flow-class key (allocation_engine.h).
// Change sl, priority or intra_weight only together with a FlowQueueChanged
// call, and app or path only by FlowRemoved + FlowAdded. The engine asserts
// that every flow it re-rates still matches its class key.
struct ActiveFlow {
  FlowId id = kInvalidFlow;
  AppId app = kInvalidApp;
  // Service level carried in the flow's packets; ports map it to a queue.
  int sl = 0;
  // Priority class for StrictPriorityAllocator (lower value = served first).
  // Policies (Homa, Sincronia) maintain this; WFQ ignores it.
  int priority = 0;
  // Relative share of the flow within its queue (and class): normal traffic
  // is 1.0; subordinate traffic (an application's own opportunistic
  // prefetch) uses a small value so it yields to critical flows wherever
  // they contend, while still soaking up idle capacity.
  double intra_weight = 1.0;
  double remaining_bits = 0;
  // Path of the flow (non-empty; set by the flow simulator at start time).
  const std::vector<LinkId>* path = nullptr;
  // Output: instantaneous rate in fixed-point bits/s, written by Allocate().
  // Integer by design: rates come out of the integer water-fill exactly
  // (units.h), and consumers convert to double only at the fluid boundary.
  Bps64 rate = 0;
  // Engine-owned registry position while the flow is registered with an
  // AllocationEngine: the index of its class record and its slot in that
  // class's member list; -1 when unregistered. Only the engine writes them.
  int32_t engine_class = -1;
  int32_t engine_member = -1;
};

// Queue discipline a BandwidthAllocator (or AllocationEngine) solves under.
enum class AllocationDiscipline {
  kWfqSlQueues,     // Port SL->queue map + configured WFQ weights.
  kPerAppQueues,    // One virtual queue per application at every port.
  kStrictPriority,  // Priority classes served in order (class 0 first).
};

// Weight of application `app` at port `link` for kPerAppQueues; must be > 0.
using PerAppWeightFn = std::function<double(LinkId, AppId)>;

class AllocationEngine;

class BandwidthAllocator {
 public:
  explicit BandwidthAllocator(AllocationDiscipline discipline,
                              PerAppWeightFn per_app_weights = nullptr)
      : discipline_(discipline), per_app_weights_(std::move(per_app_weights)) {}
  // Virtual so the named disciplines below can be owned through a
  // unique_ptr<BandwidthAllocator>.
  virtual ~BandwidthAllocator() = default;

  // Computes rates for all flows; writes ActiveFlow::rate. All flows must
  // have non-empty paths, remaining_bits > 0, and unique ids.
  void Allocate(const std::vector<ActiveFlow*>& flows, const Network& net) const;

  // A stateful engine solving the same discipline incrementally. `net` must
  // outlive the engine (see allocation_engine.h).
  std::unique_ptr<AllocationEngine> CreateEngine(const Network* net) const;

 private:
  AllocationDiscipline discipline_;
  PerAppWeightFn per_app_weights_;
};

// Named constructors for the three disciplines (see the file comment).
class WfqMaxMinAllocator : public BandwidthAllocator {
 public:
  WfqMaxMinAllocator() : BandwidthAllocator(AllocationDiscipline::kWfqSlQueues) {}
};

class StrictPriorityAllocator : public BandwidthAllocator {
 public:
  StrictPriorityAllocator() : BandwidthAllocator(AllocationDiscipline::kStrictPriority) {}
};

// WFQ where every application gets its own (virtual) queue at every port,
// regardless of SL maps and port queue counts — the "unlimited queues"
// idealization. With the default unit weights this is the paper's *ideal
// max-min fairness* (study 4: "each workload is assigned to a dedicated
// queue" served round-robin); with a weight function it is Saba's
// upper-bound configuration in Fig 11b. Congestion efficiency is ideal
// (queues are app-pure by construction).
class PerAppWfqAllocator : public BandwidthAllocator {
 public:
  // Null `weights` means unit weight for every application (ideal max-min).
  explicit PerAppWfqAllocator(PerAppWeightFn weights = nullptr)
      : BandwidthAllocator(AllocationDiscipline::kPerAppQueues, std::move(weights)) {}
};

}  // namespace saba

#endif  // SRC_NET_ALLOCATOR_H_
