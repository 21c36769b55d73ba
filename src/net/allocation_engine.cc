#include "src/net/allocation_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "src/sim/worker_pool.h"

namespace saba {

// -----------------------------------------------------------------------------
// Shared allocation core. The fluid WFQ allocation is a *nested* max-min:
//   level 1: each egress port's capacity is split across its backlogged
//            queues in proportion to the configured weights (WFQ);
//   level 2: inside a queue, backlogged flows share the queue's allocation
//            max-min fairly, weighted by ActiveFlow::intra_weight.
//
// We model every (link, queue) pair that carries flows as a *virtual
// resource* with its own capacity, run weighted progressive filling over
// those resources (each flow has ONE scalar weight — its intra weight — so
// the filling is exact weighted max-min over the resources), and then
// redistribute the capacity that under-demanding queues left unused to the
// queues that were actually constrained, iterating toward the
// work-conserving fixed point. Each round either finds no slack or strictly
// grows some binding queue's capacity, but the rounds are capped at
// kMaxRounds = 4 and the fill of the last one stands: on BM_ChurnStar's FECN
// star every solve reaches the cap, so there the result can be short of the
// fixed point. Whether to raise, drop or replace the cap is decided under
// ROADMAP item 3.
//
// All of it is fixed-point integer arithmetic (units.h): capacities and rates
// are Bps64, weights live on the WeightUnits grid, water levels are exact
// rationals, and frozen rates are 128-bit-exact floors. The result is a pure
// function of the *multiset* of flows in a component — no summation order,
// iteration order, or heap tie-break can change a single bit (DESIGN.md
// §7.1). That arithmetic exactness, not ordering discipline, is what makes
// the incremental engine bit-identical to a from-scratch run, and what makes
// component-*parallel* solving exact (DESIGN.md §7.3): a component's solve
// reads only the shared immutable Network and its own flows and scratch
// arena, so fanning components across worker slots cannot change anything.
//
// The unit the solvers work on is a flow class with multiplicity m (see the
// header): each aggregate weighs a class by m (a resource's weight sum gains
// m·w, its flow count m, a freeze claims m·rate), and the class rate is
// written to every member at the end. AllocateFromScratch passes each flow as
// its own class (m = 1), so the engine's m > 1 arithmetic is tested against
// the per-flow arithmetic of the same solver.
//
// The scratch types below are file-local implementation details; they live at
// namespace (not anonymous) scope only because EngineSolveState — forward-
// declared in the header so the engine can own one — aggregates them.
// -----------------------------------------------------------------------------

// One flow class: the registered flows with the same path (by content), app,
// SL, priority and quantized intra weight. The solvers read the key and the
// multiplicity m = members.size(), and write `rate`, which SolveComponent
// then copies to every member. In the engine each member's engine_member is
// its index in `members`.
struct FlowClass {
  // What a solve reads and writes comes first, so it shares a cache line.
  // `path` is borrowed from a member: every member's path has the same
  // content, and the engine re-borrows from another member when this one
  // leaves.
  const std::vector<LinkId>* path = nullptr;
  AppId app = kInvalidApp;
  int sl = 0;
  int priority = 0;
  int64_t weight_units = 0;  // WeightUnits(intra_weight).
  Bps64 rate = 0;            // Solve output.
  std::vector<ActiveFlow*> members;
  uint64_t hash = 0;  // Of the whole key; the engine's index probes by it.
  std::vector<int32_t> link_slots;  // Engine only: per hop, its index in that link's list.

  int32_t multiplicity() const { return static_cast<int32_t>(members.size()); }

  // The scalar part of the key; paths are fixed between FlowAdded and
  // FlowRemoved, so only these fields can drift from a member.
  bool ScalarKeyMatches(const ActiveFlow& flow, int64_t flow_weight_units) const {
    return flow.app == app && flow.sl == sl && flow.priority == priority &&
           flow_weight_units == weight_units;
  }
};

// Working state for one virtual resource (a queue on a link). Flow sums and
// counts weigh each class by its multiplicity.
struct ResourceWork {
  Bps64 capacity = 0;       // Goodput available to this queue at this link.
  Bps64 remaining = 0;      // Capacity not yet claimed by frozen flows.
  int64_t weight_units = 0; // Configured WFQ weight of the queue (WeightUnits).
  int64_t denom0 = 0;       // Sum of member flows' intra weight units.
  int64_t denom = 0;        // ... restricted to still-active flows (per fill).
  int32_t active0 = 0;      // Member flow count.
  int32_t active = 0;       // Still-active flow count (per fill).
  int32_t num_apps = 0;     // Distinct apps among member flows.
  double efficiency = 1.0;  // Congestion-model efficiency of the queue.
  bool binding = false;     // Some flow froze *at* this resource in the fill.
};

// One lazy min-heap entry: the resource's water level remaining/denom as it
// was when pushed. Levels only rise during a fill, so a popped entry whose
// stored level no longer matches the resource is simply stale — re-push at
// the current level. Exactly one live entry exists per active resource.
struct LevelHeapEntry {
  Bps64 num = 0;      // remaining at push time (>= 0).
  int64_t den = 1;    // denom at push time (> 0).
  int32_t resource = 0;
};

// Maps LinkId -> dense slot, reusing storage across calls.
class LinkSlotMap {
 public:
  void Prepare(size_t num_links) {
    if (slots_.size() < num_links) {
      slots_.assign(num_links, -1);
    }
  }

  int SlotFor(LinkId link, bool* inserted) {
    int32_t& slot = slots_[static_cast<size_t>(link)];
    *inserted = slot < 0;
    if (slot < 0) {
      slot = next_++;
      touched_.push_back(link);
    }
    return slot;
  }

  int At(LinkId link) const { return slots_[static_cast<size_t>(link)]; }

  void Reset() {
    for (LinkId link : touched_) {
      slots_[static_cast<size_t>(link)] = -1;
    }
    touched_.clear();
    next_ = 0;
  }

 private:
  std::vector<int32_t> slots_;
  std::vector<LinkId> touched_;
  int32_t next_ = 0;
};

// Union-find over links, storage reused across calls like LinkSlotMap.
class LinkUnionFind {
 public:
  void Prepare(size_t num_links) {
    if (parent_.size() < num_links) {
      parent_.assign(num_links, kInvalidLink);
    }
  }

  LinkId Find(LinkId l) {
    if (parent_[static_cast<size_t>(l)] == kInvalidLink) {
      parent_[static_cast<size_t>(l)] = l;
      touched_.push_back(l);
    }
    LinkId root = l;
    while (parent_[static_cast<size_t>(root)] != root) {
      root = parent_[static_cast<size_t>(root)];
    }
    while (parent_[static_cast<size_t>(l)] != root) {
      const LinkId next = parent_[static_cast<size_t>(l)];
      parent_[static_cast<size_t>(l)] = root;
      l = next;
    }
    return root;
  }

  void Union(LinkId a, LinkId b) {
    const LinkId ra = Find(a);
    const LinkId rb = Find(b);
    if (ra != rb) {
      parent_[static_cast<size_t>(rb)] = ra;
    }
  }

  void Reset() {
    for (LinkId l : touched_) {
      parent_[static_cast<size_t>(l)] = kInvalidLink;
    }
    touched_.clear();
  }

 private:
  std::vector<LinkId> parent_;
  std::vector<LinkId> touched_;
};

// Set of (uint32, uint32) pairs, each mapped to the int32 value it was first
// inserted with: open addressing with linear probing, emptied in O(1) per
// solve by bumping a generation stamp. The nested solver's per-(class, link)
// lookups go through it: (link slot, queue key) -> resource and
// (resource, app) -> seen.
class PairIndex {
 public:
  // Empties the index.
  void Clear() {
    if (++generation_ == 0) {  // Wrapped: stale stamps could read as live.
      for (Slot& slot : slots_) {
        slot.generation = 0;
      }
      generation_ = 1;
    }
    size_ = 0;
  }

  // Returns the value mapped to (a, b), first mapping it to `value` if the
  // pair is new; *inserted says which.
  int32_t FindOrInsert(uint32_t a, uint32_t b, int32_t value, bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    for (; slots_[i].generation == generation_; i = (i + 1) & mask) {
      if (slots_[i].key == key) {
        *inserted = false;
        return slots_[i].value;
      }
    }
    slots_[i] = {key, value, generation_};
    ++size_;
    *inserted = true;
    return value;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    int32_t value = 0;
    uint32_t generation = 0;  // Live iff equal to generation_.
  };

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
    const uint32_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.generation == live) {
        bool inserted = false;
        (void)FindOrInsert(static_cast<uint32_t>(slot.key >> 32),
                           static_cast<uint32_t>(slot.key), slot.value, &inserted);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

// Per-slot solver arenas. Every piece of scratch the component solvers need
// is an explicit field here, so concurrent component solves on pool workers
// touch disjoint memory by construction (DESIGN.md §7.3) — no sharing
// assumption is left implicit in thread identity. One arena exists per worker
// slot; the serial path uses arena 0.
//
// The class <-> resource incidence is CSR-shaped and built ONCE per component
// solve (the old per-round rebuild of per-resource member vectors dominated
// the churn benches): cls_res_offset/cls_res list each class's resources,
// res_cls_offset/res_cls the transpose via counting sort.
struct ComponentScratch {
  // Incidence CSR + dense per-class weights and multiplicities.
  std::vector<int32_t> cls_res_offset;  // size n+1.
  std::vector<int32_t> cls_res;
  std::vector<int64_t> cls_weight;      // WeightUnits(intra_weight).
  std::vector<int32_t> cls_mult;        // Multiplicity m.
  std::vector<int32_t> res_cls_offset;  // size R+1.
  std::vector<int32_t> res_cls;
  std::vector<int32_t> res_fill;
  std::vector<ResourceWork> work;
  // SolveComponentNested: (link slot, queue key) -> resource, and the
  // (resource, app) pairs seen.
  PairIndex resource_of;
  PairIndex resource_apps;
  // Per link slot (SolveComponentNested).
  LinkSlotMap link_slot;
  std::vector<Bps64> link_capacity;
  std::vector<int32_t> link_crossings;  // Σ active0 over the link's resources.
  std::vector<std::vector<int32_t>> link_resources;
  // ProgressiveFillInt.
  std::vector<uint8_t> frozen;
  std::vector<LevelHeapEntry> heap;
  std::vector<int32_t> batch;
  // SolveComponentStrict.
  std::vector<FlowClass*> by_priority;
  LinkSlotMap remaining_slot;
  std::vector<Bps64> remaining;
  std::vector<FlowClass*> tier;
};

// Everything one solve needs besides the flows: per-slot arenas, the
// partition scratch, and the (lazily created) worker pool. The engine owns
// one; AllocateFromScratch keeps one per calling thread (it runs inside
// SweepRunner tasks, where thread confinement is the isolation).
struct EngineSolveState {
  int jobs = 1;                       // Solve-time worker slots (>= 1).
  std::unique_ptr<WorkerPool> pool;   // Created on the first parallel batch.
  std::vector<std::unique_ptr<ComponentScratch>> arenas;  // arenas[slot].

  // SolvePartitioned / Recompute component-batch scratch.
  LinkUnionFind uf;
  std::vector<int32_t> group_of_root;  // Per link, -1 = none.
  std::vector<LinkId> group_roots;
  std::vector<std::vector<FlowClass*>> groups;

  // AllocateFromScratch: one single-member class per flow, recycled.
  std::vector<FlowClass> flow_classes;
  std::vector<FlowClass*> flow_class_ptrs;
};

namespace {

using Int128 = __int128;

// Exact rational level comparisons by cross-multiplication. Numerators are
// capacities (< 2^63) and denominators weight sums (< 2^62), so the products
// stay inside signed 128 bits.
inline bool LevelEq(Bps64 na, int64_t da, Bps64 nb, int64_t db) {
  return static_cast<Int128>(na) * db == static_cast<Int128>(nb) * da;
}

struct LevelGreater {
  bool operator()(const LevelHeapEntry& a, const LevelHeapEntry& b) const {
    return static_cast<Int128>(a.num) * b.den > static_cast<Int128>(b.num) * a.den;
  }
};

// Weighted progressive filling over virtual resources, in exact integer
// arithmetic. Each class has a scalar weight (its quantized intra weight), a
// multiplicity m, and a CSR list of resources (one per path link); all rates
// grow in proportion to the weights until a resource saturates, whose flows
// then freeze at floor(weight * level) — classic weighted max-min.
//
// Order independence is arithmetic, not disciplinary: the minimum water level
// is a unique rational, the *batch* of resources sitting at that level is
// gathered in full before anything freezes, every frozen rate is an exact
// floor of the same rational snapshot, and all state updates are commutative
// integer sums. The execution is therefore a deterministic sequence of
// (level, batch, frozen set) values no enumeration order can perturb. A class
// is exactly its m member flows: they sit in the same resources, so the
// per-flow fill freezes all of them in one batch at the same floor and claims
// m·rate and m·w from each resource — what the class freeze claims.
//
// Caller contract: the incidence CSR, cls_weight, cls_mult, and
// work[0..num_resources) are built, with remaining=capacity, denom=denom0>0,
// active=active0>0 and binding=false. Writes classes[f]->rate for every class.
void ProgressiveFillInt(const std::vector<FlowClass*>& classes, size_t num_resources,
                        ComponentScratch* s) {
  const size_t n = classes.size();
  s->frozen.assign(n, 0);

  std::vector<LevelHeapEntry>& heap = s->heap;
  heap.clear();
  for (size_t r = 0; r < num_resources; ++r) {
    const ResourceWork& w = s->work[r];
    assert(w.active > 0 && w.denom > 0 && w.remaining >= 0);
    heap.push_back({w.remaining, w.denom, static_cast<int32_t>(r)});
  }
  std::make_heap(heap.begin(), heap.end(), LevelGreater{});

  std::vector<int32_t>& batch = s->batch;
  size_t frozen_count = 0;
  while (frozen_count < n) {
    assert(!heap.empty() && "unfrozen classes imply a live resource entry");
    std::pop_heap(heap.begin(), heap.end(), LevelGreater{});
    const LevelHeapEntry top = heap.back();
    heap.pop_back();
    ResourceWork& w0 = s->work[static_cast<size_t>(top.resource)];
    if (w0.active == 0) {
      continue;  // Drained by earlier freezes; the entry is dead.
    }
    if (!LevelEq(w0.remaining, w0.denom, top.num, top.den)) {
      // Stale: the level rose since the push. Re-push at the current level.
      heap.push_back({w0.remaining, w0.denom, top.resource});
      std::push_heap(heap.begin(), heap.end(), LevelGreater{});
      continue;
    }
    // top is fresh, so its level is the global minimum (stored levels never
    // exceed current ones). Gather EVERY resource sitting at exactly this
    // level before freezing anything: all their entries are at the heap
    // front, and the full batch is what makes the freeze set — and therefore
    // the whole fill — independent of heap tie-break order.
    const Bps64 p = w0.remaining;
    const int64_t q = w0.denom;
    batch.clear();
    batch.push_back(top.resource);
    while (!heap.empty() && LevelEq(heap.front().num, heap.front().den, p, q)) {
      std::pop_heap(heap.begin(), heap.end(), LevelGreater{});
      const LevelHeapEntry e = heap.back();
      heap.pop_back();
      ResourceWork& we = s->work[static_cast<size_t>(e.resource)];
      if (we.active == 0) {
        continue;
      }
      if (LevelEq(we.remaining, we.denom, p, q)) {
        batch.push_back(e.resource);
      } else {
        heap.push_back({we.remaining, we.denom, e.resource});
        std::push_heap(heap.begin(), heap.end(), LevelGreater{});
      }
    }
    // Within a batch the rate depends on the weight alone, and most classes
    // share one weight, so the 128-bit division runs once per weight change.
    int64_t last_weight = -1;
    Bps64 last_rate = 0;
    for (const int32_t rb : batch) {
      ResourceWork& wr = s->work[static_cast<size_t>(rb)];
      wr.binding = true;
      for (int32_t k = s->res_cls_offset[static_cast<size_t>(rb)],
                   end = s->res_cls_offset[static_cast<size_t>(rb) + 1];
           k < end; ++k) {
        const size_t f = static_cast<size_t>(s->res_cls[static_cast<size_t>(k)]);
        if (s->frozen[f]) {
          continue;
        }
        s->frozen[f] = 1;
        ++frozen_count;
        const int64_t wf = s->cls_weight[f];
        const int64_t m = s->cls_mult[f];
        // Exact floor of the weighted share at the batch level. Any equal
        // rational representation of the level gives the same floor, so it
        // does not matter which batch resource supplied (p, q).
        if (wf != last_weight) {
          last_weight = wf;
          last_rate = p > 0 ? static_cast<Bps64>(static_cast<Int128>(wf) * p / q) : 0;
        }
        const Bps64 rate = last_rate;
        classes[f]->rate = rate;
        for (int32_t j = s->cls_res_offset[f], jend = s->cls_res_offset[f + 1]; j < jend; ++j) {
          ResourceWork& wx = s->work[static_cast<size_t>(s->cls_res[static_cast<size_t>(j)])];
          wx.remaining -= m * rate;
          wx.denom -= m * wf;
          wx.active -= static_cast<int32_t>(m);
          // Frozen shares never exceed a resource's proportional claim, so
          // remaining stays >= 0 and levels are monotone non-decreasing —
          // the invariant the lazy heap relies on.
          assert(wx.remaining >= 0);
        }
      }
      assert(wr.active == 0 && "a binding resource freezes all its flows");
    }
  }
  (void)frozen_count;
}

// Builds the resource -> classes CSR (transpose of cls_res) by counting sort;
// rows hold classes, not flows. Shared by the nested and strict solvers once
// their class -> resource CSR is in place.
void FinishIncidence(size_t n, size_t num_resources, ComponentScratch* s) {
  if (s->res_cls_offset.size() < num_resources + 1) {
    s->res_cls_offset.resize(num_resources + 1);
  }
  if (s->res_fill.size() < num_resources) {
    s->res_fill.resize(num_resources);
  }
  std::fill(s->res_cls_offset.begin(),
            s->res_cls_offset.begin() + static_cast<ptrdiff_t>(num_resources) + 1, 0);
  for (const int32_t r : s->cls_res) {
    ++s->res_cls_offset[static_cast<size_t>(r) + 1];
  }
  for (size_t r = 0; r < num_resources; ++r) {
    s->res_cls_offset[r + 1] += s->res_cls_offset[r];
    s->res_fill[r] = s->res_cls_offset[r];
  }
  if (s->res_cls.size() < s->cls_res.size()) {
    s->res_cls.resize(s->cls_res.size());
  }
  for (size_t f = 0; f < n; ++f) {
    for (int32_t j = s->cls_res_offset[f], jend = s->cls_res_offset[f + 1]; j < jend; ++j) {
      const size_t r = static_cast<size_t>(s->cls_res[static_cast<size_t>(j)]);
      s->res_cls[static_cast<size_t>(s->res_fill[r]++)] = static_cast<int32_t>(f);
    }
  }
}

// Sizes the per-class dense arrays for `n` classes and clears the CSR.
void PrepareClassRows(size_t n, ComponentScratch* s) {
  if (s->cls_res_offset.size() < n + 1) {
    s->cls_res_offset.resize(n + 1);
  }
  if (s->cls_weight.size() < n) {
    s->cls_weight.resize(n);
    s->cls_mult.resize(n);
  }
  s->cls_res.clear();
}

// Floor dust threshold for redistribution at a link: integer freezes shed
// strictly less than one bit/s per (flow, resource) crossing, and every
// RoundBps crossing at most half a bit, so residuals below this are rounding
// noise, not reclaimable capacity. Value-based (capacity and crossing count),
// hence order-independent.
inline Bps64 FloorDust(Bps64 link_capacity, int32_t crossings) {
  return std::max<Bps64>(link_capacity / 1000000000, 2 * static_cast<Bps64>(crossings) + 2);
}

// Runs the redistribution rounds over the prepared component; leaves final
// rates in the classes.
void SolveNestedWfqInt(const std::vector<FlowClass*>& classes, size_t num_resources,
                       size_t num_link_slots, ComponentScratch* s) {
  // Initial capacities: WFQ shares among the queues present at each link,
  // each degraded by its own protocol efficiency. The share ratio and
  // efficiency are the only double factors in the solver; both are exact
  // functions of integer weight sums and app counts, and the product is
  // rounded once through RoundBps.
  for (size_t ls = 0; ls < num_link_slots; ++ls) {
    int64_t weight_sum = 0;
    for (const int32_t r : s->link_resources[ls]) {
      weight_sum += s->work[static_cast<size_t>(r)].weight_units;
    }
    assert(weight_sum > 0);
    for (const int32_t r : s->link_resources[ls]) {
      ResourceWork& w = s->work[static_cast<size_t>(r)];
      w.capacity = RoundBps(
          BpsToDouble(s->link_capacity[ls]) *
          (static_cast<double>(w.weight_units) / static_cast<double>(weight_sum)) * w.efficiency);
    }
  }

  // The round cap: the fill of round kMaxRounds stands even when it still
  // leaves slack to re-home (every BM_ChurnStar solve ends here; see the
  // file comment and ROADMAP item 3).
  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (size_t r = 0; r < num_resources; ++r) {
      ResourceWork& w = s->work[r];
      w.remaining = w.capacity;
      w.denom = w.denom0;
      w.active = w.active0;
      w.binding = false;
    }
    ProgressiveFillInt(classes, num_resources, s);
    if (round + 1 == kMaxRounds) {
      break;  // This fill stands.
    }

    // Work conservation: re-home each link's unused capacity to the queues
    // that were actually constrained there ("binding"), in weight proportion.
    // Slack re-enters scaled by the receiving queue's own efficiency — WRR
    // can only hand out what the (imperfect) protocol can carry. Every
    // aggregate here is a commutative integer sum of per-resource values.
    bool changed = false;
    for (size_t ls = 0; ls < num_link_slots; ++ls) {
      Bps64 wire_used = 0;
      int64_t hungry_weight = 0;
      for (const int32_t r : s->link_resources[ls]) {
        const ResourceWork& w = s->work[static_cast<size_t>(r)];
        const Bps64 goodput = w.capacity - w.remaining;
        wire_used += w.efficiency > 0 ? RoundBps(BpsToDouble(goodput) / w.efficiency) : goodput;
        if (w.binding) {
          hungry_weight += w.weight_units;
        }
      }
      const Bps64 dust = FloorDust(s->link_capacity[ls], s->link_crossings[ls]);
      const Bps64 slack = s->link_capacity[ls] - wire_used;
      if (slack <= dust || hungry_weight == 0) {
        continue;
      }
      for (const int32_t r : s->link_resources[ls]) {
        ResourceWork& w = s->work[static_cast<size_t>(r)];
        const Bps64 goodput = w.capacity - w.remaining;
        if (w.binding) {
          const Bps64 grant = RoundBps(
              BpsToDouble(slack) *
              (static_cast<double>(w.weight_units) / static_cast<double>(hungry_weight)) *
              w.efficiency);
          if (grant > dust) {
            changed = true;
          }
          w.capacity = goodput + grant;
        } else {
          // Keep only what it used; its surplus is being re-homed.
          w.capacity = goodput;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
}

// Nested WFQ over one component: `queue_key(cls, link)` identifies the
// class's queue at a port, `queue_weight(cls, link)` its weight. Classes may
// arrive in ANY order — the solve is a function of the flow multiset.
template <typename QueueKeyFn, typename QueueWeightFn>
void SolveComponentNested(const std::vector<FlowClass*>& classes, const Network& net,
                          QueueKeyFn queue_key, QueueWeightFn queue_weight,
                          ComponentScratch* s) {
  if (classes.empty()) {
    return;
  }
  const size_t n = classes.size();

  if (n == 1 && classes[0]->multiplicity() == 1) {
    // Single-flow component: the flow owns every queue it crosses (weight
    // ratios are exactly 1.0), so its rate is the minimum over path links of
    // the efficiency-degraded link capacity. Bit-identical to the general
    // path, which would compute the same RoundBps per link and freeze at the
    // floor of share/weight = capacity.
    FlowClass* cls = classes[0];
    const double eff = net.congestion().QueueEfficiency(1);
    Bps64 rate = kBps64Max;
    for (const LinkId l : *cls->path) {
      rate = std::min(rate, RoundBps(BpsToDouble(net.topology().link(l).capacity_bps) * eff));
    }
    cls->rate = rate;
    return;
  }

  // --- Build the component's resource graph (once; reused across rounds). ---
  LinkSlotMap& link_slot = s->link_slot;
  link_slot.Prepare(net.topology().num_links());
  PrepareClassRows(n, s);
  s->resource_of.Clear();
  s->resource_apps.Clear();

  size_t num_resources = 0;
  size_t num_link_slots = 0;
  for (size_t f = 0; f < n; ++f) {
    const FlowClass& cls = *classes[f];
    const int32_t m = cls.multiplicity();
    s->cls_weight[f] = cls.weight_units;
    s->cls_mult[f] = m;
    s->cls_res_offset[f] = static_cast<int32_t>(s->cls_res.size());
    for (const LinkId l : *cls.path) {
      bool inserted = false;
      const size_t ls = static_cast<size_t>(link_slot.SlotFor(l, &inserted));
      if (inserted) {
        if (s->link_resources.size() <= ls) {
          s->link_resources.resize(ls + 1);
          s->link_capacity.resize(ls + 1);
          s->link_crossings.resize(ls + 1);
        }
        s->link_resources[ls].clear();
        s->link_capacity[ls] = net.topology().link(l).capacity_bps;
        s->link_crossings[ls] = 0;
        ++num_link_slots;
      }
      const int resource = s->resource_of.FindOrInsert(
          static_cast<uint32_t>(ls), static_cast<uint32_t>(queue_key(cls, l)),
          static_cast<int32_t>(num_resources), &inserted);
      if (inserted) {
        ++num_resources;
        if (s->work.size() < num_resources) {
          s->work.resize(num_resources);
        }
        ResourceWork& w = s->work[static_cast<size_t>(resource)];
        // Any member class yields the same queue weight (the key pins the
        // queue), so it is fine that the first-seen class supplies it.
        w.weight_units = WeightUnits(queue_weight(cls, l));
        w.denom0 = 0;
        w.active0 = 0;
        w.num_apps = 0;
        s->link_resources[ls].push_back(resource);
      }
      ResourceWork& w = s->work[static_cast<size_t>(resource)];
      (void)s->resource_apps.FindOrInsert(static_cast<uint32_t>(resource),
                                          static_cast<uint32_t>(cls.app), 0, &inserted);
      if (inserted) {
        ++w.num_apps;
      }
      w.denom0 += m * cls.weight_units;
      w.active0 += m;
      s->link_crossings[ls] += m;
      s->cls_res.push_back(static_cast<int32_t>(resource));
    }
  }
  s->cls_res_offset[n] = static_cast<int32_t>(s->cls_res.size());
  link_slot.Reset();

  for (size_t r = 0; r < num_resources; ++r) {
    s->work[r].efficiency =
        net.congestion().QueueEfficiency(static_cast<size_t>(s->work[r].num_apps));
  }
  FinishIncidence(n, num_resources, s);

  if (num_link_slots == 1) {
    // Single-link component: each queue's WFQ share is final (no other link
    // can bind first, and every queue is fully used by its elastic flows, so
    // redistribution could only move floor dust). Each queue then is one
    // resource whose classes all freeze at the level L = cap / Σ m·w (the
    // resource's denom0), identical to what the progressive fill would
    // freeze: each member gets floor(w·L), the per-flow grant.
    int64_t weight_sum = 0;
    for (const int32_t r : s->link_resources[0]) {
      weight_sum += s->work[static_cast<size_t>(r)].weight_units;
    }
    assert(weight_sum > 0);
    for (const int32_t r : s->link_resources[0]) {
      const ResourceWork& w = s->work[static_cast<size_t>(r)];
      const Bps64 cap = RoundBps(
          BpsToDouble(s->link_capacity[0]) *
          (static_cast<double>(w.weight_units) / static_cast<double>(weight_sum)) * w.efficiency);
      for (int32_t k = s->res_cls_offset[static_cast<size_t>(r)],
                   end = s->res_cls_offset[static_cast<size_t>(r) + 1];
           k < end; ++k) {
        const size_t f = static_cast<size_t>(s->res_cls[static_cast<size_t>(k)]);
        classes[f]->rate =
            cap > 0 ? static_cast<Bps64>(static_cast<Int128>(s->cls_weight[f]) * cap / w.denom0)
                    : 0;
      }
    }
    return;
  }

  SolveNestedWfqInt(classes, num_resources, num_link_slots, s);
}

// Strict priority over one component: priority tiers served best (lowest
// value) first, each getting a max-min allocation of what higher tiers left.
// All scratch lives in the per-slot arena — this solver runs once per
// component per event, so per-call heap allocation would dominate at churn
// rates.
void SolveComponentStrict(const std::vector<FlowClass*>& classes, const Network& net,
                          ComponentScratch* s) {
  if (classes.empty()) {
    return;
  }

  // Group by priority tier. A plain sort suffices: order *within* a tier
  // cannot matter, the integer fill being a function of the flow multiset.
  std::vector<FlowClass*>& by_priority = s->by_priority;
  by_priority.assign(classes.begin(), classes.end());
  std::sort(by_priority.begin(), by_priority.end(),
            [](const FlowClass* a, const FlowClass* b) { return a->priority < b->priority; });

  // Remaining capacity persists across tiers; lower tiers only see what
  // higher tiers left behind.
  LinkSlotMap& remaining_slot = s->remaining_slot;
  remaining_slot.Prepare(net.topology().num_links());
  std::vector<Bps64>& remaining = s->remaining;
  remaining.clear();
  for (const FlowClass* cls : by_priority) {
    for (const LinkId l : *cls->path) {
      bool inserted = false;
      (void)remaining_slot.SlotFor(l, &inserted);
      if (inserted) {
        remaining.push_back(net.topology().link(l).capacity_bps);
      }
    }
  }

  std::vector<FlowClass*>& tier = s->tier;
  LinkSlotMap& link_slot = s->link_slot;

  size_t i = 0;
  while (i < by_priority.size()) {
    const int prio = by_priority[i]->priority;
    tier.clear();
    while (i < by_priority.size() && by_priority[i]->priority == prio) {
      tier.push_back(by_priority[i]);
      ++i;
    }
    const size_t n = tier.size();

    if (n == 1) {
      // One class in the tier (the common case under pFabric-style per-flow
      // priorities): its m members split the bottleneck remaining capacity
      // evenly. Identical to the general fill, which freezes at
      // floor(w * rem / (m * w)) = floor(rem / m).
      FlowClass* cls = tier[0];
      Bps64 rem = kBps64Max;
      for (const LinkId l : *cls->path) {
        rem = std::min(rem, remaining[static_cast<size_t>(remaining_slot.At(l))]);
      }
      cls->rate = rem / cls->multiplicity();
    } else {
      // Weighted max-min within the tier on the remaining capacity: one
      // resource per link (a priority tier behaves like a single queue).
      link_slot.Prepare(net.topology().num_links());
      PrepareClassRows(n, s);
      size_t used_links = 0;
      for (size_t f = 0; f < n; ++f) {
        const FlowClass& cls = *tier[f];
        const int32_t m = cls.multiplicity();
        s->cls_weight[f] = cls.weight_units;
        s->cls_mult[f] = m;
        s->cls_res_offset[f] = static_cast<int32_t>(s->cls_res.size());
        for (const LinkId l : *cls.path) {
          bool inserted = false;
          const int slot = link_slot.SlotFor(l, &inserted);
          if (inserted) {
            if (s->work.size() <= used_links) {
              s->work.resize(used_links + 1);
            }
            ResourceWork& w = s->work[used_links];
            w.capacity = remaining[static_cast<size_t>(remaining_slot.At(l))];
            w.denom0 = 0;
            w.active0 = 0;
            ++used_links;
          }
          ResourceWork& w = s->work[static_cast<size_t>(slot)];
          w.denom0 += m * cls.weight_units;
          w.active0 += m;
          s->cls_res.push_back(slot);
        }
      }
      s->cls_res_offset[n] = static_cast<int32_t>(s->cls_res.size());
      link_slot.Reset();
      FinishIncidence(n, used_links, s);
      for (size_t r = 0; r < used_links; ++r) {
        ResourceWork& w = s->work[r];
        w.remaining = w.capacity;
        w.denom = w.denom0;
        w.active = w.active0;
        w.binding = false;
      }
      ProgressiveFillInt(tier, used_links, s);
    }

    // Integer conservation guarantees the tier fits; the clamp only guards
    // the (unreachable) pathological case. Subtracting m·rate once clamps to
    // the same value as subtracting rate m times.
    for (const FlowClass* cls : tier) {
      const Bps64 claimed = cls->multiplicity() * cls->rate;
      for (const LinkId l : *cls->path) {
        Bps64& rem = remaining[static_cast<size_t>(remaining_slot.At(l))];
        rem = std::max<Bps64>(0, rem - claimed);
      }
    }
  }
  remaining_slot.Reset();
}

// Solves one component under the discipline, then writes each class rate to
// every member. Reads only the (immutable during a solve) Network, the
// component's classes and the given arena — the isolation the parallel batch
// below relies on. Class order is irrelevant.
void SolveComponent(const std::vector<FlowClass*>& classes, const Network& net,
                    AllocationDiscipline discipline, const PerAppWeightFn& per_app_weights,
                    ComponentScratch* scratch) {
  switch (discipline) {
    case AllocationDiscipline::kWfqSlQueues:
      SolveComponentNested(
          classes, net,
          [&net](const FlowClass& cls, LinkId l) {
            const PortConfig& port = net.port(l);
            const int q = port.sl_to_queue[static_cast<size_t>(cls.sl)];
            assert(q >= 0 && q < port.num_queues);
            return q;
          },
          [&net](const FlowClass& cls, LinkId l) {
            const PortConfig& port = net.port(l);
            const int q = port.sl_to_queue[static_cast<size_t>(cls.sl)];
            const double w = port.queue_weights[static_cast<size_t>(q)];
            assert(w > 0 && "queue weights must be strictly positive");
            return w;
          },
          scratch);
      break;
    case AllocationDiscipline::kPerAppQueues:
      SolveComponentNested(
          classes, net, [](const FlowClass& cls, LinkId) { return static_cast<int>(cls.app); },
          [&per_app_weights](const FlowClass& cls, LinkId l) {
            const double w = per_app_weights ? per_app_weights(l, cls.app) : 1.0;
            assert(w > 0);
            return w;
          },
          scratch);
      break;
    case AllocationDiscipline::kStrictPriority:
      SolveComponentStrict(classes, net, scratch);
      break;
  }
  for (const FlowClass* cls : classes) {
    for (ActiveFlow* flow : cls->members) {
      assert(cls->ScalarKeyMatches(*flow, WeightUnits(flow->intra_weight)) &&
             "flow sl/priority/intra_weight changed without FlowQueueChanged");
      assert(flow->remaining_bits > 0);
      flow->rate = cls->rate;
    }
  }
}

// Solves components[0..num) under the discipline; `batch_flows` is the flow
// (not class) total over them. With jobs > 1, at least two components, and
// enough total flows to amortize the dispatch (kMinParallelBatchFlows) the
// batch is fanned across the worker pool, each slot solving into its own
// arena; otherwise it runs serially on the calling thread with arena 0.
// Either way every component's arithmetic is identical — the choice is pure
// scheduling (DESIGN.md §7.3). Each component writes only its own flows'
// rates, so "merging" is the identity.
void SolveComponentBatch(const std::vector<std::vector<FlowClass*>>& components, size_t num,
                         size_t batch_flows, const Network& net,
                         AllocationDiscipline discipline, const PerAppWeightFn& per_app_weights,
                         EngineSolveState* state, AllocationEngineStats* stats) {
  const bool fan_out = state->jobs > 1 && num > 1 &&
                       batch_flows >= AllocationEngine::kMinParallelBatchFlows;
  const size_t arenas_needed = fan_out ? static_cast<size_t>(state->jobs) : 1;
  while (state->arenas.size() < arenas_needed) {
    state->arenas.push_back(std::make_unique<ComponentScratch>());
  }
  if (!fan_out) {
    for (size_t i = 0; i < num; ++i) {
      SolveComponent(components[i], net, discipline, per_app_weights, state->arenas[0].get());
    }
    return;
  }
  if (state->pool == nullptr || state->pool->jobs() != state->jobs) {
    state->pool = std::make_unique<WorkerPool>(state->jobs);
  }
  // saba-lint: pool-capture-ok(task i reads only components[i] and writes only the rates of
  // that component's classes and their member flows — components partition the flow set, so
  // writes never alias across tasks; scratch lives in the slot-confined arena, §7.3)
  state->pool->Run(num, [&](size_t i, int slot) {
    SolveComponent(components[i], net, discipline, per_app_weights,
                   state->arenas[static_cast<size_t>(slot)].get());
  });
  if (stats != nullptr) {
    ++stats->parallel_solves;
    stats->parallel_components += num;
  }
}

// Partitions classes into link-sharing components and solves each.
// Components are numbered by first appearance in the scan; the numbering
// (like the class order inside each group) affects nothing but scheduling.
// `num_flows` is the flow total over the classes. Returns the component
// count.
size_t SolvePartitioned(const std::vector<FlowClass*>& classes, size_t num_flows,
                        const Network& net, AllocationDiscipline discipline,
                        const PerAppWeightFn& per_app_weights, EngineSolveState* state,
                        AllocationEngineStats* stats) {
  if (classes.empty()) {
    return 0;
  }

  LinkUnionFind& uf = state->uf;
  uf.Prepare(net.topology().num_links());
  for (const FlowClass* cls : classes) {
    const std::vector<LinkId>& path = *cls->path;
    const LinkId first = path.front();
    (void)uf.Find(first);  // Registers single-link paths too.
    for (size_t i = 1; i < path.size(); ++i) {
      uf.Union(first, path[i]);
    }
  }

  std::vector<int32_t>& group_of_root = state->group_of_root;
  if (group_of_root.size() < net.topology().num_links()) {
    group_of_root.assign(net.topology().num_links(), -1);
  }
  std::vector<LinkId>& group_roots = state->group_roots;
  std::vector<std::vector<FlowClass*>>& groups = state->groups;
  size_t num_groups = 0;
  for (FlowClass* cls : classes) {
    const LinkId root = uf.Find(cls->path->front());
    int32_t& g = group_of_root[static_cast<size_t>(root)];
    if (g < 0) {
      g = static_cast<int32_t>(num_groups++);
      group_roots.push_back(root);
      if (groups.size() < num_groups) {
        groups.emplace_back();
      }
      groups[static_cast<size_t>(g)].clear();
    }
    groups[static_cast<size_t>(g)].push_back(cls);
  }

  SolveComponentBatch(groups, num_groups, num_flows, net, discipline, per_app_weights, state,
                      stats);

  for (const LinkId root : group_roots) {
    group_of_root[static_cast<size_t>(root)] = -1;
  }
  group_roots.clear();
  uf.Reset();
  return num_groups;
}

// Hash of a class key. Only lookups depend on it, never a rate or an order.
uint64_t ClassKeyHash(const std::vector<LinkId>& path, AppId app, int sl, int priority,
                      int64_t weight_units) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  };
  mix(static_cast<uint64_t>(weight_units));
  mix((static_cast<uint64_t>(static_cast<uint32_t>(app)) << 32) |
      static_cast<uint32_t>(sl));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(priority)));
  for (const LinkId l : path) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(l)));
  }
  return h ^ (h >> 29);
}

}  // namespace

void AllocateFromScratch(const std::vector<ActiveFlow*>& flows, const Network& net,
                         AllocationDiscipline discipline, const PerAppWeightFn& per_app_weights) {
  if (flows.empty()) {
    return;
  }
  // Entry-point arena only: from-scratch solves run inside SweepRunner tasks
  // on many threads at once, so the state is thread-confined here (and stays
  // serial — jobs is never raised, so no nested pool is ever created). No
  // canonical sort: the integer solve is order-independent by arithmetic.
  // saba-lint: shared-state-ok(thread_local: each thread owns a private solve state, nothing
  // is shared across workers, and the solve it feeds is order-independent integer math)
  static thread_local EngineSolveState state;
  // Every flow is its own class (m = 1): the per-flow arithmetic the engine's
  // classes are tested against.
  if (state.flow_classes.size() < flows.size()) {
    state.flow_classes.resize(flows.size());
  }
  state.flow_class_ptrs.clear();
  for (size_t i = 0; i < flows.size(); ++i) {
    ActiveFlow* flow = flows[i];
    assert(flow->path != nullptr && !flow->path->empty());
    FlowClass& cls = state.flow_classes[i];
    cls.path = flow->path;
    cls.app = flow->app;
    cls.sl = flow->sl;
    cls.priority = flow->priority;
    cls.weight_units = WeightUnits(flow->intra_weight);
    cls.members.assign(1, flow);
    state.flow_class_ptrs.push_back(&cls);
  }
  SolvePartitioned(state.flow_class_ptrs, flows.size(), net, discipline, per_app_weights, &state,
                   nullptr);
}

void BandwidthAllocator::Allocate(const std::vector<ActiveFlow*>& flows,
                                  const Network& net) const {
  AllocateFromScratch(flows, net, discipline_, per_app_weights_);
}

std::unique_ptr<AllocationEngine> BandwidthAllocator::CreateEngine(const Network* net) const {
  return std::make_unique<AllocationEngine>(net, discipline_, per_app_weights_);
}

AllocationEngine::AllocationEngine(const Network* net, AllocationDiscipline discipline,
                                   PerAppWeightFn per_app_weights)
    : net_(net),
      discipline_(discipline),
      per_app_weights_(std::move(per_app_weights)),
      solve_(std::make_unique<EngineSolveState>()) {
  assert(net != nullptr);
  const size_t num_links = net->topology().num_links();
  link_classes_.resize(num_links);
  link_dirty_.assign(num_links, 0);
  link_visited_.assign(num_links, 0);
}

AllocationEngine::~AllocationEngine() = default;

void AllocationEngine::SetSolveJobs(int jobs) {
  assert(jobs >= 1 && "solve_jobs counts worker slots; 1 is the serial path");
  solve_->jobs = jobs;  // The pool is (re)created lazily on the next batch.
}

int AllocationEngine::solve_jobs() const { return solve_->jobs; }

void AllocationEngine::MarkLinkDirty(LinkId link) {
  assert(link >= 0 && static_cast<size_t>(link) < link_dirty_.size());
  if (!link_dirty_[static_cast<size_t>(link)]) {
    link_dirty_[static_cast<size_t>(link)] = 1;
    dirty_links_.push_back(link);
  }
}

void AllocationEngine::RehashClasses(size_t size) {
  assert(size > 0 && (size & (size - 1)) == 0 && live_classes_ * 2 <= size);
  class_index_.assign(size, -1);
  const size_t mask = size - 1;
  for (size_t id = 0; id < classes_.size(); ++id) {
    if (classes_[id].members.empty()) {
      continue;  // A recycled record on the free list.
    }
    size_t slot = static_cast<size_t>(classes_[id].hash) & mask;
    while (class_index_[slot] >= 0) {
      slot = (slot + 1) & mask;
    }
    class_index_[slot] = static_cast<int32_t>(id);
  }
}

void AllocationEngine::AttachFlow(ActiveFlow* flow) {
  const int64_t weight_units = WeightUnits(flow->intra_weight);
  const uint64_t hash =
      ClassKeyHash(*flow->path, flow->app, flow->sl, flow->priority, weight_units);
  if ((live_classes_ + 1) * 2 > class_index_.size()) {
    RehashClasses(std::max<size_t>(16, class_index_.size() * 2));
  }
  const size_t mask = class_index_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  int32_t id = -1;
  for (; class_index_[slot] >= 0; slot = (slot + 1) & mask) {
    const FlowClass& cls = classes_[static_cast<size_t>(class_index_[slot])];
    if (cls.hash == hash && cls.ScalarKeyMatches(*flow, weight_units) &&
        (cls.path == flow->path || *cls.path == *flow->path)) {
      id = class_index_[slot];
      break;
    }
  }
  if (id < 0) {  // A new class, in a recycled record when one is free.
    if (free_classes_.empty()) {
      id = static_cast<int32_t>(classes_.size());
      classes_.emplace_back();
    } else {
      id = free_classes_.back();
      free_classes_.pop_back();
    }
    FlowClass& cls = classes_[static_cast<size_t>(id)];
    cls.path = flow->path;
    cls.app = flow->app;
    cls.sl = flow->sl;
    cls.priority = flow->priority;
    cls.weight_units = weight_units;
    cls.hash = hash;
    class_index_[slot] = id;
    ++live_classes_;
    const std::vector<LinkId>& path = *flow->path;
    cls.link_slots.resize(path.size());
    for (size_t hop = 0; hop < path.size(); ++hop) {
      auto& on_link = link_classes_[static_cast<size_t>(path[hop])];
      cls.link_slots[hop] = static_cast<int32_t>(on_link.size());
      on_link.push_back({id, static_cast<int32_t>(hop)});
    }
  }
  FlowClass& cls = classes_[static_cast<size_t>(id)];
  flow->engine_class = id;
  flow->engine_member = cls.multiplicity();
  cls.members.push_back(flow);
}

void AllocationEngine::DetachFlow(ActiveFlow* flow) {
  const int32_t id = flow->engine_class;
  FlowClass& cls = classes_[static_cast<size_t>(id)];
  const size_t pos = static_cast<size_t>(flow->engine_member);
  assert(pos < cls.members.size() && cls.members[pos] == flow);
  cls.members[pos] = cls.members.back();
  cls.members[pos]->engine_member = static_cast<int32_t>(pos);
  cls.members.pop_back();
  flow->engine_class = -1;
  flow->engine_member = -1;
  if (!cls.members.empty()) {
    if (cls.path == flow->path) {
      cls.path = cls.members.front()->path;  // Re-borrow from a remaining member.
    }
    return;
  }

  // The class is empty: unlink it from its links and the index, recycle it.
  const std::vector<LinkId>& path = *cls.path;
  for (size_t hop = 0; hop < path.size(); ++hop) {
    auto& on_link = link_classes_[static_cast<size_t>(path[hop])];
    const int32_t slot = cls.link_slots[hop];
    assert(on_link[static_cast<size_t>(slot)].cls == id);
    const ClassHop moved = on_link.back();
    on_link[static_cast<size_t>(slot)] = moved;
    classes_[static_cast<size_t>(moved.cls)].link_slots[static_cast<size_t>(moved.hop)] = slot;
    on_link.pop_back();
  }
  // Linear-probing erase by backward shift: later entries of the probe run
  // move up into the hole unless their home slot lies cyclically in
  // (hole, their slot], so no tombstones are ever left.
  const size_t mask = class_index_.size() - 1;
  size_t hole = static_cast<size_t>(cls.hash) & mask;
  while (class_index_[hole] != id) {
    hole = (hole + 1) & mask;
  }
  for (size_t next = (hole + 1) & mask; class_index_[next] >= 0; next = (next + 1) & mask) {
    const size_t home =
        static_cast<size_t>(classes_[static_cast<size_t>(class_index_[next])].hash) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      class_index_[hole] = class_index_[next];
      hole = next;
    }
  }
  class_index_[hole] = -1;
  --live_classes_;
  cls.path = nullptr;
  free_classes_.push_back(id);
}

void AllocationEngine::FlowAdded(ActiveFlow* flow) {
  assert(flow != nullptr && flow->path != nullptr && !flow->path->empty());
  assert(flow->engine_class < 0 && "flow already registered");
  AttachFlow(flow);
  ++num_flows_;
  for (LinkId l : *flow->path) {
    assert(net_->topology().LinkUsable(l) && "flow path crosses a failed link; reroute first");
    MarkLinkDirty(l);
  }
}

void AllocationEngine::FlowRemoved(ActiveFlow* flow) {
  assert(flow != nullptr && flow->engine_class >= 0 && "flow not registered");
  DetachFlow(flow);
  --num_flows_;
  for (LinkId l : *flow->path) {
    MarkLinkDirty(l);
  }
}

void AllocationEngine::FlowQueueChanged(ActiveFlow* flow) {
  assert(flow != nullptr && flow->engine_class >= 0 && "flow not registered");
  if (!classes_[static_cast<size_t>(flow->engine_class)].ScalarKeyMatches(
          *flow, WeightUnits(flow->intra_weight))) {
    DetachFlow(flow);
    AttachFlow(flow);
  }
  for (LinkId l : *flow->path) {
    MarkLinkDirty(l);
  }
}

void AllocationEngine::PortConfigChanged(LinkId link) {
  MarkLinkDirty(link);
}

void AllocationEngine::InvalidateAll() { all_dirty_ = true; }

size_t AllocationEngine::CollectComponent(LinkId seed, std::vector<FlowClass*>* out) {
  size_t num_flows = 0;
  bfs_queue_.clear();
  link_visited_[static_cast<size_t>(seed)] = 1;
  visited_scratch_.push_back(seed);
  bfs_queue_.push_back(seed);
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    const LinkId l = bfs_queue_[head];
    for (const ClassHop entry : link_classes_[static_cast<size_t>(l)]) {
      FlowClass& cls = classes_[static_cast<size_t>(entry.cls)];
      // Every link of the class's path joins the component, so the class is
      // collected exactly once: when the BFS processes its first path link.
      // (Paths never repeat a link, so each class has one entry per link.)
      if (entry.hop == 0) {
        out->push_back(&cls);
        num_flows += cls.members.size();
      }
      for (LinkId k : *cls.path) {
        if (!link_visited_[static_cast<size_t>(k)]) {
          link_visited_[static_cast<size_t>(k)] = 1;
          visited_scratch_.push_back(k);
          bfs_queue_.push_back(k);
        }
      }
    }
  }
  return num_flows;
}

void AllocationEngine::Recompute() {
  if (!all_dirty_ && dirty_links_.empty()) {
    return;
  }
  ++stats_.recomputes;
  const size_t total = num_flows_;
  size_t rerated = 0;
  size_t classes_rerated = 0;

  if (all_dirty_) {
    ++stats_.full_recomputes;
    all_classes_scratch_.clear();
    for (FlowClass& cls : classes_) {
      if (!cls.members.empty()) {
        all_classes_scratch_.push_back(&cls);
      }
    }
    stats_.components_solved += SolvePartitioned(all_classes_scratch_, total, *net_, discipline_,
                                                 per_app_weights_, solve_.get(), &stats_);
    rerated = total;
    classes_rerated = all_classes_scratch_.size();
  } else {
    // Gather ALL dirty components first (the BFS stays serial and
    // deterministic), then solve the batch — serially or fanned across the
    // pool; either way bit-identical (DESIGN.md §7.3).
    std::vector<std::vector<FlowClass*>>& components = solve_->groups;
    size_t num_components = 0;
    for (const LinkId seed : dirty_links_) {
      if (link_visited_[static_cast<size_t>(seed)]) {
        continue;  // Already part of an earlier seed's component.
      }
      if (components.size() == num_components) {
        components.emplace_back();
      }
      std::vector<FlowClass*>& out = components[num_components];
      out.clear();
      const size_t num_flows = CollectComponent(seed, &out);
      if (out.empty()) {
        continue;  // A dirty link nobody crosses (e.g. a removed flow's last link).
      }
      rerated += num_flows;
      classes_rerated += out.size();
      ++num_components;
    }
    SolveComponentBatch(components, num_components, rerated, *net_, discipline_,
                        per_app_weights_, solve_.get(), &stats_);
    stats_.components_solved += num_components;
    for (const LinkId l : visited_scratch_) {
      link_visited_[static_cast<size_t>(l)] = 0;
    }
    visited_scratch_.clear();
  }

  stats_.flows_rerated += rerated;
  stats_.classes_rerated += classes_rerated;
  stats_.flows_frozen += total - rerated;
  for (const LinkId l : dirty_links_) {
    link_dirty_[static_cast<size_t>(l)] = 0;
  }
  dirty_links_.clear();
  all_dirty_ = false;
}

}  // namespace saba
