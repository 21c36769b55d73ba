#include "src/baselines/sincronia_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "src/net/units.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/rng.h"

namespace saba {
namespace {

// Test-only reference: the map-based BSSI that preceded the dense
// BssiSolver, kept verbatim (bar the name). Every slot rebuilds each port's
// total from scratch, so it states the exact float-summation order the dense
// core must reproduce.
std::vector<AppId> ReferenceBssiOrder(const std::vector<CoflowDemand>& coflows) {
  const size_t n = coflows.size();
  std::vector<bool> placed(n, false);
  std::vector<AppId> order(n, kInvalidApp);

  // Remaining (scaled) demand per coflow per port; BSSI scales the demand of
  // unplaced coflows down as later positions are filled. Ordered like
  // CoflowDemand::port_demand so every scan below is canonical.
  std::vector<std::map<LinkId, double>> demand;
  demand.reserve(n);
  for (const CoflowDemand& c : coflows) {
    demand.push_back(c.port_demand);
  }

  for (size_t slot = n; slot > 0; --slot) {
    // 1. Bottleneck port: largest total demand over unplaced coflows.
    // Ordered: the max scan below visits ports ascending, so the (total,
    // port) tie-break is canonical by construction.
    std::map<LinkId, double> port_total;
    for (size_t c = 0; c < n; ++c) {
      if (placed[c]) {
        continue;
      }
      for (const auto& [port, bits] : demand[c]) {
        port_total[port] += bits;
      }
    }
    LinkId bottleneck = kInvalidLink;
    double worst = -1;
    for (const auto& [port, total] : port_total) {
      if (total > worst || (total == worst && port < bottleneck)) {
        worst = total;
        bottleneck = port;
      }
    }

    // 2. Select: the unplaced coflow with the largest demand on the
    // bottleneck goes last (ties broken by app id for determinism). Coflows
    // with no demand anywhere can be placed last trivially.
    size_t chosen = n;
    double chosen_demand = -1;
    for (size_t c = 0; c < n; ++c) {
      if (placed[c]) {
        continue;
      }
      double d = 0;
      if (bottleneck != kInvalidLink) {
        auto it = demand[c].find(bottleneck);
        d = it == demand[c].end() ? 0 : it->second;
      }
      if (d > chosen_demand ||
          (d == chosen_demand && (chosen == n || coflows[c].app > coflows[chosen].app))) {
        chosen_demand = d;
        chosen = c;
      }
    }
    assert(chosen < n);
    placed[chosen] = true;
    order[slot - 1] = coflows[chosen].app;

    // 3. Scale: shrink the remaining coflows' demands by what the chosen one
    // no longer contends for at the bottleneck (unit-weight specialization:
    // subtract proportionally so earlier positions see the residual load).
    if (bottleneck != kInvalidLink && chosen_demand > 0) {
      for (size_t c = 0; c < n; ++c) {
        if (placed[c]) {
          continue;
        }
        auto it = demand[c].find(bottleneck);
        if (it != demand[c].end()) {
          it->second = std::max(0.0, it->second - chosen_demand * it->second / worst);
        }
      }
    }
  }
  return order;
}

TEST(BssiOrderTest, SingleCoflowTrivial) {
  const std::vector<AppId> order = ComputeBssiOrder({{1, {{0, 100.0}}}});
  EXPECT_EQ(order, std::vector<AppId>{1});
}

TEST(BssiOrderTest, SmallerCoflowScheduledFirstOnSharedBottleneck) {
  // Two coflows on one port: scheduling the smaller first minimizes average
  // CCT; BSSI places the larger last.
  std::vector<CoflowDemand> coflows = {
      {1, {{0, 1000.0}}},
      {2, {{0, 10.0}}},
  };
  const std::vector<AppId> order = ComputeBssiOrder(coflows);
  EXPECT_EQ(order.front(), 2);
  EXPECT_EQ(order.back(), 1);
}

TEST(BssiOrderTest, OrderIsPermutationOfInputs) {
  std::vector<CoflowDemand> coflows;
  for (AppId a = 0; a < 7; ++a) {
    CoflowDemand c;
    c.app = a;
    c.port_demand[a % 3] = 100.0 * (a + 1);
    c.port_demand[(a + 1) % 3] = 50.0;
    coflows.push_back(c);
  }
  std::vector<AppId> order = ComputeBssiOrder(coflows);
  ASSERT_EQ(order.size(), 7u);
  std::sort(order.begin(), order.end());
  for (AppId a = 0; a < 7; ++a) {
    EXPECT_EQ(order[static_cast<size_t>(a)], a);
  }
}

TEST(BssiOrderTest, BottleneckAware) {
  // Port 0 is heavily loaded; coflow 1 dominates it and must go last even
  // though coflow 2 has more total bytes spread thinly.
  std::vector<CoflowDemand> coflows = {
      {1, {{0, 900.0}}},
      {2, {{1, 400.0}, {2, 400.0}, {3, 300.0}}},
  };
  const std::vector<AppId> order = ComputeBssiOrder(coflows);
  EXPECT_EQ(order.back(), 1);
}

TEST(BssiOrderTest, EmptyDemandsHandled) {
  std::vector<CoflowDemand> coflows = {{1, {}}, {2, {{0, 5.0}}}};
  const std::vector<AppId> order = ComputeBssiOrder(coflows);
  EXPECT_EQ(order.size(), 2u);
}

TEST(BssiOrderTest, MatchesReferenceOnRandomInputs) {
  // Small integer demands force total and demand ties; zero demands keep
  // ports present at total 0; empty coflows and repeated app ids exercise the
  // select tie-breaks; a narrow port range forces heavy overlap.
  Rng rng(20230508);
  for (int instance = 0; instance < 2000; ++instance) {
    const auto num_coflows = static_cast<int>(rng.UniformInt(0, 12));
    const auto num_ports = static_cast<int>(rng.UniformInt(1, instance % 2 == 0 ? 4 : 40));
    const auto max_bits = rng.UniformInt(0, instance % 3 == 0 ? 3 : 1000);
    std::vector<CoflowDemand> coflows;
    for (int c = 0; c < num_coflows; ++c) {
      CoflowDemand coflow;
      coflow.app = static_cast<AppId>(rng.UniformInt(0, 2 * num_coflows));
      const auto entries = rng.UniformInt(0, num_ports);
      for (int64_t e = 0; e < entries; ++e) {
        const auto port = static_cast<LinkId>(rng.UniformInt(0, num_ports - 1) * 3);
        coflow.port_demand[port] = static_cast<double>(rng.UniformInt(0, max_bits));
      }
      coflows.push_back(coflow);
    }
    ASSERT_EQ(ComputeBssiOrder(coflows), ReferenceBssiOrder(coflows)) << "instance " << instance;
  }
}

TEST(BssiOrderTest, SolverSumsEachColumnInCoflowOrder) {
  // Demands may arrive out of coflow order (a refresh walks flows by id, not
  // by app). Port 1's total is 1e16 summed in coflow order 0, 1, 2 but
  // 1e16 + 2 in arrival order 0, 2, 1, which would tie port 2 and, on the
  // lower LinkId, make port 1 the bottleneck and app 11 the last coflow.
  BssiSolver solver;
  solver.Reset();
  for (AppId app : {10, 11, 12, 13}) {
    solver.AddCoflow(app);
  }
  const uint32_t port1 = solver.AddPort(1);
  const uint32_t port2 = solver.AddPort(2);
  solver.AddDemand(0, port1, 1.0);
  solver.AddDemand(2, port1, 1.0);
  solver.AddDemand(1, port1, 1e16);
  solver.AddDemand(3, port2, 1e16 + 2);
  std::vector<AppId> order;
  for (uint32_t coflow : solver.Solve()) {
    order.push_back(solver.app(coflow));
  }
  const std::vector<CoflowDemand> coflows = {
      {10, {{1, 1.0}}},
      {11, {{1, 1e16}}},
      {12, {{1, 1.0}}},
      {13, {{2, 1e16 + 2}}},
  };
  EXPECT_EQ(order.back(), 13);
  EXPECT_EQ(order, ReferenceBssiOrder(coflows));
}

TEST(BssiOrderTest, AllZeroBottleneckPicksLargestApp) {
  // Every total is 0, so the bottleneck is the lowest present port and every
  // coflow's demand on it is 0: the largest app goes last each slot.
  std::vector<CoflowDemand> coflows = {
      {3, {{5, 0.0}}},
      {7, {}},
      {5, {{2, 0.0}, {5, 0.0}}},
  };
  EXPECT_EQ(ComputeBssiOrder(coflows), (std::vector<AppId>{3, 5, 7}));
  EXPECT_EQ(ComputeBssiOrder(coflows), ReferenceBssiOrder(coflows));
}

class SincroniaSchedulerTest : public ::testing::Test {
 protected:
  SincroniaSchedulerTest()
      : network_(BuildSingleSwitchStar(4, Gbps64(10)), 8),
        flow_sim_(&scheduler_, &network_, &allocator_) {}

  EventScheduler scheduler_;
  Network network_;
  StrictPriorityAllocator allocator_;
  FlowSimulator flow_sim_;
};

TEST_F(SincroniaSchedulerTest, SmallCoflowPreemptsLargeOne) {
  SincroniaScheduler sincronia(&flow_sim_, {});
  SimTime small_done = -1;
  SimTime large_done = -1;
  int large_left = 2;
  int small_left = 1;
  // Large coflow: two 10 Gb flows into host 1 and 2.
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) {
    if (--large_left == 0) {
      large_done = scheduler_.Now();
    }
  });
  flow_sim_.StartFlow(0, 3, 2, Gbps(10), 0, 0, [&](FlowId) {
    if (--large_left == 0) {
      large_done = scheduler_.Now();
    }
  });
  // Small coflow: 1 Gb into host 1, same bottleneck as the first large flow.
  flow_sim_.StartFlow(1, 2, 1, Gbps(1), 0, 0, [&](FlowId) {
    if (--small_left == 0) {
      small_done = scheduler_.Now();
    }
  });
  scheduler_.Run();
  // Sincronia orders the small coflow first: it finishes in ~0.1 s; the
  // large one takes ~1.1 s on the shared port (serialized), 1 s elsewhere.
  EXPECT_NEAR(small_done, 0.1, 0.02);
  EXPECT_NEAR(large_done, 1.1, 0.05);
}

TEST_F(SincroniaSchedulerTest, AverageCoflowCompletionBeatsFairSharing) {
  // One large + three small coflows on one bottleneck: serializing by BSSI
  // gives a lower average CCT than max-min fair sharing would.
  SincroniaScheduler sincronia(&flow_sim_, {});
  std::vector<SimTime> done(4, -1);
  flow_sim_.StartFlow(0, 0, 1, Gbps(9), 0, 0, [&](FlowId) { done[0] = scheduler_.Now(); });
  for (AppId a = 1; a <= 3; ++a) {
    flow_sim_.StartFlow(a, 2, 1, Gbps(1), 0, static_cast<uint64_t>(a),
                        [&, a](FlowId) { done[static_cast<size_t>(a)] = scheduler_.Now(); });
  }
  scheduler_.Run();
  double avg = 0;
  for (SimTime t : done) {
    ASSERT_GT(t, 0);
    avg += t;
  }
  avg /= 4.0;
  // Fair sharing: every coflow finishes around 1.2 s -> average ~1.2.
  // BSSI: smalls at 0.1/0.2/0.3, large at 1.2 -> average ~0.45.
  EXPECT_LT(avg, 0.8);
}

TEST_F(SincroniaSchedulerTest, RecomputesOrderAsCoflowsFinish) {
  SincroniaScheduler sincronia(&flow_sim_, {});
  // After the small coflow drains, the large one must get full rate.
  SimTime large_done = -1;
  flow_sim_.StartFlow(0, 0, 1, Gbps(10), 0, 0, [&](FlowId) { large_done = scheduler_.Now(); });
  flow_sim_.StartFlow(1, 2, 1, Gbps(2), 0, 0, nullptr);
  scheduler_.Run();
  EXPECT_NEAR(large_done, 1.2, 0.05);
}

TEST_F(SincroniaSchedulerTest, PrioritiesMatchReferenceOrderAtEveryCheckpoint) {
  // On its own small spine-leaf fabric, so coflows share ToR and leaf ports
  // (the fixture's star has only host links). After each
  // checkpoint, rebuild the refresh's input from the live flow set (the
  // previous map-based construction: coflows in order of first appearance,
  // per-(coflow, link) bits summed in ascending flow id) and check every
  // flow's priority against the reference order. 12 apps on 8 classes also
  // exercises the clamp to the last class.
  SpineLeafParams params;
  params.num_spine = 2;
  params.num_leaf = 4;
  params.num_tor = 4;
  params.hosts_per_tor = 4;
  params.num_pods = 2;
  EventScheduler scheduler;
  Network network(BuildSpineLeaf(params), 8);
  FlowSimulator flow_sim(&scheduler, &network, &allocator_);
  SincroniaScheduler sincronia(&flow_sim, {});
  const std::vector<NodeId> hosts = network.topology().Hosts();
  Rng rng(11);
  for (int f = 0; f < 80; ++f) {
    const NodeId src = rng.Choice(hosts);
    NodeId dst = rng.Choice(hosts);
    while (dst == src) {
      dst = rng.Choice(hosts);
    }
    const auto app = static_cast<AppId>(rng.UniformInt(0, 11));
    const double bits = Gbps(static_cast<double>(rng.UniformInt(1, 8)));
    const SimTime start = 0.05 * static_cast<double>(rng.UniformInt(0, 10));
    scheduler.ScheduleAt(start, [&flow_sim, app, src, dst, bits, f] {
      flow_sim.StartFlow(app, src, dst, bits, 0, static_cast<uint64_t>(f), nullptr);
    });
  }
  int checked = 0;
  for (SimTime t = 0.025; flow_sim.active_flow_count() > 0 || t < 0.6; t += 0.1) {
    scheduler.RunUntil(t);
    std::map<AppId, size_t> index;
    std::vector<CoflowDemand> coflows;
    flow_sim.ForEachActiveFlow([&](const ActiveFlow& flow) {
      auto [it, inserted] = index.emplace(flow.app, coflows.size());
      if (inserted) {
        coflows.push_back({flow.app, {}});
      }
      for (LinkId link : *flow.path) {
        coflows[it->second].port_demand[link] += flow.remaining_bits;
      }
    });
    const std::vector<AppId> order = ReferenceBssiOrder(coflows);
    std::map<AppId, int> priority;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      priority[order[pos]] = std::min(static_cast<int>(pos), 7);
    }
    flow_sim.ForEachActiveFlow([&](const ActiveFlow& flow) {
      EXPECT_EQ(flow.priority, priority.at(flow.app)) << "flow " << flow.id << " at " << t;
      ++checked;
    });
  }
  EXPECT_GT(checked, 200);
}

}  // namespace
}  // namespace saba
