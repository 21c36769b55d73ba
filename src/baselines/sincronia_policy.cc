#include "src/baselines/sincronia_policy.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace saba {
namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
// Total of a port with no unplaced entry: compares below every real total.
constexpr double kAbsent = -std::numeric_limits<double>::infinity();

}  // namespace

void BssiSolver::Reset() {
  links_.clear();
  apps_.clear();
}

uint32_t BssiSolver::AddCoflow(AppId app) {
  const auto index = static_cast<uint32_t>(apps_.size());
  apps_.push_back(app);
  return index;
}

uint32_t BssiSolver::AddPort(LinkId link) {
  const auto index = static_cast<uint32_t>(links_.size());
  links_.push_back(link);
  if (columns_.size() == index) {
    columns_.emplace_back();
  } else {
    columns_[index].clear();
  }
  return index;
}

void BssiSolver::AddDemand(uint32_t coflow, uint32_t port, double bits) {
  assert(coflow < apps_.size() && port < links_.size());
  std::vector<Entry>& column = columns_[port];
  // The entry is almost always the newest one; columns are short.
  for (auto it = column.rbegin(); it != column.rend(); ++it) {
    if (it->coflow == coflow) {
      it->demand += bits;
      return;
    }
  }
  column.push_back({coflow, 0.0});
  column.back().demand += bits;
}

void BssiSolver::Resum(uint32_t port) {
  double total = 0.0;
  bool present = false;
  for (const Entry& e : columns_[port]) {
    if (!placed_[e.coflow]) {
      total += e.demand;
      present = true;
    }
  }
  total_[port] = present ? total : kAbsent;
}

const std::vector<uint32_t>& BssiSolver::Solve() {
  const size_t n = apps_.size();
  const auto num_ports = static_cast<uint32_t>(links_.size());
  if (rows_.size() < n) {
    rows_.resize(n);
  }
  for (size_t c = 0; c < n; ++c) {
    rows_[c].clear();
  }
  placed_.assign(n, 0);
  at_bottleneck_.assign(n, 0.0);
  order_.assign(n, kNone);
  total_.resize(num_ports);
  const auto by_coflow = [](const Entry& a, const Entry& b) { return a.coflow < b.coflow; };
  for (uint32_t p = 0; p < num_ports; ++p) {
    std::vector<Entry>& column = columns_[p];
    if (!std::is_sorted(column.begin(), column.end(), by_coflow)) {
      std::sort(column.begin(), column.end(), by_coflow);
    }
    for (const Entry& e : column) {
      rows_[e.coflow].push_back(p);
    }
    Resum(p);
  }

  for (size_t slot = n; slot > 0; --slot) {
    // 1. Bottleneck: largest total over present ports, lowest LinkId on ties
    // (kAbsent never wins).
    uint32_t bottleneck = kNone;
    double worst = -1;
    for (uint32_t p = 0; p < num_ports; ++p) {
      const double total = total_[p];
      if (total > worst ||
          (total == worst && bottleneck != kNone && links_[p] < links_[bottleneck])) {
        worst = total;
        bottleneck = p;
      }
    }

    // 2. Select: the unplaced coflow with the largest demand on the
    // bottleneck goes last (ties broken by app id for determinism). Coflows
    // with no entry there have demand 0.
    if (bottleneck != kNone) {
      for (const Entry& e : columns_[bottleneck]) {
        at_bottleneck_[e.coflow] = e.demand;
      }
    }
    uint32_t chosen = kNone;
    double chosen_demand = -1;
    for (uint32_t c = 0; c < n; ++c) {
      if (placed_[c]) {
        continue;
      }
      const double d = at_bottleneck_[c];
      if (d > chosen_demand ||
          (d == chosen_demand && (chosen == kNone || apps_[c] > apps_[chosen]))) {
        chosen_demand = d;
        chosen = c;
      }
    }
    assert(chosen != kNone);
    placed_[chosen] = 1;
    order_[slot - 1] = chosen;

    // 3. Scale: shrink the remaining coflows' demands by what the chosen one
    // no longer contends for at the bottleneck (unit-weight specialization:
    // subtract proportionally so earlier positions see the residual load).
    // The same pass clears at_bottleneck_ for the next slot.
    if (bottleneck != kNone) {
      for (Entry& e : columns_[bottleneck]) {
        at_bottleneck_[e.coflow] = 0.0;
        if (chosen_demand > 0 && !placed_[e.coflow]) {
          e.demand = std::max(0.0, e.demand - chosen_demand * e.demand / worst);
        }
      }
    }
    // 4. Iterate: only the chosen coflow's ports lost an entry. A scaled
    // bottleneck is one of them, since scaling needs chosen_demand > 0.
    for (uint32_t p : rows_[chosen]) {
      Resum(p);
    }
  }
  return order_;
}

std::vector<AppId> ComputeBssiOrder(const std::vector<CoflowDemand>& coflows) {
  BssiSolver solver;
  std::map<LinkId, uint32_t> port_of;
  for (const CoflowDemand& c : coflows) {
    const uint32_t coflow = solver.AddCoflow(c.app);
    for (const auto& [link, bits] : c.port_demand) {
      auto [it, inserted] = port_of.emplace(link, 0);
      if (inserted) {
        it->second = solver.AddPort(link);
      }
      solver.AddDemand(coflow, it->second, bits);
    }
  }
  std::vector<AppId> order;
  for (uint32_t coflow : solver.Solve()) {
    order.push_back(solver.app(coflow));
  }
  return order;
}

SincroniaScheduler::SincroniaScheduler(FlowSimulator* flow_sim, SincroniaConfig config)
    : flow_sim_(flow_sim), config_(config) {
  assert(flow_sim != nullptr);
  assert(config_.num_priorities >= 1);
  flow_sim_->SetPreAllocateHook([this] { RefreshPriorities(); });
}

void SincroniaScheduler::RefreshPriorities() {
  // One coflow per application; per-(coflow, link) remaining bits summed in
  // ascending flow id.
  solver_.Reset();
  flow_sim_->ForEachActiveFlow([&](const ActiveFlow& flow) {
    assert(flow.app >= 0);
    const auto app = static_cast<size_t>(flow.app);
    if (app >= app_coflow_.size()) {
      app_coflow_.resize(app + 1, kNone);
    }
    if (app_coflow_[app] == kNone) {
      app_coflow_[app] = solver_.AddCoflow(flow.app);
    }
    for (LinkId link : *flow.path) {
      const auto l = static_cast<size_t>(link);
      if (l >= link_port_.size()) {
        link_port_.resize(l + 1, kNone);
      }
      if (link_port_[l] == kNone) {
        link_port_[l] = solver_.AddPort(link);
      }
      solver_.AddDemand(app_coflow_[app], link_port_[l], flow.remaining_bits);
    }
  });
  for (uint32_t p = 0; p < solver_.num_ports(); ++p) {
    link_port_[static_cast<size_t>(solver_.port_link(p))] = kNone;
  }
  if (solver_.num_coflows() == 0) {
    return;
  }

  const std::vector<uint32_t>& order = solver_.Solve();
  coflow_priority_.assign(order.size(), 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    coflow_priority_[order[pos]] = std::min(static_cast<int>(pos), config_.num_priorities - 1);
  }
  flow_sim_->AssignFlowPriorities([&](const ActiveFlow& flow) {
    return coflow_priority_[app_coflow_[static_cast<size_t>(flow.app)]];
  });
  for (uint32_t c = 0; c < solver_.num_coflows(); ++c) {
    app_coflow_[static_cast<size_t>(solver_.app(c))] = kNone;
  }
}

}  // namespace saba
