#include "src/baselines/pfabric_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace saba {

PFabricScheduler::PFabricScheduler(FlowSimulator* flow_sim, PFabricConfig config)
    : flow_sim_(flow_sim), config_(config) {
  assert(flow_sim != nullptr);
  assert(config_.num_priorities >= 2);
  assert(config_.min_bits > 0 && config_.max_bits > config_.min_bits);
  log_min_ = std::log(config_.min_bits);
  log_range_ = std::log(config_.max_bits) - log_min_;
  flow_sim_->SetPreAllocateHook([this] { RefreshPriorities(); });
}

int PFabricScheduler::PriorityFor(double remaining_bits) const {
  // The negated test also sends NaN to class 0; +inf has no finite log.
  if (!(remaining_bits > config_.min_bits)) {
    return 0;
  }
  if (std::isinf(remaining_bits)) {
    return config_.num_priorities - 1;
  }
  const double frac = (std::log(remaining_bits) - log_min_) / log_range_;
  const int cls = static_cast<int>(frac * (config_.num_priorities - 1)) + 1;
  return std::clamp(cls, 0, config_.num_priorities - 1);
}

void PFabricScheduler::RefreshPriorities() {
  flow_sim_->AssignFlowPriorities([this](const ActiveFlow& flow) {
    return PriorityFor(flow.remaining_bits);
  });
}

}  // namespace saba
