#include "src/baselines/homa_policy.h"

#include <cassert>
#include <cmath>

namespace saba {

HomaScheduler::HomaScheduler(FlowSimulator* flow_sim, HomaConfig config)
    : flow_sim_(flow_sim), config_(config) {
  assert(flow_sim != nullptr);
  assert(config_.num_priorities >= 2);
  assert(config_.cutoff_bits > 0);
  flow_sim_->SetPreAllocateHook([this] { RefreshPriorities(); });
}

int HomaScheduler::PriorityFor(double remaining_bits) const {
  // The negated test also sends NaN to class 0.
  if (!(remaining_bits > 0)) {
    return 0;
  }
  if (remaining_bits > config_.cutoff_bits) {
    return config_.num_priorities - 1;
  }
  // Geometric size buckets over (0, cutoff]: the smallest messages map to
  // class 0. With P-1 graduated classes, bucket by log2 of the fraction of
  // the cutoff. The fraction underflows to 0 for subnormal sizes, making the
  // octave count +inf, so the class-0 test comes before the int cast.
  const int graduated = config_.num_priorities - 1;
  const double octaves = -std::log2(remaining_bits / config_.cutoff_bits);  // >= 0
  if (octaves >= graduated - 1) {
    return 0;
  }
  return graduated - 1 - static_cast<int>(std::floor(octaves));
}

void HomaScheduler::RefreshPriorities() {
  flow_sim_->AssignFlowPriorities([this](const ActiveFlow& flow) {
    return PriorityFor(flow.remaining_bits);
  });
}

}  // namespace saba
