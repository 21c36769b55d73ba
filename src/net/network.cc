#include "src/net/network.h"

#include <cmath>
#include <utility>

namespace saba {

double FecnCongestionModel::QueueEfficiency(size_t distinct_apps) const {
  if (distinct_apps <= 1) {
    return 1.0;
  }
  const double x = static_cast<double>(distinct_apps);
  const double ln = std::log(x);
  // The (1 - 1/n) factor keeps a two-app VL nearly lossless while leaving
  // the many-app collapse intact.
  return 1.0 / (1.0 + gamma_ * ln * ln * (1.0 - 1.0 / x));
}

Network::Network(Topology topology, int default_queues)
    : topology_(std::move(topology)),
      router_(&topology_),
      congestion_(std::make_unique<IdealCongestionModel>()) {
  assert(default_queues >= 1);
  PortConfig config;
  config.num_queues = default_queues;
  config.queue_weights.assign(static_cast<size_t>(default_queues), 1.0);
  ports_.assign(topology_.num_links(), config);
}

void Network::SetQueueCountEverywhere(int num_queues) {
  assert(num_queues >= 1);
  for (PortConfig& port : ports_) {
    port.num_queues = num_queues;
    port.queue_weights.assign(static_cast<size_t>(num_queues), 1.0);
    for (int& q : port.sl_to_queue) {
      if (q >= num_queues) {
        q = num_queues - 1;
      }
    }
  }
}

void Network::MapSlToQueueEverywhere(int sl, int queue) {
  assert(sl >= 0 && sl < kNumServiceLevels);
  for (PortConfig& port : ports_) {
    assert(queue >= 0 && queue < port.num_queues);
    port.sl_to_queue[static_cast<size_t>(sl)] = queue;
  }
}

void Network::SetCongestionModel(std::unique_ptr<CongestionModel> model) {
  assert(model != nullptr);
  congestion_ = std::move(model);
}

}  // namespace saba
