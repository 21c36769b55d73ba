// The distributed deployment of Saba's controller (paper §5.4): each shard
// configures only its switches' ports and reads the application-to-PL
// mapping from a database the profiler built offline and replicated to every
// shard. The logic lives in CentralizedController (src/core/controller.h);
// this header keeps the database, its replication format and the options,
// and names the one class `DistributedController` as a plain alias.

#ifndef SRC_CORE_DISTRIBUTED_CONTROLLER_H_
#define SRC_CORE_DISTRIBUTED_CONTROLLER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/controller.h"

namespace saba {

// The offline mapping database: workload -> PL plus the PL centroid models.
// Built once by the profiler from the full sensitivity table; replicated to
// every controller shard.
struct MappingDatabase {
  std::map<std::string, int> workload_to_pl;
  std::vector<SensitivityModel> pl_models;

  static MappingDatabase Build(const SensitivityTable& table, int num_pls, uint64_t seed);

  // PL for a workload; unknown workloads get the PL whose centroid is
  // nearest to the insensitive default model.
  int PlForWorkload(const std::string& workload) const;

  // Replication format (§5.4: the database is replicated to every controller
  // shard). Two sections: "pl,<id>,<coefficients...>" rows for the centroid
  // models, then "app,<workload>,<pl>" rows for the assignments.
  std::string ToCsv() const;
  static std::optional<MappingDatabase> FromCsv(const std::string& csv);
};

struct DistributedControllerOptions {
  ControllerOptions base;
  // Number of controller shards; switches are assigned round-robin by id.
  int num_shards = 8;
  // Worker threads for the sharded flush (1 = serial on the caller thread,
  // the default so existing byte-streams are unchanged). Results are
  // bit-identical at every setting — the fan-out is pure scheduling.
  int shard_jobs = 1;
};

using DistributedController = CentralizedController;

}  // namespace saba

#endif  // SRC_CORE_DISTRIBUTED_CONTROLLER_H_
