#include "src/core/distributed_controller.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

#include "src/numerics/linalg.h"
#include "src/sim/parse.h"

namespace saba {

MappingDatabase MappingDatabase::Build(const SensitivityTable& table, int num_pls,
                                       uint64_t seed) {
  assert(table.size() > 0);
  std::vector<std::string> names;
  std::vector<SensitivityModel> models;
  names.reserve(table.size());
  for (const auto& [name, entry] : table.entries()) {
    names.push_back(name);
    models.push_back(entry.model);
  }
  Rng rng(seed);
  const PlMapping mapping = MapAppsToPls(models, num_pls, &rng);

  MappingDatabase db;
  for (size_t i = 0; i < names.size(); ++i) {
    db.workload_to_pl[names[i]] = mapping.app_to_pl[i];
  }
  db.pl_models = mapping.pl_models;
  return db;
}

int MappingDatabase::PlForWorkload(const std::string& workload) const {
  auto it = workload_to_pl.find(workload);
  if (it != workload_to_pl.end()) {
    return it->second;
  }
  // Unknown workload: treat as insensitive and pick the nearest centroid.
  const SensitivityModel fallback;
  size_t dim = 1;
  for (const SensitivityModel& model : pl_models) {
    dim = std::max(dim, model.polynomial().degree() + 1);
  }
  const std::vector<double> target = fallback.CoefficientVector(dim);
  int best_pl = 0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t p = 0; p < pl_models.size(); ++p) {
    const double d = SquaredDistance(target, pl_models[p].CoefficientVector(dim));
    if (d < best) {
      best = d;
      best_pl = static_cast<int>(p);
    }
  }
  return best_pl;
}

std::string MappingDatabase::ToCsv() const {
  std::ostringstream os;
  os.precision(17);
  for (size_t p = 0; p < pl_models.size(); ++p) {
    os << "pl," << p;
    for (double coeff : pl_models[p].polynomial().coefficients()) {
      os << ',' << coeff;
    }
    os << '\n';
  }
  for (const auto& [workload, pl] : workload_to_pl) {
    os << "app," << workload << ',' << pl << '\n';
  }
  return os.str();
}

std::optional<MappingDatabase> MappingDatabase::FromCsv(const std::string& csv) {
  MappingDatabase db;
  std::istringstream is(csv);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream row(line);
    std::string kind;
    if (!std::getline(row, kind, ',')) {
      return std::nullopt;
    }
    if (kind == "pl") {
      std::string field;
      if (!std::getline(row, field, ',')) {
        return std::nullopt;
      }
      const std::optional<int64_t> id = ParseInt64(field);
      if (!id.has_value() || *id < 0 ||
          static_cast<size_t>(*id) != db.pl_models.size()) {
        return std::nullopt;  // PL ids must be numeric, dense, and in order.
      }
      std::vector<double> coeffs;
      while (std::getline(row, field, ',')) {
        const std::optional<double> coeff = ParseDouble(field);
        if (!coeff.has_value()) {
          return std::nullopt;
        }
        coeffs.push_back(*coeff);
      }
      if (coeffs.empty()) {
        return std::nullopt;
      }
      db.pl_models.emplace_back(Polynomial(std::move(coeffs)));
    } else if (kind == "app") {
      std::string workload;
      std::string pl;
      if (!std::getline(row, workload, ',') || !std::getline(row, pl, ',')) {
        return std::nullopt;
      }
      const std::optional<int64_t> pl_id = ParseInt64(pl);
      if (!pl_id.has_value() || *pl_id < 0 ||
          static_cast<size_t>(*pl_id) >= db.pl_models.size()) {
        return std::nullopt;  // Assignments must reference declared PLs.
      }
      db.workload_to_pl[workload] = static_cast<int>(*pl_id);
    } else {
      return std::nullopt;
    }
  }
  if (db.pl_models.empty()) {
    return std::nullopt;
  }
  return db;
}

}  // namespace saba
