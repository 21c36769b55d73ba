// R8 fixture: raw double rates and exact float comparisons, as they would
// look if someone un-fixed-pointed the allocation core. Only fires when
// linted under an allocation-core path (src/net/allocation_engine.*,
// src/net/allocator.h).
namespace saba {

struct Flow {
  double rate = 0;  // Flagged: double rate field.
  double intra_weight = 1.0;  // Legal: weights are not rates.
};

inline double Fill(Flow* flow) {
  double capacity_bps = 1e9;  // Flagged: double capacity local.
  double efficiency = 1.0;    // Legal name.
  if (efficiency == 1.0) {    // Flagged: exact float comparison.
    capacity_bps -= 1;
  }
  if (flow->rate != 0) {  // Legal: integer-literal comparison stays allowed.
    efficiency = 0.5;
  }
  // saba-lint: allow(R8): fixture demonstrates suppression
  double goodput = capacity_bps;
  return goodput * efficiency;
}

}  // namespace saba
