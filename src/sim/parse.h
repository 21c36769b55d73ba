// Strict whole-string number parsing for every text input the simulator
// reads: scenario files, sensitivity and mapping CSVs, environment knobs.
//
// The whole string must be the number. Leading or trailing whitespace,
// trailing junk, and values out of range all yield nullopt, never an
// exception, a silently truncated prefix, or a clamped value.

#ifndef SRC_SIM_PARSE_H_
#define SRC_SIM_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>

namespace saba {

// Base-10 integer in int64 range.
std::optional<int64_t> ParseInt64(const std::string& text);

// Base-10 integer in int range.
std::optional<int> ParseInt(const std::string& text);

// Base-10 finite double. Hex floats, inf, nan, and magnitudes strtod reports
// as out of range are rejected.
std::optional<double> ParseDouble(const std::string& text);

}  // namespace saba

#endif  // SRC_SIM_PARSE_H_
