#include "src/sim/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace saba {
namespace {

// strtoll/strtod silently skip leading whitespace; reject it up front.
bool NonEmptyAndUnpadded(const std::string& text) {
  return !text.empty() && !std::isspace(static_cast<unsigned char>(text.front()));
}

}  // namespace

std::optional<int64_t> ParseInt64(const std::string& text) {
  if (!NonEmptyAndUnpadded(text)) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(parsed);
}

std::optional<int> ParseInt(const std::string& text) {
  const std::optional<int64_t> parsed = ParseInt64(text);
  if (!parsed.has_value() || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*parsed);
}

std::optional<double> ParseDouble(const std::string& text) {
  if (!NonEmptyAndUnpadded(text) || text.find_first_of("xX") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() || !std::isfinite(parsed)) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace saba
