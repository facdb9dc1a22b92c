#include "src/common/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/common/logging.h"

namespace cedar {

double ParseDouble(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  CEDAR_CHECK(end != text.c_str() && *end == '\0' && errno == 0)
      << "bad " << what << ": '" << text << "'";
  return value;
}

double ParsePositiveDouble(const std::string& text, const std::string& what) {
  const double value = ParseDouble(text, what);
  CEDAR_CHECK(std::isfinite(value) && value > 0.0)
      << "bad " << what << ": '" << text << "' (want a finite number > 0)";
  return value;
}

int64_t ParseInt(const std::string& text, const std::string& what, int64_t min, int64_t max) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  CEDAR_CHECK(end != text.c_str() && *end == '\0' && errno == 0 && value >= min && value <= max)
      << "bad " << what << ": '" << text << "' (want an integer in [" << min << ", " << max
      << "])";
  return static_cast<int64_t>(value);
}

}  // namespace cedar
