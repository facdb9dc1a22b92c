// Checked number parsing for outside input: flag values, trace CSV fields
// and the spec strings of policies, workloads and stages. The whole of
// |text| must be one number in [min, max]; anything else dies through
// CEDAR_CHECK with "bad <what>: '<text>'", so a malformed input names
// itself instead of throwing or wrapping around.

#ifndef CEDAR_SRC_COMMON_PARSE_H_
#define CEDAR_SRC_COMMON_PARSE_H_

#include <cstdint>
#include <limits>
#include <string>

namespace cedar {

double ParseDouble(const std::string& text, const std::string& what);

// ParseDouble for a value that must be finite and > 0, such as a deadline;
// anything else dies with "bad <what>: '<text>' (want a finite number > 0)".
double ParsePositiveDouble(const std::string& text, const std::string& what);

int64_t ParseInt(const std::string& text, const std::string& what,
                 int64_t min = std::numeric_limits<int64_t>::min(),
                 int64_t max = std::numeric_limits<int64_t>::max());

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_PARSE_H_
