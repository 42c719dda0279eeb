// Small string helpers shared across the library (splitting, trimming,
// joining, and locale-independent numeric parsing used by the text formats).

#ifndef SEQHIDE_COMMON_STRING_UTIL_H_
#define SEQHIDE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seqhide {

// Splits on `sep`; consecutive separators yield empty pieces unless
// skip_empty is true.
std::vector<std::string> Split(std::string_view text, char sep,
                               bool skip_empty = false);

// Splits on any run of ASCII whitespace; never yields empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view text);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

// Concatenates `pieces` by appending them to one string. Use it instead of
// `"x" + std::to_string(n)`: GCC 12 at -O3 misreports that form (a short
// literal prepended to a temporary) as an overlapping memcpy, and the
// -Wrestrict false positive breaks -Werror Release builds.
std::string StrCat(std::initializer_list<std::string_view> pieces);

// Joins `pieces` with `sep` between each pair.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// Strict integer / floating-point parsing: the whole (trimmed) string must
// be consumed, otherwise nullopt.
std::optional<int64_t> ParseInt64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace seqhide

#endif  // SEQHIDE_COMMON_STRING_UTIL_H_
