#ifndef OCDD_COMMON_STRING_UTIL_H_
#define OCDD_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ocdd {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// `s` with the JSON string escapes applied (quote, backslash, control
/// characters as `\n`/`\r`/`\t`/`\u00XX`), without surrounding quotes.
std::string JsonEscape(const std::string& s);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view s);

/// Strict parse of a whole string as a signed 64-bit integer
/// (optional sign, decimal digits, no surrounding whitespace).
std::optional<std::int64_t> ParseInt64(std::string_view s);

/// Strict parse of a whole string as a double. Rejects empty strings,
/// trailing garbage, hex floats, and "inf"/"nan" spellings.
std::optional<double> ParseDouble(std::string_view s);

}  // namespace ocdd

#endif  // OCDD_COMMON_STRING_UTIL_H_
