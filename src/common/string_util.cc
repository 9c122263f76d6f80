#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ocdd {

namespace {

bool IsSpace(char c) {
  const auto u = static_cast<unsigned char>(c);
  // Printable ASCII is never whitespace; only the rest asks the C library.
  if (u > 0x20 && u < 0x7f) return false;
  return std::isspace(u) != 0;
}

}  // namespace

std::string_view StripAsciiWhitespace(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && IsSpace(s[begin])) ++begin;
  while (end > begin && IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::optional<std::int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  if (*begin == '+') {
    // from_chars rejects a leading '+' but accepts '-': skip the '+' and
    // refuse a second sign, or "+-5" would parse as -5.
    ++begin;
    if (begin != end && *begin == '-') return std::nullopt;
  }
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view s) {
  if (s.empty()) return std::nullopt;
  // from_chars rounds exactly as strtod does and needs no terminator. What
  // it reads whole is digits, sign, '.' and exponent, or an inf/nan
  // spelling: the only way it yields a non-finite value, as overflow is an
  // error. Every input it rejects (a leading '+', overflow, underflow, a
  // partial read) falls through to strtod, whose result stays the
  // definition.
  double value = 0.0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec == std::errc() && ptr == end) {
    if (std::isfinite(value)) return value;
    return std::nullopt;
  }

  // Reject spellings strtod would accept but which are not plain decimal
  // numbers in data files (inf, nan, hex floats).
  for (char c : s) {
    bool plain = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                 c == '.' || c == 'e' || c == 'E';
    if (!plain) return std::nullopt;
  }
  // strtod needs NUL termination: short fields use a stack buffer.
  char small[64];
  std::string large;
  const char* text = small;
  if (s.size() < sizeof(small)) {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
  } else {
    large.assign(s);
    text = large.c_str();
  }
  char* endptr = nullptr;
  value = std::strtod(text, &endptr);
  if (endptr != text + s.size()) return std::nullopt;
  return value;
}

}  // namespace ocdd
