#include "util/number.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

namespace hepex::util {

namespace {

bool is_digit(char c, bool hex) {
  const int lower = c | 0x20;
  return (c >= '0' && c <= '9') || (hex && lower >= 'a' && lower <= 'f');
}

/// For a number `from_chars` read as out of range, spanning [p, last)
/// after its sign and `0x`: true when it is too small for a double rather
/// than too large. Out-of-range magnitudes lie below 2^-1074 or above
/// 2^1024, so the sign of the leading digit's exponent decides (decimal
/// for decimal numbers, binary for hex ones).
bool underflows(const char* p, const char* last, bool hex) {
  const long step = hex ? 4 : 1;  // exponent units per digit
  long lead = 0;
  while (p != last && *p == '0') ++p;
  if (p != last && is_digit(*p, hex)) {
    for (++p; p != last && is_digit(*p, hex); ++p) lead += step;
  } else if (p != last && *p == '.') {
    for (++p; p != last && *p == '0'; ++p) lead -= step;
    lead -= step;
  }
  const char exp_mark = hex ? 'p' : 'e';
  while (p != last && (*p | 0x20) != exp_mark) ++p;
  long exp = 0;
  bool neg_exp = false;
  if (p != last) {
    ++p;
    if (*p == '+' || *p == '-') neg_exp = *p++ == '-';
    for (; p != last; ++p) exp = std::min(10 * exp + (*p - '0'), 1000000L);
  }
  return lead + (neg_exp ? -exp : exp) < 0;
}

}  // namespace

ReadDouble read_double(std::string_view text) {
  const char* const begin = text.data();
  const char* const last = begin + text.size();
  const char* p = begin;
  while (p != last && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  bool negative = false;
  if (p != last && (*p == '+' || *p == '-')) negative = *p++ == '-';
  ReadDouble out;
  if (p == last || *p == '+' || *p == '-') return out;

  // from_chars takes hex digits without their "0x"; "0x" not followed by
  // a hex digit reads as the number 0, as in strtod.
  const bool hex = last - p > 2 && p[0] == '0' && (p[1] | 0x20) == 'x' &&
                   (is_digit(p[2], true) ||
                    (p[2] == '.' && last - p > 3 && is_digit(p[3], true)));
  const char* const digits = hex ? p + 2 : p;
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(digits, last, v,
                      hex ? std::chars_format::hex : std::chars_format::general);
  if (ec == std::errc::invalid_argument) return out;
  if (ec == std::errc::result_out_of_range) {
    out.out_of_range = true;
    v = underflows(digits, end, hex) ? 0.0
                                     : std::numeric_limits<double>::infinity();
  }
  out.value = negative ? -v : v;
  out.used = static_cast<std::size_t>(end - begin);
  return out;
}

}  // namespace hepex::util
