#pragma once
/// \file number.hpp
/// \brief Locale-free number reading. `strtod` takes its decimal point
///        from `LC_NUMERIC` (under a decimal-comma locale "1.8" reads as
///        1), so flags, scenario quantities, traces, synthetic references
///        and JSON all read their numbers here instead.

#include <cstddef>
#include <string_view>

namespace hepex::util {

/// What `read_double` found at the front of a text.
struct ReadDouble {
  double value = 0.0;
  std::size_t used = 0;       ///< characters consumed; 0 = no number
  bool out_of_range = false;  ///< magnitude beyond a double's range
};

/// strtod's grammar in the "C" locale: leading white space, an optional
/// sign, then a decimal or `0x` hexadecimal float, `inf`, `infinity` or
/// `nan` (any case). Reads the longest such prefix of `text`. A magnitude
/// too small for a double reads as ±0 and one too large as ±inf, both
/// flagged `out_of_range`, as strtod does when it sets ERANGE.
ReadDouble read_double(std::string_view text);

}  // namespace hepex::util
