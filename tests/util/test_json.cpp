// Tests for the dependency-free JSON reader/writer — the determinism
// contract every HEPEX artifact (scenarios, characterizations, metrics
// snapshots, bench JSON) is built on.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace hepex::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(parse("\"hi\\n\\\"there\\\"\"").as_string(), "hi\n\"there\"");
}

TEST(Json, ParsesNestedContainers) {
  const Value v = parse(R"({"a": [1, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(a->as_array()[1].find("b")->as_bool());
  EXPECT_EQ(v.find("c")->as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Value v = Value::object();
  v.set("zebra", Value(1));
  v.set("apple", Value(2));
  v.set("mango", Value(3));
  EXPECT_EQ(dump_compact(v), R"({"zebra":1,"apple":2,"mango":3})");
  // Overwrite keeps the first-insertion position.
  v.set("zebra", Value(9));
  EXPECT_EQ(dump_compact(v), R"({"zebra":9,"apple":2,"mango":3})");
}

TEST(Json, DumpParseDumpIsAFixedPoint) {
  const std::string docs[] = {
      R"({"a":1,"b":[1,2,3],"c":{"d":null,"e":false},"f":"s"})",
      R"([0.1,1e300,-4.9406564584124654e-324,12345678901234567])",
      R"({"empty_obj":{},"empty_arr":[],"s":"\"\n\t"})",
  };
  for (const std::string& doc : docs) {
    const std::string once = dump(parse(doc));
    EXPECT_EQ(dump(parse(once)), once) << doc;
  }
}

TEST(Json, NumbersRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           0.1,
                           6.02214076e23,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -123456.789,
                           2.5e-10};
  for (const double v : values) {
    const double back = parse(number_to_string(v)).as_number();
    EXPECT_EQ(std::signbit(back), std::signbit(v));
    EXPECT_EQ(back, v) << number_to_string(v);
  }
}

TEST(Json, IntegralNumbersPrintWithoutPoint) {
  EXPECT_EQ(number_to_string(42.0), "42");
  EXPECT_EQ(number_to_string(-7.0), "-7");
  EXPECT_EQ(number_to_string(1e6), "1000000");
}

// --- number text: byte-equal to printf, bit-exact back -----------------

namespace {

/// The layout `number_to_string` promises, spelled with printf: the
/// smallest of %.15g, %.16g, %.17g that reads back to `v`. This reference
/// lives only here; the library reaches the same bytes from
/// `std::to_chars`.
std::string printf_reference(double v) {
  char buf[64];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Checks one double; returns false (after one gtest failure) on a miss so
/// a broken formatter reports a handful of values, not half a million.
bool formats_like_printf(double v) {
  const std::string text = number_to_string(v);
  const std::string want = printf_reference(v);
  if (text != want) {
    ADD_FAILURE() << "number_to_string(" << want << ") = " << text;
    return false;
  }
  const double back = parse(text).as_number();
  if (std::bit_cast<std::uint64_t>(back) != std::bit_cast<std::uint64_t>(v)) {
    ADD_FAILURE() << text << " does not read back bit-exactly";
    return false;
  }
  return true;
}

}  // namespace

TEST(JsonNumbers, RandomBitPatternsMatchThePrintfLayout) {
  // Every finite double is fair game: the exponent field is uniform, so
  // subnormals and ±0 get their own draws beside the normal range.
  util::SplitMix64 rng(0x15EED);
  int misses = 0;
  for (int i = 0; i < 300'000 && misses < 10; ++i) {
    std::uint64_t bits = rng.next();
    if (i % 64 == 0) bits &= 0x800FFFFFFFFFFFFFULL;  // subnormal or ±0
    if (i % 4096 == 0) bits &= 0x8000000000000000ULL;  // ±0
    const double v = std::bit_cast<double>(bits);
    if (!std::isfinite(v)) continue;
    if (!formats_like_printf(v)) ++misses;
  }
}

TEST(JsonNumbers, DecimalScaledValuesMatchThePrintfLayout) {
  // The values HEPEX artifacts actually hold: decimals of 1 to 17
  // significant digits, mostly near unit scale, some at the range edges.
  util::SplitMix64 rng(0xDEC1);
  int misses = 0;
  for (int i = 0; i < 300'000 && misses < 10; ++i) {
    const int digits = 1 + static_cast<int>(rng.next() % 17);
    std::uint64_t mantissa = 1 + rng.next() % 9;
    for (int d = 1; d < digits; ++d) mantissa = 10 * mantissa + rng.next() % 10;
    const int span = i % 8 == 0 ? 640 : 40;
    const int exponent = static_cast<int>(rng.next() % span) - span / 2;
    const std::string text = (rng.next() % 2 == 0 ? "" : "-") +
                             std::to_string(mantissa) + "e" +
                             std::to_string(exponent);
    const double v = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(v)) continue;
    if (!formats_like_printf(v)) ++misses;
  }
}

TEST(JsonNumbers, PowersOfTwoAndTheirNeighboursMatchThePrintfLayout) {
  // A power of two's rounding interval is half as wide below it, the one
  // place where the nearest 16-digit decimal can fail to read back.
  int misses = 0;
  for (int e = -1074; e <= 1023 && misses < 10; ++e) {
    const double p = std::ldexp(1.0, e);
    const double up = std::nextafter(p, std::numeric_limits<double>::max());
    for (const double v : {p, std::nextafter(p, 0.0), up}) {
      if (!formats_like_printf(v) || !formats_like_printf(-v)) ++misses;
    }
  }
  EXPECT_EQ(number_to_string(std::ldexp(1.0, -1017)),
            "7.1202363472230444e-307");
  EXPECT_EQ(number_to_string(std::numeric_limits<double>::denorm_min()),
            "4.94065645841247e-324");
}

TEST(JsonNumbers, UnderflowReadsAsSignedZero) {
  const double pos = parse("1e-400").as_number();
  const double neg = parse("-1e-400").as_number();
  EXPECT_EQ(pos, 0.0);
  EXPECT_FALSE(std::signbit(pos));
  EXPECT_EQ(neg, 0.0);
  EXPECT_TRUE(std::signbit(neg));
  // The leading digit decides, not the exponent's sign.
  EXPECT_EQ(parse("0.000001e-320").as_number(), 0.0);
  EXPECT_THROW(parse("1000000e303"), std::invalid_argument);
}

TEST(JsonNumbers, SubnormalsReadExactly) {
  const double v = parse("4e-320").as_number();
  EXPECT_EQ(std::fpclassify(v), FP_SUBNORMAL);
  EXPECT_EQ(v, 4e-320);
  EXPECT_EQ(parse("5e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonNumbers, OverflowIsAPositionedError) {
  const std::pair<const char*, const char*> cases[] = {
      {"{\"x\":\n  1e400}",
       "doc: line 2, column 8: number out of double range"},
      {"{\"x\":\n  -1e400}",
       "doc: line 2, column 9: number out of double range"},
  };
  for (const auto& [doc, want] : cases) {
    try {
      parse(doc, "doc");
      ADD_FAILURE() << doc << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), want);
    }
  }
}

TEST(JsonNumbers, NegativeZeroKeepsItsSign) {
  const double v = parse("-0").as_number();
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::signbit(v));
  EXPECT_EQ(number_to_string(v), "-0");
  EXPECT_EQ(dump_compact(parse("[-0, 0, -0.0]")), "[-0,0,-0]");
}

TEST(JsonNumbers, TextIgnoresTheNumericLocale) {
  // A host program may switch LC_NUMERIC to a decimal-comma locale;
  // HEPEX JSON must still print and read a decimal point.
  const std::string previous = std::setlocale(LC_NUMERIC, nullptr);
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    GTEST_SKIP() << "locale de_DE.UTF-8 is not installed";
  }
  const std::string text = dump_compact(Value(0.5));
  const double half = parse("0.5").as_number();
  const double tiny = parse("1.5e-400").as_number();
  const std::string sub =
      number_to_string(std::numeric_limits<double>::denorm_min());
  std::setlocale(LC_NUMERIC, previous.c_str());
  EXPECT_EQ(text, "0.5");
  EXPECT_EQ(half, 0.5);
  EXPECT_EQ(tiny, 0.0);
  EXPECT_EQ(sub, "4.94065645841247e-324");
}

TEST(Json, PrettyDumpShapeIsStable) {
  // Scalar-only arrays stay on one line; objects indent by two spaces and
  // the document ends with a newline. The bench JSON artifact and the
  // registry snapshot shape both rely on this.
  Value v = Value::object();
  v.set("xs", parse("[1, 2, 3]"));
  v.set("o", parse(R"({"k": "v"})"));
  EXPECT_EQ(dump(v),
            "{\n  \"xs\": [1, 2, 3],\n  \"o\": {\n    \"k\": \"v\"\n  }\n}\n");
}

TEST(Json, ParseErrorsCarrySourceLineAndColumn) {
  try {
    parse("{\n  \"a\": tru\n}", "doc.json");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("doc.json: line 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW(parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(parse(""), std::invalid_argument);
}

TEST(Json, KindMismatchIsALogicError) {
  EXPECT_THROW(parse("1").as_string(), std::logic_error);
  EXPECT_THROW(parse("\"s\"").as_number(), std::logic_error);
  EXPECT_THROW((void)parse("[]").members(), std::logic_error);
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(quote("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(quote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(parse(R"({"a": [1, 2]})"), parse(R"({ "a" : [ 1, 2 ] })"));
  EXPECT_FALSE(parse(R"({"a": 1})") == parse(R"({"a": 2})"));
}

// --- adversarial-input limits (hepexd's first parsing defense) ----------

namespace {
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}
}  // namespace

TEST(JsonLimits, DepthAtTheBoundIsAccepted) {
  ParseLimits limits;
  limits.max_depth = 8;
  EXPECT_NO_THROW(parse(nested_arrays(8), "doc", limits));
  // Mixed containers count every nesting level.
  EXPECT_NO_THROW(parse(R"({"a": [{"b": [1]}]})", "doc", limits));
}

TEST(JsonLimits, DepthOverTheBoundIsRejectedWithPosition) {
  ParseLimits limits;
  limits.max_depth = 8;
  try {
    parse(nested_arrays(9), "doc", limits);
    FAIL() << "depth-9 document accepted under max_depth=8";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Position pins the offending open bracket: column 9 of line 1.
    EXPECT_NE(what.find("doc: line 1, column 9"), std::string::npos) << what;
    EXPECT_NE(what.find("nesting depth exceeds the limit of 8"),
              std::string::npos)
        << what;
  }
}

TEST(JsonLimits, DefaultDepthLimitStopsABomb) {
  // A 100k-deep bomb must be rejected (not crash the recursive parser).
  EXPECT_THROW(parse(nested_arrays(100'000)), std::invalid_argument);
  // ...while the default still admits any sane document.
  EXPECT_NO_THROW(parse(nested_arrays(128)));
}

TEST(JsonLimits, SizeOverTheBoundIsRejectedBeforeParsing) {
  ParseLimits limits;
  limits.max_bytes = 64;
  const std::string big = "\"" + std::string(100, 'x') + "\"";
  try {
    parse(big, "frame", limits);
    FAIL() << "102-byte document accepted under max_bytes=64";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("frame:"), 0u) << what;
    EXPECT_NE(what.find("102 bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("exceeds the"), std::string::npos) << what;
  }
  EXPECT_NO_THROW(parse("\"" + std::string(62, 'x') + "\"", "frame", limits));
}

TEST(JsonLimits, SourceLabelPrefixesEveryError) {
  try {
    parse("[1, oops]", "request.scenario");
    FAIL() << "malformed document accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("request.scenario: line 1"), 0u)
        << e.what();
  }
}

}  // namespace
}  // namespace hepex::util::json
