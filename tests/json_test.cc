// Tests for the minimal JSON reader/writer used by the data repository.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"

namespace sparktune {
namespace {

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(Json::Null().Dump(), "null");
  EXPECT_EQ(Json::Bool(true).Dump(), "true");
  EXPECT_EQ(Json::Bool(false).Dump(), "false");
  EXPECT_EQ(Json::Number(42).Dump(), "42");
  EXPECT_EQ(Json::Number(-1.5).Dump(), "-1.5");
  EXPECT_EQ(Json::Str("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, EscapesSpecialCharacters) {
  Json s = Json::Str("a\"b\\c\nd");
  std::string dumped = s.Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json o = Json::Object();
  o.Set("z", Json::Number(1));
  o.Set("a", Json::Number(2));
  EXPECT_EQ(o.Dump(), "{\"z\":1,\"a\":2}");
}

TEST(JsonTest, SetOverwrites) {
  Json o = Json::Object();
  o.Set("k", Json::Number(1));
  o.Set("k", Json::Number(9));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_DOUBLE_EQ(o.Get("k")->AsNumber(), 9.0);
}

TEST(JsonTest, NestedRoundTrip) {
  Json doc = Json::Object();
  Json arr = Json::Array();
  arr.Append(Json::Number(1.25));
  arr.Append(Json::Str("x"));
  arr.Append(Json::Null());
  Json inner = Json::Object();
  inner.Set("flag", Json::Bool(true));
  arr.Append(std::move(inner));
  doc.Set("items", std::move(arr));

  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  const Json* items = parsed->Get("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 4u);
  EXPECT_DOUBLE_EQ(items->at(0).AsNumber(), 1.25);
  EXPECT_EQ(items->at(1).AsString(), "x");
  EXPECT_TRUE(items->at(2).is_null());
  EXPECT_TRUE(items->at(3).GetBoolOr("flag", false));
}

TEST(JsonTest, ParseWhitespaceAndNumbers) {
  auto r = Json::Parse("  { \"a\" : [ 1 , 2.5e2 , -3 ] }  ");
  ASSERT_TRUE(r.ok());
  const Json* a = r->Get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->at(1).AsNumber(), 250.0);
  EXPECT_DOUBLE_EQ(a->at(2).AsNumber(), -3.0);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  // Malformed numbers are typed, bare or inside a container.
  for (const char* tok :
       {"1e", "-", "--1", "1e+", ".", "+", "1.2.3", "e5", "[1,--1]"}) {
    auto parsed = Json::Parse(tok);
    ASSERT_FALSE(parsed.ok()) << tok;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument) << tok;
  }
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  auto r = Json::Parse("\"\\u00e9\"");  // é
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsString(), "\xc3\xa9");
}

TEST(JsonTest, UnicodeEscapeRejectsNonHexDigits) {
  for (const char* doc : {"\"\\uzzzz\"", "\"\\u12g4\"", "\"\\u-123\"",
                          "\"\\u 123\"", "\"\\u12\""}) {
    auto r = Json::Parse(doc);
    ASSERT_FALSE(r.ok()) << doc;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << doc;
  }
  auto upper = Json::Parse("\"\\u00E9\\u00e9\"");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->AsString(), "\xc3\xa9\xc3\xa9");
}

TEST(JsonTest, EscapedSurrogatePairDecodesToOneCodePoint) {
  auto r = Json::Parse("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->AsString(), "\xf0\x9f\x98\x80");
  auto edges = Json::Parse("\"\\uD800\\uDC00\\uDBFF\\uDFFF\"");
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->AsString(), "\xf0\x90\x80\x80\xf4\x8f\xbf\xbf");
}

TEST(JsonTest, UnpairedSurrogatesAreInvalidArgument) {
  for (const char* doc :
       {"\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\n\"",
        "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\"", "\"\\ude00\"",
        "\"\\ude00\\ud83d\"", "\"\\ud83d\\uzzzz\""}) {
    auto r = Json::Parse(doc);
    ASSERT_FALSE(r.ok()) << doc;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << doc;
  }
}

TEST(JsonTest, TypedGettersWithFallbacks) {
  auto r = Json::Parse("{\"n\":3,\"s\":\"v\",\"b\":true}");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->GetNumberOr("n", -1), 3.0);
  EXPECT_DOUBLE_EQ(r->GetNumberOr("missing", -1), -1.0);
  EXPECT_EQ(r->GetStringOr("s", ""), "v");
  EXPECT_EQ(r->GetStringOr("n", "fallback"), "fallback");  // wrong type
  EXPECT_TRUE(r->GetBoolOr("b", false));
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
}

TEST(JsonTest, LargeIntegersKeepPrecision) {
  Json n = Json::Number(123456789012.0);
  EXPECT_EQ(n.Dump(), "123456789012");
}

// The number format Dump has always produced: integral values below 1e15
// through "%lld", every other finite value through "%.17g".
std::string PrintfNumber(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t ToBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(JsonTest, NumberDumpMatchesPrintfGolden) {
  std::vector<double> corpus = {
      0.0, -0.0, 1e15 - 1, 1e15, 1e15 + 1, -(1e15 - 1), -1e15, -(1e15 + 1),
      9007199254740992.0,  // 2^53
      -9007199254740992.0, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3, DBL_MAX,
      -DBL_MAX, 0.1, 1.0 / 3, 123.456, 1e-5, 1e16, 1e21, 1e22, 0.5, -2.5};
  Rng rng(0x5EED0C0DEULL);
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(FromBits(rng.Next()));  // any bit pattern
    corpus.push_back(rng.Uniform(-1e6, 1e6));
    corpus.push_back(std::floor(rng.Uniform(-2e15, 2e15)));
    corpus.push_back(static_cast<double>(rng.UniformInt(-100000, 100000)));
  }
  int mismatches = 0;
  for (double d : corpus) {
    const std::string got = Json::Number(d).Dump();
    if (got != PrintfNumber(d) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << ToBits(d) << ": " << got
                    << " vs " << PrintfNumber(d);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonTest, NumberParseMatchesStrtod) {
  const char* kTokens[] = {"+1",       "-0",     ".5",    "1.",
                           "4.9e-324", "1e-400", "1e999", "-1e999",
                           "0.1",      "1E5",    "2.5e+2", "-0.0"};
  for (const char* tok : kTokens) {
    auto parsed = Json::Parse(tok);
    ASSERT_TRUE(parsed.ok()) << tok << ": " << parsed.status().ToString();
    ASSERT_TRUE(parsed->is_number()) << tok;
    const double want = std::strtod(tok, nullptr);
    const double got = parsed->AsNumber();
    EXPECT_EQ(ToBits(got), ToBits(want))
        << tok << ": " << got << " vs " << want;
  }
  EXPECT_TRUE(std::signbit(Json::Parse("-0")->AsNumber()));
  EXPECT_EQ(Json::Parse("1e999")->AsNumber(),
            std::numeric_limits<double>::infinity());

  // Every value Dump writes parses back to the same bits.
  Rng rng(0xD0C5ULL);
  for (int i = 0; i < 20000; ++i) {
    const double d = FromBits(rng.Next());
    if (!std::isfinite(d)) continue;
    auto back = Json::Parse(Json::Number(d).Dump());
    ASSERT_TRUE(back.ok());
    const double got = back->AsNumber();
    // "%lld" writes -0.0 as "0"; every other value keeps its bits.
    if (d == 0.0) {
      EXPECT_EQ(got, 0.0);
    } else {
      EXPECT_EQ(ToBits(got), ToBits(d)) << Json::Number(d).Dump();
    }
  }
}

// The parser recurses once per array/object level, so depth is bounded:
// past Json::kMaxParseDepth the answer is a typed kInvalidArgument instead
// of a stack overflow, however large the input.
TEST(JsonTest, NestingPastTheDepthLimitIsInvalidArgument) {
  auto arrays = Json::Parse(std::string(1000000, '['));
  ASSERT_FALSE(arrays.ok());
  EXPECT_EQ(arrays.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(arrays.status().message().find("nesting"), std::string::npos)
      << arrays.status().ToString();

  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  auto chain = Json::Parse(objects);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(chain.status().message().find("nesting"), std::string::npos)
      << chain.status().ToString();
}

TEST(JsonTest, NestingExactlyAtTheDepthLimitParses) {
  const int depth = Json::kMaxParseDepth;
  const std::string at_limit =
      std::string(depth, '[') + std::string(depth, ']');
  auto arrays = Json::Parse(at_limit);
  ASSERT_TRUE(arrays.ok()) << arrays.status().ToString();
  EXPECT_EQ(arrays->Dump(), at_limit);
  EXPECT_EQ(Json::Parse("[" + at_limit + "]").status().code(),
            Status::Code::kInvalidArgument);

  std::string objects;
  for (int i = 0; i < depth - 1; ++i) objects += "{\"a\":";
  objects += "{}" + std::string(depth - 1, '}');
  auto chain = Json::Parse(objects);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain->Dump(), objects);
}

}  // namespace
}  // namespace sparktune
