// util/env_knob: hardened RTCC_* knob parsing. The old knob sites ran
// bare atoi/atol, so "abc" silently became 0, "-3" slid into unsigned
// widths, and overflow saturated without a word. Under test: the strict
// string-level grammar over a table of bad inputs, and the env-reading
// wrappers' fall-back-to-default behavior (valid values apply, invalid
// values keep the default and warn once).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "report/corpus.hpp"
#include "stream/stream_mode.hpp"
#include "util/env_knob.hpp"

namespace {

using rtcc::util::env_knob_bool;
using rtcc::util::env_knob_double;
using rtcc::util::env_knob_ll;
using rtcc::util::parse_knob_bool;
using rtcc::util::parse_knob_double;
using rtcc::util::parse_knob_ll;

TEST(ParseKnobLl, AcceptsPlainIntegers) {
  EXPECT_EQ(parse_knob_ll("0"), 0);
  EXPECT_EQ(parse_knob_ll("42"), 42);
  EXPECT_EQ(parse_knob_ll("-7"), -7);
  EXPECT_EQ(parse_knob_ll("+13"), 13);
  EXPECT_EQ(parse_knob_ll("  8 "), 8);  // surrounding whitespace ok
  EXPECT_EQ(parse_knob_ll("9223372036854775807"),
            std::numeric_limits<long long>::max());
}

TEST(ParseKnobLl, RejectsTheBadInputTable) {
  // The table from the issue: non-numeric, trailing junk, overflow,
  // empty, and grammar corners atoi/strtol silently accept.
  const char* bad[] = {
      "",      " ",     "abc",   "12abc",  "4x",
      "1.5",   "0x10",  "++1",   "-",      "+",
      "1 2",   "999999999999999999999999",  // > LLONG_MAX
      "-999999999999999999999999",          // < LLONG_MIN
      "1e3",   "NaN",   "inf",
  };
  for (const char* s : bad)
    EXPECT_FALSE(parse_knob_ll(s).has_value()) << "input: '" << s << "'";
}

TEST(ParseKnobDouble, AcceptsPlainNumbers) {
  EXPECT_EQ(parse_knob_double("0"), 0.0);
  EXPECT_EQ(parse_knob_double("2.5"), 2.5);
  EXPECT_EQ(parse_knob_double("-0.25"), -0.25);
  EXPECT_EQ(parse_knob_double("1e3"), 1000.0);
  EXPECT_EQ(parse_knob_double(" 0.1 "), 0.1);
}

TEST(ParseKnobDouble, RejectsBadInputs) {
  const char* bad[] = {"", "abc", "1.5x", "0x1p3", "nan", "inf",
                       "-inf", "1e999", "--1", "1..2"};
  for (const char* s : bad)
    EXPECT_FALSE(parse_knob_double(s).has_value()) << "input: '" << s << "'";
}

TEST(ParseKnobBool, GrammarTable) {
  EXPECT_EQ(parse_knob_bool("1"), true);
  EXPECT_EQ(parse_knob_bool("true"), true);
  EXPECT_EQ(parse_knob_bool("ON"), true);
  EXPECT_EQ(parse_knob_bool("Yes"), true);
  EXPECT_EQ(parse_knob_bool("0"), false);
  EXPECT_EQ(parse_knob_bool("false"), false);
  EXPECT_EQ(parse_knob_bool("off"), false);
  EXPECT_EQ(parse_knob_bool("no"), false);
  const char* bad[] = {"", "2", "-1", "tru", "enable", "01", "yes!"};
  for (const char* s : bad)
    EXPECT_FALSE(parse_knob_bool(s).has_value()) << "input: '" << s << "'";
}

// The env wrappers read fresh on every call (only the call sites cache
// in their static atomics), so setenv/unsetenv drives them directly.
// Use test-local names: the warn-once registry is per name per process,
// and the warning path must not affect the returned value anyway.

TEST(EnvKnob, UnsetReturnsFallbackSilently) {
  unsetenv("RTCC_TEST_UNSET");
  EXPECT_EQ(env_knob_ll("RTCC_TEST_UNSET", 7, 0, 100), 7);
  EXPECT_EQ(env_knob_double("RTCC_TEST_UNSET", 0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(env_knob_bool("RTCC_TEST_UNSET", true), true);
}

TEST(EnvKnob, ValidValuesApply) {
  setenv("RTCC_TEST_VALID", "12", 1);
  EXPECT_EQ(env_knob_ll("RTCC_TEST_VALID", 7, 0, 100), 12);
  setenv("RTCC_TEST_VALID", "0.25", 1);
  EXPECT_EQ(env_knob_double("RTCC_TEST_VALID", 0.5, 0.0, 1.0), 0.25);
  setenv("RTCC_TEST_VALID", "off", 1);
  EXPECT_EQ(env_knob_bool("RTCC_TEST_VALID", true), false);
  unsetenv("RTCC_TEST_VALID");
}

TEST(EnvKnob, InvalidValuesFallBackToDefault) {
  const char* bad[] = {"abc", "-3", "99999999999999999999", "12abc", ""};
  for (const char* s : bad) {
    setenv("RTCC_TEST_BAD_LL", s, 1);
    EXPECT_EQ(env_knob_ll("RTCC_TEST_BAD_LL", 7, 1, 100), 7)
        << "input: '" << s << "'";
  }
  unsetenv("RTCC_TEST_BAD_LL");
}

TEST(EnvKnob, OutOfRangeFallsBackToDefault) {
  setenv("RTCC_TEST_RANGE", "0", 1);  // below min 1 (e.g. RTCC_STREAM_CHUNK=0)
  EXPECT_EQ(env_knob_ll("RTCC_TEST_RANGE", 64, 1, 100), 64);
  setenv("RTCC_TEST_RANGE", "101", 1);
  EXPECT_EQ(env_knob_ll("RTCC_TEST_RANGE", 64, 1, 100), 64);
  setenv("RTCC_TEST_RANGE", "-1", 1);
  EXPECT_EQ(env_knob_double("RTCC_TEST_RANGE", 0.5, 0.0, 1.0), 0.5);
  unsetenv("RTCC_TEST_RANGE");
}

// The knob sites that matter most in practice, driven through their
// public option builders (their process-wide static caches are read
// once, so these go through the from-env builders that re-read).

TEST(EnvKnob, StreamOptionsRejectBadBudgets) {
  setenv("RTCC_STREAM_FLOWS", "not-a-number", 1);
  setenv("RTCC_STREAM_IDLE", "-5", 1);
  setenv("RTCC_STREAM_CHUNK", "0", 1);  // would stall the reader; floor is 1
  const auto opts = rtcc::stream::stream_options_from_env();
  const rtcc::stream::StreamOptions defaults;
  EXPECT_EQ(opts.max_flows, defaults.max_flows);
  EXPECT_EQ(opts.idle_timeout_s, defaults.idle_timeout_s);
  EXPECT_EQ(opts.chunk_bytes, defaults.chunk_bytes);
  unsetenv("RTCC_STREAM_FLOWS");
  unsetenv("RTCC_STREAM_IDLE");
  unsetenv("RTCC_STREAM_CHUNK");
}

TEST(EnvKnob, CorpusRepeatsFallBackToTheCorpusDefault) {
  // A corpus run defaults to the paper's 5 repeats (90 calls); an
  // invalid RTCC_REPEATS must fall back to that, not to the 2 of a
  // plain experiment.
  const char* bad[] = {"abc", "0", "-1", "3x"};
  for (const char* s : bad) {
    setenv("RTCC_REPEATS", s, 1);
    EXPECT_EQ(rtcc::report::corpus_options_from_env().experiment.repeats, 5)
        << "input: '" << s << "'";
  }
  setenv("RTCC_REPEATS", "3", 1);
  EXPECT_EQ(rtcc::report::corpus_options_from_env().experiment.repeats, 3);
  unsetenv("RTCC_REPEATS");
  EXPECT_EQ(rtcc::report::corpus_options_from_env().experiment.repeats, 5);
}

}  // namespace
