// metrics::append_fixed / fmt: byte-identical to printf("%.*f").
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "metrics/csv.hpp"
#include "sim/random.hpp"

namespace han::metrics {
namespace {

std::string printf_fixed(double v, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string appended(double v, int precision) {
  std::string out = "x";
  append_fixed(out, v, precision);
  return out.substr(1);
}

/// Number of mismatches; the first few are reported.
int expect_matches_printf(double v, int precision, int& reported) {
  const std::string want = printf_fixed(v, precision);
  const std::string got = appended(v, precision);
  if (got == want) return 0;
  if (reported++ < 5) {
    ADD_FAILURE() << "v=" << printf_fixed(v, 20) << " precision=" << precision
                  << " printf=" << want << " append_fixed=" << got;
  }
  return 1;
}

TEST(AppendFixed, AppendsAndFmtAgrees) {
  std::string out = "a,";
  append_fixed(out, 1.25, 1);
  EXPECT_EQ(out, "a,1.2");  // exact tie rounds to even, like printf
  EXPECT_EQ(fmt(3.14159, 3), "3.142");
  EXPECT_EQ(fmt(2.0), "2.00");
}

TEST(AppendFixed, MatchesPrintfOnSeededSweep) {
  sim::Rng rng(2024);
  int reported = 0;
  int bad = 0;
  for (int i = 0; i < 200000; ++i) {
    const int precision = static_cast<int>(rng.uniform_int(0, 6));
    const double magnitude = std::pow(10.0, rng.uniform(-6.0, 12.0));
    const double v = rng.uniform(-1.0, 1.0) * magnitude;
    bad += expect_matches_printf(v, precision, reported);
  }
  EXPECT_EQ(bad, 0);
}

TEST(AppendFixed, MatchesPrintfOnHalfwayCases) {
  int reported = 0;
  int bad = 0;
  const struct {
    double v;
    int precision;
  } cases[] = {
      {0.0005, 3}, {1.0005, 3}, {2.5, 0},    {0.5, 0},   {1.5, 0},
      {3.5, 0},    {0.125, 2},  {0.375, 2},  {-2.5, 0},  {-0.0005, 3},
      {1e15 + 0.5, 0}, {2.675, 2}, {1.0000005, 6},
  };
  for (const auto& c : cases) {
    bad += expect_matches_printf(c.v, c.precision, reported);
  }
  // Every k + 1/2 and k/8 (exact binary ties) up to 1e4.
  for (int k = 0; k < 10000; ++k) {
    for (int precision = 0; precision <= 3; ++precision) {
      bad += expect_matches_printf(k + 0.5, precision, reported);
      bad += expect_matches_printf(k / 8.0, precision, reported);
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(AppendFixed, MatchesPrintfOnEdgeValues) {
  int reported = 0;
  int bad = 0;
  const double values[] = {
      0.0,
      -0.0,
      -1e-9,
      1e-9,
      1e15,
      -1e15,
      9007199254740993.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-310,
      std::numeric_limits<double>::min(),
      1e300,
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::max(),
  };
  for (const double v : values) {
    for (const int precision : {0, 1, 3, 6, 17, 40}) {
      bad += expect_matches_printf(v, precision, reported);
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(AppendFixed, MatchesPrintfOnMinutesOfTheTickGrid) {
  // The signal log prints sim::Duration::minutes_f() (microsecond ticks
  // / 60e6) at 3 and 1 decimals: every second of two days, plus random
  // microsecond ticks over a week.
  int reported = 0;
  int bad = 0;
  for (std::int64_t s = 0; s <= 2 * 86400; ++s) {
    const double minutes = static_cast<double>(s * 1'000'000) / 60e6;
    bad += expect_matches_printf(minutes, 3, reported);
    bad += expect_matches_printf(minutes, 1, reported);
  }
  sim::Rng rng(60);
  for (int i = 0; i < 200000; ++i) {
    const std::int64_t us = rng.uniform_int(0, 7LL * 86400 * 1'000'000);
    bad += expect_matches_printf(static_cast<double>(us) / 60e6, 3, reported);
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace han::metrics
