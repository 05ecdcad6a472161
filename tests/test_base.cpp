// Unit tests for the base utilities: errors, config, RNG, stats.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "base/config.hpp"
#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/stats.hpp"

namespace {

using namespace ap3;

TEST(Error, RequireThrowsWithContext) {
  try {
    AP3_REQUIRE_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(AP3_REQUIRE(2 + 2 == 4));
}

TEST(Config, ParsesKeyValueLines) {
  const Config c = Config::from_string(
      "a = 1\n"
      "b = 2.5   # trailing comment\n"
      "# full comment\n"
      "name = grist\n"
      "flag = true\n");
  EXPECT_EQ(c.get_int("a"), 1);
  EXPECT_DOUBLE_EQ(c.get_double("b"), 2.5);
  EXPECT_EQ(c.get_string("name"), "grist");
  EXPECT_TRUE(c.get_bool("flag"));
}

TEST(Config, MissingKeyThrows) {
  const Config c = Config::from_string("a = 1\n");
  EXPECT_THROW(c.get_int("zz"), ConfigError);
  EXPECT_EQ(c.get_int_or("zz", 7), 7);
}

TEST(Config, MalformedValueThrows) {
  const Config c = Config::from_string("a = notanumber\n");
  EXPECT_THROW(c.get_int("a"), ConfigError);
  EXPECT_THROW(c.get_double("a"), ConfigError);
  EXPECT_THROW(c.get_bool("a"), ConfigError);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::from_string("no equals sign here\n"), ConfigError);
}

TEST(Config, SliceStripsPrefix) {
  const Config c = Config::from_string("atm.dt = 120\nocn.dt = 20\n");
  const Config atm = c.slice("atm.");
  EXPECT_EQ(atm.get_int("dt"), 120);
  EXPECT_FALSE(atm.has("ocn.dt"));
}

TEST(Config, MergeOverrides) {
  Config a = Config::from_string("x = 1\ny = 2\n");
  const Config b = Config::from_string("y = 3\nz = 4\n");
  a.merge(b);
  EXPECT_EQ(a.get_int("x"), 1);
  EXPECT_EQ(a.get_int("y"), 3);
  EXPECT_EQ(a.get_int("z"), 4);
}

TEST(Config, RoundTripsThroughToString) {
  Config a;
  a.set("pi", 3.25);
  a.set("n", 42LL);
  const Config b = Config::from_string(a.to_string());
  EXPECT_DOUBLE_EQ(b.get_double("pi"), 3.25);
  EXPECT_EQ(b.get_int("n"), 42);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalHasUnitVarianceApprox) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Stats, RelativeL2OfIdenticalIsZero) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::relative_l2(x, x), 0.0);
}

TEST(Stats, RelativeL2Scales) {
  const std::vector<double> ref = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> test = {1.1, 1.1, 1.1, 1.1};
  EXPECT_NEAR(stats::relative_l2(test, ref), 0.1, 1e-12);
}

TEST(Stats, WeightedRmsdIgnoresZeroWeightPoints) {
  const std::vector<double> ref = {0.0, 1.0};
  const std::vector<double> test = {100.0, 1.0};  // huge error on land point
  const std::vector<double> area = {0.0, 1.0};    // land has zero area weight
  EXPECT_DOUBLE_EQ(stats::weighted_rmsd(test, ref, area), 0.0);
}

TEST(Stats, WeightedRmsdMatchesPlainForUniformWeights) {
  const std::vector<double> ref = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> test = {1.5, 2.5, 2.5, 4.5};
  const std::vector<double> area = {2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(stats::weighted_rmsd(test, ref, area), stats::rmsd(test, ref),
              1e-12);
}

TEST(Stats, CorrelationOfLinearIsOne) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::correlation(x, y), 1.0, 1e-12);
}

TEST(Stats, RSquaredPerfectPrediction) {
  const std::vector<double> t = {1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::r_squared(t, t), 1.0);
}

TEST(Constants, EarthValuesSane) {
  EXPECT_NEAR(constants::kEarthRadiusM, 6.371e6, 1e3);
  EXPECT_NEAR(constants::kKappa, 0.2857, 1e-3);
  EXPECT_DOUBLE_EQ(constants::kSecondsPerDay, 86400.0);
}

}  // namespace
