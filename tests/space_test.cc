// Tests for parameters, ConfigSpace codec and Subspace projection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.h"
#include "space/config_space.h"
#include "space/subspace.h"
#include "reference_codec.h"

namespace sparktune {
namespace {

ConfigSpace SmallSpace() {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Int("instances", 1, 100, 8, true)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("fraction", 0.3, 0.9, 0.6)).ok());
  EXPECT_TRUE(
      s.Add(Parameter::Categorical("codec", {"lz4", "snappy", "zstd"}, 0))
          .ok());
  EXPECT_TRUE(s.Add(Parameter::Bool("compress", true)).ok());
  return s;
}

TEST(ParameterTest, IntUnitRoundTrip) {
  Parameter p = Parameter::Int("x", 1, 100, 8, /*log_scale=*/true);
  for (double v : {1.0, 8.0, 50.0, 100.0}) {
    double u = p.ToUnit(v);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_DOUBLE_EQ(p.FromUnit(u), v);
  }
}

TEST(ParameterTest, LogScaleSpreadsSmallValues) {
  Parameter lin = Parameter::Int("a", 1, 1000, 1, false);
  Parameter log = Parameter::Int("b", 1, 1000, 1, true);
  // 10 is near the bottom linearly but well inside the log scale.
  EXPECT_LT(lin.ToUnit(10.0), 0.02);
  EXPECT_GT(log.ToUnit(10.0), 0.3);
}

TEST(ParameterTest, CachedLogBoundsMatchClosedForm) {
  // ToUnit/FromUnit reuse log(lo) and log(hi) - log(lo) cached at
  // construction; every result must equal the closed form that recomputes
  // the logs per call, bit for bit.
  const std::vector<Parameter> params = {
      Parameter::Int("i", 1, 1000, 8, true),
      Parameter::Int("overhead", 384, 4096, 384, true),
      Parameter::Int("pinned_i", 7, 7, 7, true),
      Parameter::Float("f", 0.01, 50.0, 1.0, true),
      Parameter::Float("wide", 1e-3, 1e3, 1.0, true),
      Parameter::Float("pinned_f", 2.5, 2.5, 2.5, true),
  };
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  Rng rng(31);
  for (const Parameter& p : params) {
    std::vector<double> values = {p.lo(), p.hi(), p.lo() * 0.5,
                                  p.lo() * 1e-3, 0.0, p.hi() * 2.0};
    std::vector<double> units = {0.0, 1.0, 0.5, -0.25, 1.25};
    for (int k = 0; k < 200; ++k) {
      values.push_back(p.lo() + rng.Uniform() * (p.hi() - p.lo()));
      units.push_back(rng.Uniform());
    }
    for (double v : values) {
      EXPECT_EQ(bits(p.ToUnit(v)), bits(reference::ToUnit(p, v)))
          << p.name() << " v=" << v;
    }
    for (double u : units) {
      EXPECT_EQ(bits(p.FromUnit(u)), bits(reference::FromUnit(p, u)))
          << p.name() << " u=" << u;
    }
  }
}

TEST(ParameterTest, CategoricalBuckets) {
  Parameter p = Parameter::Categorical("c", {"a", "b", "c"}, 1);
  EXPECT_DOUBLE_EQ(p.FromUnit(0.1), 0.0);
  EXPECT_DOUBLE_EQ(p.FromUnit(0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.FromUnit(0.99), 2.0);
  // Bucket centers round-trip.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(p.FromUnit(p.ToUnit(i)), i);
  }
  EXPECT_EQ(p.FormatValue(2.0), "c");
}

TEST(ParameterTest, BoolRoundTrip) {
  Parameter p = Parameter::Bool("flag", false);
  EXPECT_DOUBLE_EQ(p.FromUnit(0.2), 0.0);
  EXPECT_DOUBLE_EQ(p.FromUnit(0.8), 1.0);
  EXPECT_DOUBLE_EQ(p.FromUnit(p.ToUnit(1.0)), 1.0);
  EXPECT_EQ(p.FormatValue(1.0), "true");
}

TEST(ParameterTest, LegalizeClampsAndRounds) {
  Parameter p = Parameter::Int("x", 2, 10, 5);
  EXPECT_DOUBLE_EQ(p.Legalize(3.4), 3.0);
  EXPECT_DOUBLE_EQ(p.Legalize(-1.0), 2.0);
  EXPECT_DOUBLE_EQ(p.Legalize(99.0), 10.0);
  Parameter f = Parameter::Float("y", 0.0, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(f.Legalize(0.33), 0.33);
}

TEST(ConfigSpaceTest, RejectsDuplicateNames) {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Bool("x", true)).ok());
  EXPECT_FALSE(s.Add(Parameter::Bool("x", false)).ok());
}

TEST(ConfigSpaceTest, DefaultMatchesParameterDefaults) {
  ConfigSpace s = SmallSpace();
  Configuration d = s.Default();
  EXPECT_DOUBLE_EQ(s.Get(d, "instances"), 8.0);
  EXPECT_DOUBLE_EQ(s.Get(d, "fraction"), 0.6);
  EXPECT_DOUBLE_EQ(s.Get(d, "codec"), 0.0);
  EXPECT_DOUBLE_EQ(s.Get(d, "compress"), 1.0);
  EXPECT_TRUE(s.Validate(d).ok());
}

TEST(ConfigSpaceTest, SamplesAreValid) {
  ConfigSpace s = SmallSpace();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Configuration c = s.Sample(&rng);
    ASSERT_TRUE(s.Validate(c).ok()) << s.Format(c);
  }
}

TEST(ConfigSpaceTest, UnitRoundTrip) {
  ConfigSpace s = SmallSpace();
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    Configuration c = s.Sample(&rng);
    Configuration back = s.FromUnit(s.ToUnit(c));
    for (size_t k = 0; k < s.size(); ++k) {
      EXPECT_NEAR(back[k], c[k], 1e-9) << s.param(k).name();
    }
  }
}

TEST(ConfigSpaceTest, ValidateCatchesOutOfRange) {
  ConfigSpace s = SmallSpace();
  Configuration c = s.Default();
  c[1] = 5.0;  // fraction out of [0.3, 0.9]
  EXPECT_FALSE(s.Validate(c).ok());
  Configuration wrong_size(std::vector<double>{1.0});
  EXPECT_FALSE(s.Validate(wrong_size).ok());
}

TEST(ConfigSpaceTest, FormatMentionsEveryParameter) {
  ConfigSpace s = SmallSpace();
  std::string f = s.Format(s.Default());
  EXPECT_NE(f.find("instances=8"), std::string::npos);
  EXPECT_NE(f.find("codec=lz4"), std::string::npos);
  EXPECT_NE(f.find("compress=true"), std::string::npos);
}

TEST(SubspaceTest, PinnedDimsStayAtBase) {
  ConfigSpace s = SmallSpace();
  Configuration base = s.Default();
  Subspace sub(&s, {0}, base);  // only "instances" free
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Configuration c = sub.Sample(&rng);
    EXPECT_DOUBLE_EQ(c[1], base[1]);
    EXPECT_DOUBLE_EQ(c[2], base[2]);
    EXPECT_DOUBLE_EQ(c[3], base[3]);
    EXPECT_TRUE(s.Validate(c).ok());
  }
}

TEST(SubspaceTest, FullCoversAllParams) {
  ConfigSpace s = SmallSpace();
  Subspace full = Subspace::Full(&s);
  EXPECT_EQ(full.num_free(), s.size());
}

TEST(SubspaceTest, DuplicateFreeIndicesIgnored) {
  ConfigSpace s = SmallSpace();
  Subspace sub(&s, {0, 0, 1}, s.Default());
  EXPECT_EQ(sub.num_free(), 2u);
  EXPECT_TRUE(sub.IsFree(0));
  EXPECT_TRUE(sub.IsFree(1));
  EXPECT_FALSE(sub.IsFree(2));
}

TEST(SubspaceTest, NeighborOnlyMovesFreeDims) {
  ConfigSpace s = SmallSpace();
  Configuration base = s.Default();
  Subspace sub(&s, {1}, base);
  Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    Configuration n = sub.Neighbor(base, 0.2, &rng);
    EXPECT_DOUBLE_EQ(n[0], base[0]);
    EXPECT_DOUBLE_EQ(n[2], base[2]);
    EXPECT_TRUE(s.Validate(n).ok());
  }
}

TEST(SubspaceTest, NeighborChangesSomething) {
  ConfigSpace s = SmallSpace();
  Subspace sub(&s, {0, 1}, s.Default());
  Rng rng(7);
  int changed = 0;
  for (int i = 0; i < 40; ++i) {
    Configuration n = sub.Neighbor(s.Default(), 0.3, &rng);
    if (!(n == s.Default())) ++changed;
  }
  EXPECT_GT(changed, 25);
}

TEST(SubspaceTest, ProjectOverwritesPinnedDims) {
  ConfigSpace s = SmallSpace();
  Configuration base = s.Default();
  Subspace sub(&s, {0}, base);
  Rng rng(8);
  Configuration other = s.Sample(&rng);
  Configuration proj = sub.Project(other);
  EXPECT_DOUBLE_EQ(proj[0], other[0]);
  EXPECT_DOUBLE_EQ(proj[1], base[1]);
  EXPECT_DOUBLE_EQ(proj[3], base[3]);
}

TEST(SubspaceTest, NeighborMatchesUnitVectorReference) {
  // Neighbor perturbs the free dims in place; it must reproduce the
  // encode-perturb-decode reference bit for bit and draw the same random
  // numbers, including the forced move when no dim was picked.
  ConfigSpace s = SmallSpace();
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  Rng sampler(17);
  for (const std::vector<int>& free :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 2},
        std::vector<int>{1}, std::vector<int>{}}) {
    Subspace sub(&s, free, s.Sample(&sampler));
    for (double sigma : {0.05, 0.3, 2.0}) {
      Rng rng(41), ref_rng(41);
      for (int k = 0; k < 200; ++k) {
        Configuration c = s.Sample(&sampler);
        Configuration got = sub.Neighbor(c, sigma, &rng);
        Configuration want = reference::Neighbor(sub, c, sigma, &ref_rng);
        for (size_t i = 0; i < s.size(); ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i]))
              << "free dims " << free.size() << " sigma " << sigma
              << " draw " << k << " dim " << i;
        }
      }
      EXPECT_EQ(rng.Next(), ref_rng.Next());
    }
  }
}

}  // namespace
}  // namespace sparktune
