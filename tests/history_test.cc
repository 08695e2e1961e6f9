// Tests for RunHistory, in particular the hash-indexed Contains(): it must
// keep the exact semantics of the old linear scan (value equality,
// -0.0 == 0.0, NaN never matches) while being O(1) per lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "bo/history.h"

namespace sparktune {
namespace {

ConfigSpace TwoDSpace() {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Float("a", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("b", 0.0, 1.0, 0.5)).ok());
  return s;
}

Observation Obs(Configuration c, double objective = 1.0) {
  Observation o;
  o.config = std::move(c);
  o.objective = objective;
  o.feasible = true;
  return o;
}

TEST(RunHistoryTest, ContainsMatchesExactValues) {
  ConfigSpace space = TwoDSpace();
  RunHistory h;
  Rng rng(11);
  std::vector<Configuration> added;
  for (int i = 0; i < 50; ++i) {
    added.push_back(space.Sample(&rng));
    h.Add(Obs(added.back()));
  }
  for (const Configuration& c : added) EXPECT_TRUE(h.Contains(c));
  // Any perturbation, however small, is a different configuration.
  Configuration tweaked = added[7];
  tweaked[0] = std::nextafter(tweaked[0], 2.0);
  EXPECT_FALSE(h.Contains(tweaked));
  EXPECT_FALSE(h.Contains(space.Sample(&rng)));
}

TEST(RunHistoryTest, SignedZeroHashesLikeUnsignedZero) {
  // 0.0 == -0.0 under operator==, so the hash must agree too — otherwise
  // Contains would miss a config the linear scan used to find.
  ConfigSpace space = TwoDSpace();
  Configuration pos = space.Default();
  pos[0] = 0.0;
  Configuration neg = space.Default();
  neg[0] = -0.0;
  ASSERT_TRUE(pos == neg);
  RunHistory h;
  h.Add(Obs(pos));
  EXPECT_TRUE(h.Contains(neg));
  RunHistory h2;
  h2.Add(Obs(neg));
  EXPECT_TRUE(h2.Contains(pos));
}

TEST(RunHistoryTest, NanNeverMatches) {
  ConfigSpace space = TwoDSpace();
  Configuration c = space.Default();
  c[1] = std::numeric_limits<double>::quiet_NaN();
  RunHistory h;
  h.Add(Obs(c));
  // NaN != NaN, so even the identical stored config does not "contain".
  EXPECT_FALSE(h.Contains(c));
  EXPECT_FALSE(h.Contains(space.Default()));
}

TEST(RunHistoryTest, DuplicatesAndClear) {
  ConfigSpace space = TwoDSpace();
  Configuration c = space.Default();
  RunHistory h;
  h.Add(Obs(c, 1.0));
  h.Add(Obs(c, 2.0));  // same config evaluated twice is legal
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.Contains(c));
  h.Clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.Contains(c));
  // The index must be rebuilt correctly after Clear.
  h.Add(Obs(c));
  EXPECT_TRUE(h.Contains(c));
  EXPECT_EQ(h.size(), 1u);
}

TEST(RunHistoryTest, RepeatedAddKeepsOneIndexEntry) {
  // A periodic task re-runs its incumbent config for thousands of periods;
  // the config index must hold ONE entry per unique configuration, not one
  // per observation, or the index grows linearly with executions.
  ConfigSpace space = TwoDSpace();
  Configuration c = space.Default();
  RunHistory h;
  for (int i = 0; i < 100; ++i) h.Add(Obs(c, 1.0 + i));
  EXPECT_EQ(h.size(), 100u);
  EXPECT_EQ(h.IndexEntries(c), 1u);
  EXPECT_TRUE(h.Contains(c));

  // A distinct config gets its own (single) entry and leaves the first
  // bucket untouched.
  Configuration d = c;
  d[0] = 0.25;
  h.Add(Obs(d));
  h.Add(Obs(d));
  EXPECT_EQ(h.IndexEntries(d), 1u);
  EXPECT_EQ(h.IndexEntries(c), 1u);

  // Clear rebuilds an empty index; re-adding restores the invariant.
  h.Clear();
  EXPECT_EQ(h.IndexEntries(c), 0u);
  h.Add(Obs(c));
  h.Add(Obs(c));
  EXPECT_EQ(h.IndexEntries(c), 1u);
}

TEST(RunHistoryTest, LargeHistoryLookupsStayExact) {
  // Stress the bucket structure: many configs, some sharing coordinates.
  ConfigSpace space = TwoDSpace();
  RunHistory h;
  std::vector<Configuration> added;
  for (int i = 0; i < 400; ++i) {
    Configuration c = space.Default();
    c[0] = (i % 20) / 20.0;
    c[1] = (i / 20) / 20.0;
    added.push_back(c);
    h.Add(Obs(c));
  }
  for (const Configuration& c : added) EXPECT_TRUE(h.Contains(c));
  Configuration missing = space.Default();
  missing[0] = 0.025;  // between grid points
  missing[1] = 0.025;
  EXPECT_FALSE(h.Contains(missing));
}

TEST(RunHistoryTest, WordHashKeepsLookupSemantics) {
  // ConfigKey mixes each coordinate's 64-bit pattern as one word; lookups
  // must keep the exact-match semantics on a 30-parameter space.
  ConfigSpace space;
  for (int i = 0; i < 30; ++i) {
    const std::string name = "p" + std::to_string(i);
    Status s = i % 3 == 0
                   ? space.Add(Parameter::Int(name, 1, 512, 4, true))
                   : space.Add(Parameter::Float(name, -1.0, 1.0, 0.0));
    ASSERT_TRUE(s.ok());
  }
  RunHistory h;
  // 0.0 and -0.0 are one configuration: one index entry.
  Configuration pos = space.Default();
  Configuration neg = pos;
  neg[1] = -0.0;
  h.Add(Obs(pos));
  EXPECT_TRUE(h.Contains(neg));
  h.Add(Obs(neg));
  EXPECT_EQ(h.IndexEntries(pos), 1u);
  EXPECT_EQ(h.IndexEntries(neg), 1u);
  // A NaN configuration never matches, not even itself.
  Configuration nan = space.Default();
  nan[2] = std::numeric_limits<double>::quiet_NaN();
  h.Add(Obs(nan));
  EXPECT_FALSE(h.Contains(nan));
  // Re-adding the incumbent keeps its single entry.
  Rng rng(8);
  std::vector<Configuration> added;
  for (int i = 0; i < 200; ++i) {
    added.push_back(space.Sample(&rng));
    h.Add(Obs(added.back()));
  }
  for (int i = 0; i < 20; ++i) h.Add(Obs(added[17], 0.5));
  EXPECT_EQ(h.IndexEntries(added[17]), 1u);
  for (const Configuration& c : added) EXPECT_TRUE(h.Contains(c));
  // Unseen random configurations are never reported as evaluated.
  int unseen = 0;
  while (unseen < 10000) {
    Configuration c = space.Sample(&rng);
    if (std::find(added.begin(), added.end(), c) != added.end()) continue;
    ++unseen;
    ASSERT_FALSE(h.Contains(c)) << unseen;
  }
}

}  // namespace
}  // namespace sparktune
