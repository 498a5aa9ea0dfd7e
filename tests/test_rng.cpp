#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace vq {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256ss a{123};
  Xoshiro256ss b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256ss a{1};
  Xoshiro256ss b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, Uniform01InRangeAndWellSpread) {
  Xoshiro256ss rng{7};
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Xoshiro, BelowCoversFullRangeUniformly) {
  Xoshiro256ss rng{11};
  constexpr std::uint64_t kBuckets = 10;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 10.0, kN / 10.0 * 0.1);
  }
}

TEST(Xoshiro, BernoulliExtremes) {
  Xoshiro256ss rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Xoshiro, BernoulliFrequency) {
  Xoshiro256ss rng{6};
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Xoshiro, NormalMoments) {
  Xoshiro256ss rng{8};
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Xoshiro, LognormalMedian) {
  Xoshiro256ss rng{9};
  std::vector<double> xs;
  constexpr int kN = 50'001;
  xs.reserve(kN);
  for (int i = 0; i < kN; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + kN / 2, xs.end());
  EXPECT_NEAR(xs[kN / 2], std::exp(1.0), 0.05);
}

TEST(Xoshiro, ExponentialMean) {
  Xoshiro256ss rng{10};
  double sum = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(4.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 4.0, 0.05);
}

TEST(Xoshiro, ParetoBoundedBelowAndHeavyTailed) {
  Xoshiro256ss rng{12};
  int above_10x = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.pareto(1.0, 1.1);
    ASSERT_GE(x, 1.0);
    if (x > 10.0) ++above_10x;
  }
  // P(X > 10) = 10^-1.1 ~= 7.9%.
  EXPECT_NEAR(above_10x / static_cast<double>(kN), 0.079, 0.01);
}

TEST(Xoshiro, DeriveIsDeterministicAndDecorrelated) {
  const Xoshiro256ss base{42};
  Xoshiro256ss a = base.derive(1);
  Xoshiro256ss a2 = base.derive(1);
  Xoshiro256ss b = base.derive(2);
  int equal_ab = 0;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, a2());
    if (va == b()) ++equal_ab;
  }
  EXPECT_LE(equal_ab, 1);
}

TEST(ZipfSampler, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
}

TEST(ZipfSampler, PmfSumsToOneAndDecreases) {
  const ZipfSampler zipf{100, 1.0};
  double total = 0.0;
  double prev = 1.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const double p = zipf.pmf(i);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_THROW((void)zipf.pmf(100), std::out_of_range);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  const ZipfSampler zipf{4, 0.0};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(zipf.pmf(i), 0.25, 1e-12);
}

TEST(ZipfSampler, EmpiricalFrequenciesMatchPmf) {
  const ZipfSampler zipf{10, 0.9};
  Xoshiro256ss rng{3};
  std::vector<int> counts(10, 0);
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) ++counts[zipf(rng)];
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(kN), zipf.pmf(i), 0.005);
  }
}

TEST(DiscreteSampler, RejectsBadWeights) {
  const std::vector<double> empty;
  EXPECT_THROW(DiscreteSampler{std::span<const double>{empty}},
               std::invalid_argument);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(DiscreteSampler{std::span<const double>{negative}},
               std::invalid_argument);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(DiscreteSampler{std::span<const double>{zeros}},
               std::invalid_argument);
}

TEST(DiscreteSampler, RespectsWeights) {
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  const DiscreteSampler sampler{std::span<const double>{weights}};
  Xoshiro256ss rng{4};
  std::vector<int> counts(3, 0);
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) ++counts[sampler(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.25, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.75, 0.01);
}

TEST(Splitmix, IsAPermutationStep) {
  // Distinct inputs map to distinct outputs in a small probe set.
  std::vector<std::uint64_t> outs;
  for (std::uint64_t x = 0; x < 1000; ++x) outs.push_back(splitmix64(x));
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
}

}  // namespace
}  // namespace vq
