// The bench harnesses' environment knobs (bench/bench_common.h).

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/bench_common.h"

namespace vq {
namespace {

TEST(BenchEnv, EnvParsingFallsBack) {
  ::unsetenv("VIDQUAL_TEST_KNOB");
  EXPECT_EQ(bench::env_u64("VIDQUAL_TEST_KNOB", 42), 42u);
  ::setenv("VIDQUAL_TEST_KNOB", "17", 1);
  EXPECT_EQ(bench::env_u64("VIDQUAL_TEST_KNOB", 42), 17u);
  ::unsetenv("VIDQUAL_TEST_KNOB");
}

}  // namespace
}  // namespace vq
