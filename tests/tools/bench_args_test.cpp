// The shared bench CLI's --jobs parse (bench/bench_util.hpp): decimal
// digits only, 1..kMaxJobs (ptb-serve's --jobs range), exit status 2
// otherwise. Only the parser runs here: no RunPool is built, so no value
// under test can start a thread.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ptb::bench {
namespace {

BenchOptions parse(std::vector<std::string> args) {
  std::string prog = "bench";
  std::vector<char*> argv{prog.data()};
  for (std::string& a : args) argv.push_back(a.data());
  return parse_bench_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, JobsAcceptsItsRangeInEverySpelling) {
  EXPECT_EQ(parse({"-j", "1"}).jobs, 1u);
  EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4u);
  EXPECT_EQ(parse({"--jobs=4096"}).jobs, kMaxJobs);
  EXPECT_EQ(parse({}).jobs, 0u);  // unset: RunPool picks its default
}

TEST(BenchArgsDeathTest, JobsRejectsGarbageAndOutOfRange) {
  for (const char* v : {"4x", "0", "4097", "-1", " 4", "+4", "4294967297",
                        "99999999999999999999", ""}) {
    SCOPED_TRACE(std::string("--jobs '") + v + "'");
    EXPECT_EXIT(parse({"-j", v}), ::testing::ExitedWithCode(2),
                "bad --jobs value");
    EXPECT_EXIT(parse({std::string("--jobs=") + v}),
                ::testing::ExitedWithCode(2), "bad --jobs value");
  }
}

}  // namespace
}  // namespace ptb::bench
