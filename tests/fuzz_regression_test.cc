// Replays every checked-in fuzz corpus and regression input through the
// exact harness entry functions the fuzzers run (fuzz/fuzz_*.cc, linked in
// via the pincer_fuzz_harnesses library). A crash found by fuzzing gets its
// input checked into fuzz/regressions/<target>/ and is re-executed here on
// every test run — tier 1, no libFuzzer required.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/fuzz_harness.h"
#include "gtest/gtest.h"

namespace pincer {
namespace {

namespace fs = std::filesystem;

using HarnessFn = int (*)(const uint8_t*, size_t);

struct HarnessCase {
  const char* name;  // corpus/regressions subdirectory
  HarnessFn fn;
};

// Prints the case by name so the listed test names are the same in every
// build; the default printer dumps the raw pointer bytes, which move with
// the binary layout and with address-space randomisation.
void PrintTo(const HarnessCase& harness, std::ostream* os) {
  *os << harness.name;
}

class FuzzReplayTest : public ::testing::TestWithParam<HarnessCase> {};

std::vector<fs::path> InputsUnder(const fs::path& dir) {
  std::vector<fs::path> inputs;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return inputs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) inputs.push_back(entry.path());
  }
  std::sort(inputs.begin(), inputs.end());
  return inputs;
}

TEST_P(FuzzReplayTest, CorpusAndRegressionsRunClean) {
  const HarnessCase& harness = GetParam();
  const fs::path root(PINCER_FUZZ_DIR);
  std::vector<fs::path> inputs = InputsUnder(root / "corpus" / harness.name);
  const std::vector<fs::path> regressions =
      InputsUnder(root / "regressions" / harness.name);
  inputs.insert(inputs.end(), regressions.begin(), regressions.end());
  ASSERT_FALSE(inputs.empty())
      << "no corpus checked in under fuzz/corpus/" << harness.name;
  for (const fs::path& path : inputs) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    // A harness either returns 0 or dies (abort/trap); reaching the next
    // line is the assertion.
    EXPECT_EQ(0, harness.fn(
                     reinterpret_cast<const uint8_t*>(bytes.data()),
                     bytes.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parsers, FuzzReplayTest,
    ::testing::Values(HarnessCase{"database_io", &fuzz::FuzzDatabaseIo},
                      HarnessCase{"json_reader", &fuzz::FuzzJsonReader},
                      HarnessCase{"checkpoint", &fuzz::FuzzCheckpoint},
                      HarnessCase{"failpoint_spec", &fuzz::FuzzFailpointSpec},
                      HarnessCase{"serve_request", &fuzz::FuzzServeRequest},
                      HarnessCase{"shard_result", &fuzz::FuzzShardResult}),
    [](const ::testing::TestParamInfo<HarnessCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pincer
