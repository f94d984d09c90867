// Pins the printed figures: the stdout of every fig/ablation bench (run
// with --smoke) and of every example, byte for byte, against
// tests/golden/stdout_<program>.golden. Every program is seeded, so a diff
// here means that a printed number, label or claim changed — if
// intentional, regenerate with SBON_UPDATE_GOLDEN=1 and commit.
//
// The build passes the programs (`SBON_FIGURE_PROGRAMS`, one "<target>
// [args]" per comma-separated item) and their directory
// (`SBON_FIGURE_BIN_DIR`), and builds them before this test.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/golden.h"

#if !defined(SBON_FIGURE_PROGRAMS) || !defined(SBON_FIGURE_BIN_DIR)
#error "SBON_FIGURE_PROGRAMS and SBON_FIGURE_BIN_DIR must be defined"
#endif

namespace sbon::test {
namespace {

std::vector<std::string> Programs() {
  std::vector<std::string> out;
  std::istringstream in(SBON_FIGURE_PROGRAMS);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  return out;
}

// "<target> [args]" -> "<target>".
std::string TargetOf(const std::string& program) {
  return program.substr(0, program.find(' '));
}

class FigureGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FigureGoldenTest, StdoutMatchesGolden) {
#ifndef SBON_GOLDEN_REFERENCE_TOOLCHAIN
  GTEST_SKIP() << "golden comparison runs only on the reference toolchain "
                  "(gcc, unsanitized)";
#endif
  const std::string command =
      std::string(SBON_FIGURE_BIN_DIR) + "/" + GetParam();
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << command;
  std::string out;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    out.append(buf, n);
  }
  ASSERT_EQ(pclose(pipe), 0) << command;
  EXPECT_EQ("", CheckGolden("stdout_" + TargetOf(GetParam()), out));
}

INSTANTIATE_TEST_SUITE_P(
    Programs, FigureGoldenTest, ::testing::ValuesIn(Programs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return TargetOf(info.param);
    });

}  // namespace
}  // namespace sbon::test
