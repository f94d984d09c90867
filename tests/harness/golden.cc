#include "harness/golden.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef SBON_TEST_GOLDEN_DIR
#error "SBON_TEST_GOLDEN_DIR must be defined by the build system"
#endif

namespace sbon::test {
namespace {

std::string Num(double x, const char* fmt = "%.6g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, x);
  return buf;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

std::string CircuitFingerprint(const overlay::Circuit& circuit) {
  std::ostringstream out;
  for (size_t i = 0; i < circuit.NumVertices(); ++i) {
    const auto& v = circuit.vertex(static_cast<int>(i));
    out << "v" << i << " op=" << i << " host=" << v.host;
    if (v.pinned) out << " pinned";
    if (v.reused) out << " reused";
    out << "\n";
  }
  for (const auto& e : circuit.edges()) {
    out << "e " << e.from << "->" << e.to
        << " rate=" << Num(e.rate_bytes_per_s);
    if (!e.physical) out << " virtual";
    out << "\n";
  }
  return out.str();
}

std::string OverlayFingerprint(const overlay::Sbon& sbon) {
  std::ostringstream out;
  out << "nodes=" << sbon.topology().NumNodes()
      << " overlay=" << sbon.overlay_nodes().size()
      << " circuits=" << sbon.ledger().circuits().size()
      << " services=" << sbon.ledger().NumServices() << "\n";
  // Aggregates use coarse rounding (3 significant digits): they pin gross
  // behavior without flaking on last-ulp differences between toolchains.
  out << "total_usage=" << Num(sbon.TotalNetworkUsage(), "%.3g")
      << " max_load=" << Num(sbon.MaxLoad(), "%.3g") << "\n";
  for (const auto& [id, circuit] : sbon.ledger().circuits()) {
    out << "circuit " << id << "\n" << CircuitFingerprint(circuit);
  }
  return out.str();
}

std::string GoldenPath(const std::string& name) {
  return std::string(SBON_TEST_GOLDEN_DIR) + "/" + name + ".golden";
}

std::string CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  const char* update = std::getenv("SBON_UPDATE_GOLDEN");
  if (update != nullptr && update[0] != '\0' && update[0] != '0') {
    std::ofstream out(path);
    if (!out) return "cannot write golden file: " + path;
    out << actual;
    out.flush();
    if (!out.good()) return "short write to golden file: " + path;
    return "";
  }

  std::ifstream in(path);
  if (!in) {
    return "missing golden file " + path +
           " (run with SBON_UPDATE_GOLDEN=1 to create it)";
  }
  std::ostringstream want;
  want << in.rdbuf();

  if (want.str() == actual) return "";

  const auto want_lines = SplitLines(want.str());
  const auto got_lines = SplitLines(actual);
  const size_t n = std::max(want_lines.size(), got_lines.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string w = i < want_lines.size() ? want_lines[i] : "<eof>";
    const std::string g = i < got_lines.size() ? got_lines[i] : "<eof>";
    if (w != g) {
      return "golden mismatch vs " + path + " at line " +
             std::to_string(i + 1) + ":\n  want: " + w + "\n  got:  " + g +
             "\n(set SBON_UPDATE_GOLDEN=1 to accept the new output)";
    }
  }
  return "golden mismatch vs " + path +
         " (content differs only in trailing whitespace or line endings; " +
         "set SBON_UPDATE_GOLDEN=1 to normalize)";
}

}  // namespace sbon::test
