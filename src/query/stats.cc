#include "query/stats.h"

#include <algorithm>

namespace sbon::query {

double SelectOutputRate(double r, double selectivity) {
  return r * std::clamp(selectivity, 0.0, 1.0);
}

double JoinOutputRate(double r_left, double r_right, double selectivity,
                      double window_s) {
  return 2.0 * std::clamp(selectivity, 0.0, 1.0) * r_left * r_right *
         window_s;
}

double JoinOutputTupleSize(double size_left, double size_right) {
  return size_left + size_right;
}

double CrossSelectivity(std::span<const size_t> left_set,
                        std::span<const size_t> right_set,
                        const std::vector<std::vector<double>>& pair_sel) {
  double s = 1.0;
  if (pair_sel.empty()) return s;
  for (size_t i : left_set) {
    for (size_t j : right_set) {
      s *= pair_sel[i][j];
    }
  }
  return s;
}

}  // namespace sbon::query
