// The Hilbert encoder against Skilling's transpose algorithm as published
// ("Programming the Hilbert curve", 2004): the multi-level state-table
// encoder (dims <= 4) and the branch-free transpose (dims > 4) must give
// the same key for every cell, in the one-point and the lane form.
// Exhaustive where dims * bits <= 20, 100k random cells per (dims, bits)
// above that up to 16 bits and 20k from 17 to 32 bits. The lane-wise
// quantizer must equal the one-point one, and a division-based reference,
// bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/coord_block.h"
#include "common/rng.h"
#include "dht/hilbert.h"

namespace sbon::dht {
namespace {

// Skilling's AxesToTranspose with its data-dependent branches, then one
// SetBit per index bit: the encoder the fast paths must reproduce.
U128 ReferenceEncode(std::vector<uint32_t> x, unsigned bits) {
  const unsigned n = static_cast<unsigned>(x.size());
  const uint32_t m = 1u << (bits - 1);
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (unsigned i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  for (unsigned i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (unsigned i = 0; i < n; ++i) x[i] ^= t;
  U128 out;
  unsigned out_bit = n * bits;
  for (unsigned b = bits; b-- > 0;) {
    for (unsigned d = 0; d < n; ++d) {
      --out_bit;
      if ((x[d] >> b) & 1u) out.SetBit(out_bit);
    }
  }
  return out;
}

// Both entry points: the vector form and the in-place form on a copy.
void ExpectSameKey(const std::vector<uint32_t>& cell, unsigned bits) {
  const U128 want = ReferenceEncode(cell, bits);
  std::vector<uint32_t> scratch = cell;
  const U128 got = HilbertEncodeInPlace(scratch.data(),
                                        static_cast<unsigned>(cell.size()),
                                        bits);
  ASSERT_EQ(got, want) << "dims " << cell.size() << " bits " << bits;
  ASSERT_EQ(HilbertEncode(cell, bits), want);
}

class HilbertEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HilbertEquivalenceTest, EveryCellWhereDimsTimesBitsAtMost20) {
  const unsigned dims = GetParam();
  for (unsigned bits = 1; dims * bits <= 20; ++bits) {
    SCOPED_TRACE(bits);
    const uint64_t cells = uint64_t{1} << (dims * bits);
    const uint32_t axis_mask = (1u << bits) - 1;
    std::vector<uint32_t> cell(dims);
    for (uint64_t c = 0; c < cells; ++c) {
      for (unsigned d = 0; d < dims; ++d) {
        cell[d] = static_cast<uint32_t>(c >> (d * bits)) & axis_mask;
      }
      ExpectSameKey(cell, bits);
    }
  }
}

TEST_P(HilbertEquivalenceTest, RandomCellsAbove20Bits) {
  const unsigned dims = GetParam();
  for (unsigned bits = 1; bits <= 16 && dims * bits <= 128; ++bits) {
    if (dims * bits <= 20) continue;
    SCOPED_TRACE(bits);
    Rng rng(dims * 100 + bits);
    const uint32_t axis_mask = (1u << bits) - 1;
    std::vector<uint32_t> cell(dims);
    for (int rep = 0; rep < 100000; ++rep) {
      for (uint32_t& a : cell) a = static_cast<uint32_t>(rng.Next()) & axis_mask;
      ExpectSameKey(cell, bits);
    }
  }
}

// The table path up to its widest axes; the two-word split starts at 17
// (dims 4), 21 (dims 3) and 31 (dims 2) bits.
TEST_P(HilbertEquivalenceTest, RandomCellsAt17To32Bits) {
  const unsigned dims = GetParam();
  for (unsigned bits = 17; bits <= 32 && dims * bits <= 128; ++bits) {
    SCOPED_TRACE(bits);
    Rng rng(dims * 1000 + bits);
    const uint32_t axis_mask = static_cast<uint32_t>((uint64_t{1} << bits) - 1);
    std::vector<uint32_t> cell(dims);
    for (int rep = 0; rep < 20000; ++rep) {
      for (uint32_t& a : cell) a = static_cast<uint32_t>(rng.Next()) & axis_mask;
      ExpectSameKey(cell, bits);
    }
    // The box's corners: all-zero and all-one axes.
    ExpectSameKey(std::vector<uint32_t>(dims, 0), bits);
    ExpectSameKey(std::vector<uint32_t>(dims, axis_mask), bits);
  }
}

// Every bit count whose levels do not split evenly into the table's
// floor(6 / dims) levels per lookup, so the top bits % floor(6 / dims)
// levels take the one-level table first: each remainder at dims 1..3 (at
// dims 4 a lookup is one level), with one-word and two-word keys.
TEST(HilbertLeftoverLevelsTest, EveryLeftoverLevelCount) {
  for (unsigned dims = 1; dims <= 3; ++dims) {
    const unsigned per_lookup = 6 / dims;
    for (unsigned bits = 1; bits <= 32; ++bits) {
      if (bits % per_lookup == 0) continue;
      SCOPED_TRACE(::testing::Message() << "dims " << dims << " bits " << bits);
      Rng rng(dims * 10000 + bits);
      const uint32_t axis_mask =
          static_cast<uint32_t>((uint64_t{1} << bits) - 1);
      std::vector<uint32_t> cell(dims);
      for (int rep = 0; rep < 2000; ++rep) {
        for (uint32_t& a : cell) {
          a = static_cast<uint32_t>(rng.Next()) & axis_mask;
        }
        ExpectSameKey(cell, bits);
      }
    }
  }
}

// HilbertEncodeLanes reads axis d of cell j at cells[d * count + j] and
// must give HilbertEncode's key for every cell.
TEST_P(HilbertEquivalenceTest, LanesMatchOnePointForm) {
  const unsigned dims = GetParam();
  constexpr size_t kCount = 37;
  for (unsigned bits : {1u, 7u, 10u, 16u}) {
    if (dims * bits > 128) continue;
    SCOPED_TRACE(bits);
    Rng rng(dims * 7 + bits);
    std::vector<uint32_t> lanes(dims * kCount);
    for (uint32_t& a : lanes) {
      a = static_cast<uint32_t>(rng.Next()) & ((1u << bits) - 1);
    }
    std::vector<U128> keys(kCount);
    HilbertEncodeLanes(lanes.data(), kCount, dims, bits, keys.data());
    for (size_t j = 0; j < kCount; ++j) {
      std::vector<uint32_t> cell(dims);
      for (unsigned d = 0; d < dims; ++d) cell[d] = lanes[d * kCount + j];
      ASSERT_EQ(keys[j], ReferenceEncode(cell, bits)) << "cell " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HilbertEquivalenceTest,
                         ::testing::Range(1u, 9u));

// The quantizer as the ring keys define it: offset over span by a
// division, scaled, floored, clamped.
uint32_t ReferenceCell(double x, double lo, double hi, unsigned bits) {
  const double cells = static_cast<double>(1u << bits);
  const double cell = std::floor((x - lo) / (hi - lo) * cells);
  if (cell < 0.0) return 0;
  if (cell > cells - 1.0) return (1u << bits) - 1;
  return static_cast<uint32_t>(cell);
}

// QuantizeLanes == QuantizeTo == ReferenceCell on every value of `lanes`
// (dims lanes of equal length) under `q`, whose box is [lo, hi].
void ExpectSameCells(const HilbertQuantizer& q,
                     const std::vector<std::vector<double>>& lanes,
                     const std::vector<double>& lo,
                     const std::vector<double>& hi) {
  const size_t dims = lanes.size();
  const size_t count = lanes[0].size();
  CoordBlock block(dims, count);
  for (size_t d = 0; d < dims; ++d) {
    for (size_t j = 0; j < count; ++j) block.At(d, j) = lanes[d][j];
  }
  std::vector<uint32_t> cells(dims * count);
  q.QuantizeLanes(block, count, cells.data());
  std::vector<uint32_t> one(dims);
  for (size_t j = 0; j < count; ++j) {
    Vec p(dims);
    for (size_t d = 0; d < dims; ++d) p[d] = lanes[d][j];
    q.QuantizeTo(p, one.data());
    for (size_t d = 0; d < dims; ++d) {
      const uint32_t want = ReferenceCell(lanes[d][j], lo[d], hi[d], q.bits());
      ASSERT_EQ(one[d], want) << "QuantizeTo dim " << d << " x " << lanes[d][j];
      ASSERT_EQ(cells[d * count + j], want)
          << "QuantizeLanes dim " << d << " x " << lanes[d][j];
    }
  }
}

TEST(HilbertQuantizerLanesTest, MatchesOnePointFormBitForBit) {
  constexpr unsigned kBits = 10;
  const double cells = static_cast<double>(1u << kBits);
  // Dim 2 is degenerate: the quantizer widens it to [lo, lo + 1].
  const std::vector<double> lo = {-3.7, 0.1, 42.0};
  const std::vector<double> hi = {125.3, 0.4, 42.0};
  const std::vector<double> box_hi = {125.3, 0.4, 43.0};
  const HilbertQuantizer q(lo, hi, kBits);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> lanes(3);
  size_t reciprocal_differs = 0;
  for (size_t d = 0; d < 3; ++d) {
    const double span = box_hi[d] - lo[d];
    std::vector<double>& lane = lanes[d];
    // The box's ends and points outside it on both sides.
    for (double x : {lo[d], box_hi[d], lo[d] - 1.0, box_hi[d] + 1.0,
                     lo[d] - 1e300, box_hi[d] + 1e300,
                     std::nextafter(lo[d], -inf),
                     std::nextafter(box_hi[d], inf)}) {
      lane.push_back(x);
    }
    // Values around every cell edge, up to four ulps either side.
    for (uint32_t k = 0; k <= (1u << kBits); ++k) {
      const double edge = lo[d] + static_cast<double>(k) * span / cells;
      double below = edge, above = edge;
      lane.push_back(edge);
      for (int ulp = 0; ulp < 4; ++ulp) {
        below = std::nextafter(below, -inf);
        above = std::nextafter(above, inf);
        lane.push_back(below);
        lane.push_back(above);
      }
    }
    for (double x : lane) {
      const double t = (x - lo[d]) * (1.0 / span);
      if (std::floor((x - lo[d]) / span * cells) != std::floor(t * cells)) {
        ++reciprocal_differs;
      }
    }
  }
  // The edge values must tell a division from a multiply by the reciprocal
  // apart, or a reciprocal rewrite of the quantizer would pass.
  ASSERT_GT(reciprocal_differs, 0u);
  // Lanes of equal length: pad the shorter ones with the box's low end.
  size_t count = 0;
  for (const auto& lane : lanes) count = std::max(count, lane.size());
  for (size_t d = 0; d < 3; ++d) lanes[d].resize(count, lo[d]);
  ExpectSameCells(q, lanes, lo, box_hi);
}

TEST(HilbertQuantizerLanesTest, InvertedBoxIsWidenedLikeDegenerate) {
  const HilbertQuantizer q({5.0}, {2.0}, 4);
  ExpectSameCells(q, {{4.0, 5.0, 5.5, 6.0, 7.0}}, {5.0}, {6.0});
}

}  // namespace
}  // namespace sbon::dht
