// The Hilbert encoder against Skilling's transpose algorithm as published
// ("Programming the Hilbert curve", 2004): the per-level state-table
// encoder (dims <= 4) and the branch-free transpose (dims > 4) must give
// the same key for every cell. Exhaustive where dims * bits <= 20, 100k
// random cells per (dims, bits) above that.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

INSTANTIATE_TEST_SUITE_P(Dims, HilbertEquivalenceTest,
                         ::testing::Range(1u, 9u));

}  // namespace
}  // namespace sbon::dht
