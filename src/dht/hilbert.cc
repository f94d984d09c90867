#include "dht/hilbert.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace sbon::dht {
namespace {

// Skilling's axes-to-transpose pass walks the levels from the top bit
// down. Each level reads one bit per axis, then inverts axis 0 or swaps it
// with axis i over the lower bits only; so a level sees its raw bits under
// the signed permutation all higher levels' moves compose to, and its Gray
// step XORs in the parity of the higher levels. That permutation and that
// parity are the state of a transducer emitting one n-bit digit per level.
constexpr unsigned kMaxTableDims = 4;

// One transducer state: lower-bit axis i currently holds raw axis perm[i],
// inverted iff bit i of `flips` is set; `parity` is the Gray parity of the
// levels above.
struct LevelState {
  uint32_t perm[kMaxTableDims] = {0, 1, 2, 3};
  uint32_t flips = 0;
  uint32_t parity = 0;

  static constexpr uint32_t kPackedRange = 1u << 13;  // bound on Pack()
  uint32_t Pack() const {
    return perm[0] | perm[1] << 2 | perm[2] << 4 | perm[3] << 6 | flips << 8 |
           parity << 12;
  }
};

// table[state << n | raw] = next_state << n | digit, where raw holds the
// level's bit of axis i at bit n-1-i and the digit's bits go to the index
// in the same order (axis 0's bit is the most significant).
std::vector<uint16_t> BuildLevelTable(unsigned n) {
  std::vector<LevelState> states(1);
  std::vector<int> state_of(LevelState::kPackedRange, -1);
  state_of[states[0].Pack()] = 0;
  std::vector<uint16_t> table;
  for (size_t s = 0; s < states.size(); ++s) {
    const LevelState cur = states[s];  // push_back below may reallocate
    for (uint32_t raw = 0; raw < (1u << n); ++raw) {
      LevelState next = cur;
      uint32_t digit = 0, prefix = 0;
      for (unsigned i = 0; i < n; ++i) {
        // This level's bit of axis i as the moves above left it.
        const uint32_t b =
            ((raw >> (n - 1 - cur.perm[i])) ^ (cur.flips >> i)) & 1u;
        prefix ^= b;
        digit = digit << 1 | (prefix ^ cur.parity);
        // The level's move on the lower bits, read off this level's bit.
        if (b != 0) {
          next.flips ^= 1u;
        } else {
          std::swap(next.perm[0], next.perm[i]);
          const uint32_t diff = ((next.flips >> i) ^ next.flips) & 1u;
          next.flips ^= diff | diff << i;
        }
      }
      next.parity ^= prefix;
      int& id = state_of[next.Pack()];
      if (id < 0) {
        id = static_cast<int>(states.size());
        states.push_back(next);
      }
      table.push_back(static_cast<uint16_t>(static_cast<uint32_t>(id) << n |
                                            digit));
    }
  }
  return table;
}

const std::vector<uint16_t>& LevelTable(unsigned n) {
  static const std::vector<uint16_t> tables[kMaxTableDims] = {
      BuildLevelTable(1), BuildLevelTable(2), BuildLevelTable(3),
      BuildLevelTable(4)};
  return tables[n - 1];
}

// One table lookup per level; the digits shift into two words MSB-first.
U128 EncodeByTable(const uint32_t* x, unsigned n, unsigned bits) {
  const uint16_t* table = LevelTable(n).data();
  const uint32_t digit_mask = (1u << n) - 1;
  uint64_t hi = 0, lo = 0;
  uint32_t state = 0;  // the identity state, shifted by n
  for (unsigned b = bits; b-- > 0;) {
    uint32_t raw = 0;
    for (unsigned i = 0; i < n; ++i) raw = raw << 1 | ((x[i] >> b) & 1u);
    const uint32_t entry = table[state | raw];
    hi = hi << n | lo >> (64 - n);
    lo = lo << n | (entry & digit_mask);
    state = entry & ~digit_mask;
  }
  return U128(hi, lo);
}

// Skilling's AxesToTranspose with masks in place of its data-dependent
// branches, interleaving the transpose straight into two words. Clobbers x.
U128 EncodeBySkilling(uint32_t* x, unsigned n, unsigned bits) {
  // Inverse undo: per level, invert axis 0 (level bit set) or exchange the
  // lower bits of axes 0 and i (clear). For i = 0 the exchange is a no-op.
  for (unsigned level = bits - 1; level > 0; --level) {
    const uint32_t p = (1u << level) - 1;
    for (unsigned i = 0; i < n; ++i) {
      const uint32_t set = 0u - ((x[i] >> level) & 1u);
      const uint32_t t = (x[0] ^ x[i]) & p & ~set;
      x[0] ^= t ^ (p & set);
      x[i] ^= t;
    }
  }
  // Gray encode.
  for (unsigned i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (unsigned level = bits - 1; level > 0; --level) {
    t ^= ((1u << level) - 1) & (0u - ((x[n - 1] >> level) & 1u));
  }
  // Interleave MSB-first: index bit (bits*n - 1) is x[0]'s bit (bits-1),
  // then x[1]'s bit (bits-1), ...
  uint64_t hi = 0, lo = 0;
  for (unsigned b = bits; b-- > 0;) {
    for (unsigned d = 0; d < n; ++d) {
      hi = hi << 1 | lo >> 63;
      lo = lo << 1 | (((x[d] ^ t) >> b) & 1u);
    }
  }
  return U128(hi, lo);
}

// Inverse of the axes-to-transpose pass.
void TransposeToAxes(std::vector<uint32_t>* x_ptr, unsigned bits) {
  std::vector<uint32_t>& x = *x_ptr;
  const unsigned n = static_cast<unsigned>(x.size());
  const uint32_t top = 2u << (bits - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[n - 1] >> 1;
  for (unsigned i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != top; q <<= 1) {
    const uint32_t p = q - 1;
    for (unsigned ii = n; ii-- > 0;) {
      if (x[ii] & q) {
        x[0] ^= p;
      } else {
        const uint32_t tt = (x[0] ^ x[ii]) & p;
        x[0] ^= tt;
        x[ii] ^= tt;
      }
    }
  }
}

}  // namespace

U128 HilbertEncodeInPlace(uint32_t* x, unsigned n, unsigned bits) {
  assert(n >= 1 && bits >= 1 && bits <= 32 && n * bits <= 128);
  if (n <= kMaxTableDims) return EncodeByTable(x, n, bits);
  return EncodeBySkilling(x, n, bits);
}

U128 HilbertEncode(const std::vector<uint32_t>& axes, unsigned bits) {
  const unsigned n = static_cast<unsigned>(axes.size());
  assert(n >= 1 && n <= 128);
  if (n > 128) {
    // Out of contract (dims * bits <= 128 bounds n at 128); stay
    // memory-safe under NDEBUG instead of overrunning the stack buffer.
    std::vector<uint32_t> x = axes;
    return HilbertEncodeInPlace(x.data(), n, bits);
  }
  uint32_t x[128];
  std::copy(axes.begin(), axes.end(), x);
  return HilbertEncodeInPlace(x, n, bits);
}

std::vector<uint32_t> HilbertDecode(U128 index, unsigned dims,
                                    unsigned bits) {
  assert(dims >= 1 && bits >= 1 && dims * bits <= 128);
  std::vector<uint32_t> x(dims, 0);
  unsigned in_bit = dims * bits;
  for (unsigned b = bits; b-- > 0;) {
    for (unsigned d = 0; d < dims; ++d) {
      --in_bit;
      if (index.Bit(in_bit)) x[d] |= (1u << b);
    }
  }
  TransposeToAxes(&x, bits);
  return x;
}

HilbertQuantizer::HilbertQuantizer(std::vector<double> lo,
                                   std::vector<double> hi, unsigned bits)
    : lo_(std::move(lo)), hi_(std::move(hi)), bits_(bits) {
  assert(lo_.size() == hi_.size());
  // bits <= 31: QuantizeTo counts 1u << bits cells in uint32_t axes.
  assert(!lo_.empty() && bits_ >= 1 && bits_ <= 31 &&
         lo_.size() * bits_ <= 128);
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (hi_[i] <= lo_[i]) hi_[i] = lo_[i] + 1.0;  // degenerate dim guard
  }
}

HilbertQuantizer HilbertQuantizer::FitTo(const std::vector<Vec>& points,
                                         unsigned bits, double margin) {
  assert(!points.empty());
  const size_t dims = points[0].dims();
  std::vector<double> lo(dims, 1e300), hi(dims, -1e300);
  for (const Vec& p : points) {
    for (size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    const double span = std::max(hi[d] - lo[d], 1e-9);
    lo[d] -= margin * span;
    hi[d] += margin * span;
  }
  return HilbertQuantizer(std::move(lo), std::move(hi), bits);
}

void HilbertQuantizer::QuantizeTo(const Vec& p, uint32_t* out) const {
  assert(p.dims() == lo_.size());
  const double cells = static_cast<double>(1u << bits_);
  for (size_t d = 0; d < lo_.size(); ++d) {
    const double t = (p[d] - lo_[d]) / (hi_[d] - lo_[d]);
    const double cell = std::floor(t * cells);
    out[d] = static_cast<uint32_t>(
        std::clamp(cell, 0.0, cells - 1.0));
  }
}

std::vector<uint32_t> HilbertQuantizer::Quantize(const Vec& p) const {
  std::vector<uint32_t> out(lo_.size());
  QuantizeTo(p, out.data());
  return out;
}

Vec HilbertQuantizer::Dequantize(const std::vector<uint32_t>& cell) const {
  assert(cell.size() == lo_.size());
  const double cells = static_cast<double>(1u << bits_);
  Vec out(lo_.size());
  for (size_t d = 0; d < lo_.size(); ++d) {
    out[d] = lo_[d] + (static_cast<double>(cell[d]) + 0.5) / cells *
                          (hi_[d] - lo_[d]);
  }
  return out;
}

U128 HilbertQuantizer::Key(const Vec& p) const {
  // dims * bits <= 128 and bits >= 1 bound dims at 128 for any quantizer
  // the constructor accepts; the guard keeps an out-of-contract quantizer
  // memory-safe under NDEBUG (heap form instead of a stack overrun).
  if (dims() > 128) return HilbertEncode(Quantize(p), bits_);
  uint32_t cell[128];
  QuantizeTo(p, cell);
  return HilbertEncodeInPlace(cell, dims(), bits_);
}

}  // namespace sbon::dht
