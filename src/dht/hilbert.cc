#include "dht/hilbert.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/simd.h"

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

// A table that encodes `levels` levels per lookup, composed from the
// one-level table: entry[state << w | raw] = next_state << w | digits, with
// w = n * levels, `raw` holding the levels' raw bits top level first (each
// level's n bits in the one-level order) and the digits in the same layout.
// State ids are the one-level table's, so a walk can switch tables between
// lookups.
std::vector<uint16_t> ComposeLevels(const std::vector<uint16_t>& one,
                                    unsigned n, unsigned levels) {
  const uint32_t states = static_cast<uint32_t>(one.size() >> n);
  const unsigned w = n * levels;
  const uint32_t level_mask = (1u << n) - 1;
  std::vector<uint16_t> table(size_t{states} << w);
  for (uint32_t s = 0; s < states; ++s) {
    for (uint32_t raw = 0; raw < (1u << w); ++raw) {
      uint32_t state = s, digits = 0;
      for (unsigned l = levels; l-- > 0;) {
        const uint32_t entry = one[state << n | ((raw >> (l * n)) & level_mask)];
        digits = digits << n | (entry & level_mask);
        state = entry >> n;
      }
      table[s << w | raw] = static_cast<uint16_t>(state << w | digits);
    }
  }
  return table;
}

// Bits a multi-level lookup reads: floor(6 / n) levels of n bits each, so
// its table has at most 64 entries per state.
constexpr unsigned kLookupBits = 6;

struct LevelTables {
  std::vector<uint16_t> one;    // one level per lookup
  std::vector<uint16_t> multi;  // kLookupBits / n levels per lookup
};

template <unsigned N>
const LevelTables& TablesFor() {
  static const LevelTables tables = [] {
    LevelTables t;
    t.one = BuildLevelTable(N);
    t.multi = ComposeLevels(t.one, N, kLookupBits / N);
    return t;
  }();
  return tables;
}

// Spreads the low bits of `v` so that bit b lands at bit b * N (a Morton
// spread by magic-number masks). Holds for v < 2^(64 / N), N = 1..4.
template <unsigned N>
uint64_t Spread(uint64_t v) {
  if constexpr (N == 2) {
    v = (v | v << 16) & 0x0000ffff0000ffffull;
    v = (v | v << 8) & 0x00ff00ff00ff00ffull;
    v = (v | v << 4) & 0x0f0f0f0f0f0f0f0full;
    v = (v | v << 2) & 0x3333333333333333ull;
    v = (v | v << 1) & 0x5555555555555555ull;
  } else if constexpr (N == 3) {
    v = (v | v << 32) & 0x001f00000000ffffull;
    v = (v | v << 16) & 0x001f0000ff0000ffull;
    v = (v | v << 8) & 0x100f00f00f00f00full;
    v = (v | v << 4) & 0x10c30c30c30c30c3ull;
    v = (v | v << 2) & 0x1249249249249249ull;
  } else if constexpr (N == 4) {
    v = (v | v << 24) & 0x000000ff000000ffull;
    v = (v | v << 12) & 0x000f000f000f000full;
    v = (v | v << 6) & 0x0303030303030303ull;
    v = (v | v << 3) & 0x1111111111111111ull;
  }
  return v;
}

// The raw bits of levels [from, from + levels) of the N axes, interleaved
// as the key orders them: level l's bit of axis i at bit
// (l - from) * N + N - 1 - i.
template <unsigned N>
uint64_t Interleave(const uint32_t* x, unsigned from, unsigned levels) {
  const uint64_t mask = (uint64_t{1} << levels) - 1;
  uint64_t raw = 0;
  for (unsigned i = 0; i < N; ++i) {
    raw |= Spread<N>((x[i] >> from) & mask) << (N - 1 - i);
  }
  return raw;
}

// Walks `levels` levels of interleaved raw bits (top level first) from
// `*state`, returning their digits in the same layout: the
// levels % kLevels top levels through the one-level table, then kLevels
// levels per multi-level lookup. `*state` is a state id on entry and on
// exit.
template <unsigned N>
uint64_t Walk(const LevelTables& t, uint64_t raw, unsigned levels,
              uint32_t* state) {
  constexpr unsigned kLevels = kLookupBits / N;
  constexpr unsigned kWidth = N * kLevels;
  constexpr uint32_t kLevelMask = (1u << N) - 1;
  constexpr uint32_t kMask = (1u << kWidth) - 1;
  unsigned pos = N * levels;
  uint64_t digits = 0;
  uint32_t s = *state;
  for (unsigned l = levels % kLevels; l > 0; --l) {
    pos -= N;
    const uint32_t entry = t.one[s << N | ((raw >> pos) & kLevelMask)];
    digits = digits << N | (entry & kLevelMask);
    s = entry >> N;
  }
  const uint16_t* multi = t.multi.data();
  s <<= kWidth;
  while (pos > 0) {
    pos -= kWidth;
    const uint32_t entry = multi[s | ((raw >> pos) & kMask)];
    digits = digits << kWidth | (entry & kMask);
    s = entry & ~kMask;
  }
  *state = s >> kWidth;
  return digits;
}

// The table encoder. A key wider than one word splits its levels at
// kLowLevels, a multiple of the lookup's level count whose interleave fits
// one word: the levels above it are walked first (leftover levels
// included), then the low ones, whose digits fill the key's low
// N * kLowLevels bits.
template <unsigned N>
U128 EncodeByTable(const uint32_t* x, unsigned bits) {
  constexpr unsigned kLevels = kLookupBits / N;
  constexpr unsigned kLowLevels = kLevels * (64 / (N * kLevels));
  const LevelTables& t = TablesFor<N>();
  uint32_t state = 0;  // the identity state
  if (bits <= kLowLevels) {
    return U128::FromU64(Walk<N>(t, Interleave<N>(x, 0, bits), bits, &state));
  }
  const unsigned high = bits - kLowLevels;
  const uint64_t top =
      Walk<N>(t, Interleave<N>(x, kLowLevels, high), high, &state);
  const uint64_t low =
      Walk<N>(t, Interleave<N>(x, 0, kLowLevels), kLowLevels, &state);
  return (U128::FromU64(top) << (N * kLowLevels)) | U128::FromU64(low);
}

// keys[j] = the key of cell j, its axes gathered out of the lanes.
template <unsigned N>
void EncodeLanesByTable(const uint32_t* cells, size_t count, unsigned bits,
                        U128* keys) {
  uint32_t x[N];
  for (size_t j = 0; j < count; ++j) {
    for (unsigned i = 0; i < N; ++i) x[i] = cells[i * count + j];
    keys[j] = EncodeByTable<N>(x, bits);
  }
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

// One axis of QuantizeTo and QuantizeLanes: the value's offset into the
// box as a fraction of the span, scaled to the cell count, floored and
// clamped. A division, not a multiply by a reciprocal: the two round
// differently, and the ring keys are defined by this one.
inline uint32_t CellOf(double x, double lo, double span, double cells) {
  const double cell = std::floor((x - lo) / span * cells);
  return static_cast<uint32_t>(std::clamp(cell, 0.0, cells - 1.0));
}

}  // namespace

U128 HilbertEncodeInPlace(uint32_t* x, unsigned n, unsigned bits) {
  assert(n >= 1 && bits >= 1 && bits <= 32 && n * bits <= 128);
  switch (n) {
    case 1: return EncodeByTable<1>(x, bits);
    case 2: return EncodeByTable<2>(x, bits);
    case 3: return EncodeByTable<3>(x, bits);
    case 4: return EncodeByTable<4>(x, bits);
    default: return EncodeBySkilling(x, n, bits);
  }
}

void HilbertEncodeLanes(const uint32_t* cells, size_t count, unsigned n,
                        unsigned bits, U128* keys) {
  assert(n >= 1 && bits >= 1 && bits <= 32 && n * bits <= 128);
  switch (n) {
    case 1: return EncodeLanesByTable<1>(cells, count, bits, keys);
    case 2: return EncodeLanesByTable<2>(cells, count, bits, keys);
    case 3: return EncodeLanesByTable<3>(cells, count, bits, keys);
    case 4: return EncodeLanesByTable<4>(cells, count, bits, keys);
    default: break;
  }
  // n * bits <= 128 bounds n at 128.
  uint32_t x[128];
  for (size_t j = 0; j < count; ++j) {
    for (unsigned i = 0; i < n; ++i) x[i] = cells[i * count + j];
    keys[j] = EncodeBySkilling(x, n, bits);
  }
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
    out[d] = CellOf(p[d], lo_[d], hi_[d] - lo_[d], cells);
  }
}

void HilbertQuantizer::QuantizeLanes(const CoordBlock& block, size_t count,
                                     uint32_t* cells) const {
  assert(block.dims() == lo_.size() && block.nodes() >= count);
  const double n_cells = static_cast<double>(1u << bits_);
  for (size_t d = 0; d < lo_.size(); ++d) {
    const double* x = block.lane(d);
    uint32_t* out = cells + d * count;
    const double lo = lo_[d];
    const double span = hi_[d] - lo_[d];
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) out[j] = CellOf(x[j], lo, span, n_cells);
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

void HilbertQuantizer::KeyLanes(const CoordBlock& block, size_t count,
                                uint32_t* cells, U128* keys) const {
  QuantizeLanes(block, count, cells);
  HilbertEncodeLanes(cells, count, dims(), bits_, keys);
}

}  // namespace sbon::dht
