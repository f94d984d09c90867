#ifndef SBON_DHT_HILBERT_H_
#define SBON_DHT_HILBERT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/vec.h"
#include "dht/u128.h"

namespace sbon::dht {

/// Hilbert space-filling curve encode/decode (Skilling's transpose
/// algorithm, "Programming the Hilbert curve", 2004). The curve linearizes a
/// `dims`-dimensional grid of side 2^bits while preserving locality; the
/// paper [20, 21] uses it to turn multi-dimensional cost-space coordinates
/// into one-dimensional DHT keys.
///
/// Encoding gives Skilling's keys bit for bit by one of two paths, chosen by
/// `dims`:
///  - dims <= 4: Skilling's axes-to-transpose pass is a finite-state
///    transducer over the levels, top bit first. Its state is the signed
///    permutation of the axes that the higher levels' moves applied to the
///    lower bits, plus the Gray-code parity of the higher levels (2, 8, 48
///    and 384 reachable states for dims 1..4). A table of
///    (state, the level's dims bits) -> (next state, dims-bit digit), built
///    once per dims by BFS on first use, encodes one level per lookup
///    (cf. Hamilton & Rau-Chaplin's compact Hilbert indices, 2008).
///  - dims > 4: Skilling's pass with masks in place of its data-dependent
///    branches, interleaving the transpose straight into the key's words.
/// Decoding runs Skilling's inverse pass.
///
/// Constraints: dims >= 1, 1 <= bits <= 32 (axes are uint32_t),
/// dims * bits <= 128.

/// Maps grid coordinates (each < 2^bits) to the Hilbert index.
U128 HilbertEncode(const std::vector<uint32_t>& axes, unsigned bits);

/// Allocation-free form of HilbertEncode: reads the `n` axes from `axes`
/// and may clobber them as working storage (key derivation sits on the
/// per-query hot path, where a heap round-trip per key would dominate).
U128 HilbertEncodeInPlace(uint32_t* axes, unsigned n, unsigned bits);

/// Maps a Hilbert index back to grid coordinates.
std::vector<uint32_t> HilbertDecode(U128 index, unsigned dims, unsigned bits);

/// Quantizes continuous cost-space coordinates into the Hilbert grid.
/// The box is fixed at construction; out-of-box values are clamped (cost
/// spaces are unbounded in principle, but placement targets always fall
/// within the box spanned by the nodes that defined it).
class HilbertQuantizer {
 public:
  /// Builds a quantizer for `dims` dimensions over [lo[i], hi[i]] per dim,
  /// with 2^bits cells per dimension. Requires 1 <= bits <= 31 (the cell
  /// count 2^bits is a uint32_t) and dims * bits <= 128.
  HilbertQuantizer(std::vector<double> lo, std::vector<double> hi,
                   unsigned bits);

  /// Derives a bounding box from a point cloud with `margin` fractional
  /// padding (so later targets near the hull still quantize distinctly).
  static HilbertQuantizer FitTo(const std::vector<Vec>& points, unsigned bits,
                                double margin = 0.10);

  unsigned dims() const { return static_cast<unsigned>(lo_.size()); }
  unsigned bits() const { return bits_; }

  /// Continuous point -> grid cell per dimension (clamped).
  std::vector<uint32_t> Quantize(const Vec& p) const;
  /// Quantize into caller storage of at least dims() entries (heap-free).
  void QuantizeTo(const Vec& p, uint32_t* out) const;
  /// Grid cell -> cell-center continuous point.
  Vec Dequantize(const std::vector<uint32_t>& cell) const;

  /// Continuous point -> Hilbert key. Heap-free.
  U128 Key(const Vec& p) const;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
  unsigned bits_;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_HILBERT_H_
