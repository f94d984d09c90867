#ifndef SBON_DHT_HILBERT_H_
#define SBON_DHT_HILBERT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/coord_block.h"
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
///    and 384 reachable states for dims 1..4). A one-level table of
///    (state, the level's dims bits) -> (next state, dims-bit digit) is
///    built once per dims by BFS on first use; composing it floor(6 / dims)
///    times gives a multi-level table (48 states x 64 entries at dims 3)
///    that encodes that many levels per lookup (cf. Lawder, 2000; Hamilton
///    & Rau-Chaplin's compact Hilbert indices, 2008). Each lookup reads its
///    raw bits with one shift from a bit interleave of the axes (a Morton
///    code, built by magic-number spreads); the bits % floor(6 / dims) top
///    levels left over go through the one-level table first.
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

/// Batch form over cell lanes: keys[j] is the key of the cell whose axis d
/// is cells[d * count + j], for j in [0, count) — the lane layout
/// HilbertQuantizer::QuantizeLanes writes. Heap-free; leaves `cells` as is.
void HilbertEncodeLanes(const uint32_t* cells, size_t count, unsigned n,
                        unsigned bits, U128* keys);

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
  /// Lane-wise Quantize of slots [0, count) of `block` (dims() lanes):
  /// cells[d * count + j] is slot j's cell on axis d. Per value the same
  /// IEEE operations in the same order as QuantizeTo — subtract lo, divide
  /// by hi - lo, multiply by the cell count, floor, clamp — so every cell is
  /// bit-identical to the one-point form.
  void QuantizeLanes(const CoordBlock& block, size_t count,
                     uint32_t* cells) const;
  /// Grid cell -> cell-center continuous point.
  Vec Dequantize(const std::vector<uint32_t>& cell) const;

  /// Continuous point -> Hilbert key. Heap-free.
  U128 Key(const Vec& p) const;
  /// Lane-wise Key of slots [0, count) of `block`: QuantizeLanes into
  /// `cells` (dims() * count working slots), then HilbertEncodeLanes into
  /// keys[0, count). keys[j] is bitwise Key of slot j. Heap-free.
  void KeyLanes(const CoordBlock& block, size_t count, uint32_t* cells,
                U128* keys) const;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
  unsigned bits_;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_HILBERT_H_
