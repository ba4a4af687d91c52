// SQ8 scalar quantization: the int8 row codec and the asymmetric
// (float query x int8 row) distance kernels behind quantized partition
// scans.
//
// Each partition carries per-dimension affine parameters (min, scale); a
// stored code c reconstructs as min[d] + scale[d] * c. Queries stay in
// full precision: distances are computed against the reconstruction
// without materializing it, by folding the affine transform into a
// per-(query, partition) precomputation (Sq8QueryContext). The quantized
// scan ranks up to k*alpha candidates which the executor re-scores at full
// precision, so quantization error never reaches reported distances.
//
// Every params row also stores its max reconstruction error
// eps = max ||x - x_hat|| over the rows quantized with it that did not
// clamp. That bounds how far such a row's exact distance can sit from its
// SQ8 distance, so the rerank re-reads only the candidates whose lower
// bound is within the k-th smallest upper bound
// (SelectSq8RerankCandidates): the pruned rerank returns exactly what
// reranking the whole pool would. A row that clamped (a streamed write
// outside its partition's box) is flagged in its code row instead of
// raising eps; the rerank gives it an unbounded error, so it is always
// re-read.
#ifndef MICRONN_NUMERICS_SQ8_H_
#define MICRONN_NUMERICS_SQ8_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numerics/metric.h"

namespace micronn {

/// Quantizes `d` floats: out[i] = clamp(round((v[i] - min[i]) / scale[i])),
/// and returns how many dimensions clamped: fell outside
/// [min, min + 255*scale] (or, for a constant dimension with zero scale,
/// differed from min; NaN counts too). A zero scale encodes 0. A row that
/// clamps is still stored: its code row carries the clamp flag, it does not
/// raise the params' max_error, and the rerank always re-reads it.
/// Maintenance also sums the count per partition to detect parameter drift
/// (DbOptions::sq8_requantize_saturation).
size_t QuantizeSq8(const float* v, const float* min, const float* scale,
                   size_t d, uint8_t* out);

/// Reconstructs `d` floats: out[i] = min[i] + scale[i] * codes[i].
void DequantizeSq8(const uint8_t* codes, const float* min, const float* scale,
                   size_t d, float* out);

/// Reconstruction error ||v - x_hat||_2 of a row quantized to `codes`,
/// with x_hat[i] = min[i] + scale[i] * codes[i]. Computed in double and
/// rounded up to the next float, so it never understates the error; +inf
/// when the error is not finite (a NaN or huge input).
float Sq8ReconstructionError(const float* v, const uint8_t* codes,
                             const float* min, const float* scale, size_t d);

/// ||min|| + 255 * ||scale||: a bound on the norm of every reconstruction
/// and of every offset x_hat - min under these params. It sizes the float
/// rounding of the SQ8 kernels in SelectSq8RerankCandidates.
float Sq8Reach(const float* min, const float* scale, size_t d);

/// One rerank candidate as the quantized scan scored it.
struct Sq8RerankCandidate {
  float approx = 0.f;     // the scan's distance
  float max_error = 0.f;  // eps of the params it was scored with; 0 when
                          // the row was scored at full precision
  float reach = 0.f;      // Sq8Reach of those params; 0 at full precision
};

/// Marks in `keep` the candidates that can still be among the k nearest
/// once re-scored at full precision, and returns how many there are.
///
/// Each candidate gets an interval [lo, hi] that holds its exact distance:
///   L2:           (max(0, sqrt(approx) - e))^2 .. (sqrt(approx) + e)^2
///   inner product
///   and cosine:   approx - ||q||*e .. approx + ||q||*e
/// with e = max_error. Let tau be the k-th smallest hi: at least k
/// candidates are exactly within tau, so one whose lo exceeds tau cannot
/// enter the top-k, and the full-precision top-k of the kept candidates
/// equals that of the whole pool. The intervals are widened for float
/// rounding in the kernels that produced `approx` and the exact distance,
/// by a relative slack rho = (dim + 8) * 2^-23 (twice the unit roundoff per
/// accumulated term) applied to the distance and to the params' reach. A
/// candidate with a non-finite approx or max_error is always kept, and
/// with k == 0 or at most k candidates every one is.
size_t SelectSq8RerankCandidates(Metric metric, const float* query,
                                 size_t dim,
                                 std::span<const Sq8RerankCandidate> cands,
                                 size_t k, std::vector<bool>* keep);

/// Per-(query, partition-params) precomputation for asymmetric distances.
///
/// L2:   dist = sum_d ((q[d]-min[d]) - scale[d]*c[d])^2
///       -> a = q - min, b = scale
/// dot-based (inner product / cosine):
///       dot(q, x) = dot(q, min) + sum_d (q[d]*scale[d]) * c[d]
///       -> a = q * scale, bias = dot(q, min)
struct Sq8QueryContext {
  Metric metric = Metric::kL2;
  size_t dim = 0;
  std::vector<float> a;
  std::vector<float> b;  // L2 only: the per-dim scales
  float bias = 0.f;      // dot metrics only

  void Prepare(Metric m, const float* query, const float* min,
               const float* scale, size_t d);
};

/// Distances between the prepared query and `n` quantized rows (row i at
/// codes + i*dim). Same orientation as DistanceOneToMany: smaller = more
/// similar, and the value approximates the full-precision distance to the
/// reconstructed vector.
void Sq8DistanceOneToMany(const Sq8QueryContext& ctx, const uint8_t* codes,
                          size_t n, float* out);

namespace internal {
// Scalar reference kernels (SIMD parity tests).
float Sq8AdjustedL2Scalar(const float* a, const float* s,
                          const uint8_t* codes, size_t d);
float Sq8DotScalar(const float* a, const uint8_t* codes, size_t d);
}  // namespace internal

}  // namespace micronn

#endif  // MICRONN_NUMERICS_SQ8_H_
