#include "numerics/sq8.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numerics/distance.h"

namespace micronn {

namespace internal {

float Sq8AdjustedL2Scalar(const float* a, const float* s,
                          const uint8_t* codes, size_t d) {
  float acc = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float diff = a[i] - s[i] * static_cast<float>(codes[i]);
    acc += diff * diff;
  }
  return acc;
}

float Sq8DotScalar(const float* a, const uint8_t* codes, size_t d) {
  float acc = 0.f;
  for (size_t i = 0; i < d; ++i) {
    acc += a[i] * static_cast<float>(codes[i]);
  }
  return acc;
}

// Implemented in distance_simd.cc with GCC target attributes.
float Sq8AdjustedL2Avx2(const float* a, const float* s, const uint8_t* codes,
                        size_t d);
float Sq8DotAvx2(const float* a, const uint8_t* codes, size_t d);
bool CpuHasAvx2();

}  // namespace internal

void QuantizeSq8(const float* v, const float* min, const float* scale,
                 size_t d, uint8_t* out) {
  QuantizeSq8Saturating(v, min, scale, d, out);
}

size_t QuantizeSq8Saturating(const float* v, const float* min,
                             const float* scale, size_t d, uint8_t* out) {
  size_t saturated = 0;
  for (size_t i = 0; i < d; ++i) {
    if (scale[i] <= 0.f) {
      out[i] = 0;
      // Constant dimension: representable iff the value equals the bound.
      if (v[i] != min[i]) ++saturated;
      continue;
    }
    const float code = std::round((v[i] - min[i]) / scale[i]);
    // The negated comparison routes NaN inputs to 0 instead of reaching
    // the float->int cast, which would be UB for an unrepresentable value.
    if (!(code > 0.f)) {
      out[i] = 0;
      if (!(code >= 0.f)) ++saturated;  // below the box (or NaN)
    } else if (code >= 255.f) {
      out[i] = 255;
      if (code > 255.f) ++saturated;  // above the box
    } else {
      out[i] = static_cast<uint8_t>(static_cast<int>(code));
    }
  }
  return saturated;
}

void DequantizeSq8(const uint8_t* codes, const float* min, const float* scale,
                   size_t d, float* out) {
  for (size_t i = 0; i < d; ++i) {
    out[i] = min[i] + scale[i] * static_cast<float>(codes[i]);
  }
}

float Sq8ReconstructionError(const float* v, const uint8_t* codes,
                             const float* min, const float* scale, size_t d) {
  double sum = 0;
  for (size_t i = 0; i < d; ++i) {
    // A float times a byte is exact in double; the sum rounds at 2^-53.
    const double recon = double{min[i]} + double{scale[i]} * codes[i];
    const double diff = double{v[i]} - recon;
    sum += diff * diff;
  }
  const double err = std::sqrt(sum);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (!(err <= std::numeric_limits<float>::max())) return kInf;
  if (err == 0) return 0.f;
  // One float ulp up covers both the float conversion and the double
  // rounding above.
  return std::nextafter(static_cast<float>(err), kInf);
}

float Sq8Reach(const float* min, const float* scale, size_t d) {
  double min_sq = 0;
  double scale_sq = 0;
  for (size_t i = 0; i < d; ++i) {
    min_sq += double{min[i]} * min[i];
    scale_sq += double{scale[i]} * scale[i];
  }
  return static_cast<float>(std::sqrt(min_sq) + 255.0 * std::sqrt(scale_sq));
}

size_t SelectSq8RerankCandidates(Metric metric, const float* query,
                                 size_t dim,
                                 std::span<const Sq8RerankCandidate> cands,
                                 size_t k, std::vector<bool>* keep) {
  const size_t n = cands.size();
  keep->assign(n, true);
  if (k == 0 || n <= k) return n;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double rho = static_cast<double>(dim + 8) * 0x1p-23;
  double qnorm = 0;
  if (metric != Metric::kL2) {
    for (size_t i = 0; i < dim; ++i) qnorm += double{query[i]} * query[i];
    qnorm = std::sqrt(qnorm);
  }
  std::vector<double> lo(n);
  std::vector<double> hi(n);
  for (size_t i = 0; i < n; ++i) {
    const double approx = cands[i].approx;
    const double eps = cands[i].max_error;
    const double reach = cands[i].reach;
    if (!std::isfinite(approx) || !std::isfinite(eps)) {
      lo[i] = -kInf;
      hi[i] = kInf;
      continue;
    }
    if (metric == Metric::kL2) {
      // |sqrt(d) - sqrt(d_hat)| <= ||x - x_hat|| by the triangle inequality.
      const double r = std::sqrt(std::max(approx, 0.0));
      const double e = eps + rho * (r + reach);
      const double below = std::max(0.0, r - e);
      lo[i] = below * below * (1 - rho);
      hi[i] = (r + e) * (r + e) * (1 + rho);
    } else {
      // |q.x - q.x_hat| <= ||q|| * ||x - x_hat|| by Cauchy-Schwarz.
      const double e = qnorm * eps +
                       rho * (std::abs(approx) + qnorm * (2 * reach + eps) + 1);
      lo[i] = approx - e;
      hi[i] = approx + e;
    }
    if (std::isnan(lo[i]) || std::isnan(hi[i])) {  // e.g. 0 * inf
      lo[i] = -kInf;
      hi[i] = kInf;
    }
  }
  std::vector<double> his = hi;
  std::nth_element(his.begin(), his.begin() + (k - 1), his.end());
  const double tau = his[k - 1];
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool k_i = !(lo[i] > tau);
    (*keep)[i] = k_i;
    kept += k_i;
  }
  return kept;
}

void Sq8QueryContext::Prepare(Metric m, const float* query, const float* min,
                              const float* scale, size_t d) {
  metric = m;
  dim = d;
  a.resize(d);
  bias = 0.f;
  if (m == Metric::kL2) {
    b.assign(scale, scale + d);
    for (size_t i = 0; i < d; ++i) a[i] = query[i] - min[i];
  } else {
    b.clear();
    for (size_t i = 0; i < d; ++i) a[i] = query[i] * scale[i];
    bias = Dot(query, min, d);
  }
}

void Sq8DistanceOneToMany(const Sq8QueryContext& ctx, const uint8_t* codes,
                          size_t n, float* out) {
  const size_t d = ctx.dim;
  const bool avx2 =
      ActiveSimdLevel() >= SimdLevel::kAvx2 && internal::CpuHasAvx2();
  switch (ctx.metric) {
    case Metric::kL2:
      if (avx2) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = internal::Sq8AdjustedL2Avx2(ctx.a.data(), ctx.b.data(),
                                               codes + i * d, d);
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          out[i] = internal::Sq8AdjustedL2Scalar(ctx.a.data(), ctx.b.data(),
                                                 codes + i * d, d);
        }
      }
      break;
    case Metric::kInnerProduct:
      if (avx2) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = -(ctx.bias + internal::Sq8DotAvx2(ctx.a.data(),
                                                     codes + i * d, d));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          out[i] = -(ctx.bias + internal::Sq8DotScalar(ctx.a.data(),
                                                       codes + i * d, d));
        }
      }
      break;
    case Metric::kCosine:
      if (avx2) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = 1.0f - (ctx.bias + internal::Sq8DotAvx2(ctx.a.data(),
                                                           codes + i * d, d));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          out[i] =
              1.0f - (ctx.bias + internal::Sq8DotScalar(ctx.a.data(),
                                                        codes + i * d, d));
        }
      }
      break;
  }
}

}  // namespace micronn
