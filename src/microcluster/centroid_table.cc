#include "microcluster/centroid_table.h"

#include <algorithm>
#include <limits>

#include "common/scratch.h"
#include "obs/metrics.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UDM_ASSIGN_X86 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC bug 105593: the AVX-512 intrinsics' deliberately-undefined temporaries
// trip -Wmaybe-uninitialized once inlined into target("avx512f") code (see
// kde/simd_sweep.cc). Nothing here reads uninitialized data.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#else
#define UDM_ASSIGN_X86 0
#endif

namespace udm {
namespace {

/// Column padding: the widest vector (AVX-512, 8 doubles). Every level's
/// sweep runs whole vectors over [0, RoundUp(rows, lanes)) ⊆ [0, stride).
constexpr size_t kPadLanes = 8;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

size_t RoundUp(size_t n, size_t lanes) {
  return (n + lanes - 1) / lanes * lanes;
}

/// One dispatch level's sweep: fills `acc[0, RoundUp(rows, lanes))` with
/// the distance of every row (dims-outer, clusters-inner) and returns the
/// first strict minimum over [0, rows). `psi2` holds ψ_j² (unused for
/// kEuclidean).
using SweepFn = NearestCentroid (*)(const double* columns, size_t stride,
                                    size_t rows, size_t dims, const double* x,
                                    const double* psi2, double* acc);

// ---------------------------------------------------------------------------
// Scalar level: the reference sequence, dims-outer like the vector levels.

template <bool kAdjusted>
NearestCentroid SweepScalar(const double* columns, size_t stride, size_t rows,
                            size_t dims, const double* x, const double* psi2,
                            double* acc) {
  std::fill(acc, acc + rows, 0.0);
  for (size_t j = 0; j < dims; ++j) {
    const double* col = columns + j * stride;
    const double xj = x[j];
    for (size_t c = 0; c < rows; ++c) {
      const double diff = xj - col[c];
      if constexpr (kAdjusted) {
        acc[c] += std::max(0.0, diff * diff - psi2[j]);
      } else {
        acc[c] += diff * diff;
      }
    }
  }
  NearestCentroid best;
  for (size_t c = 0; c < rows; ++c) {
    if (acc[c] < best.distance) {
      best.distance = acc[c];
      best.index = c;
    }
  }
  return best;
}

#if UDM_ASSIGN_X86

/// Folds per-lane (minimum, first index) pairs into the global first strict
/// minimum: the smallest value below +inf, ties to the lowest index. Each
/// lane scanned its rows in ascending order with a strict compare, so this
/// equals the scalar scan's answer.
NearestCentroid ReduceLanes(const double* best, const double* index,
                            size_t lanes) {
  NearestCentroid out;
  for (size_t l = 0; l < lanes; ++l) {
    const size_t i = static_cast<size_t>(index[l]);
    if (best[l] < out.distance ||
        (best[l] == out.distance && best[l] < kInfinity && i < out.index)) {
      out.distance = best[l];
      out.index = i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// AVX2 level: 4 clusters per vector. The target deliberately omits "fma":
// the mul and sub stay two rounded operations even if contraction were
// enabled.

template <bool kAdjusted>
__attribute__((target("avx2"))) NearestCentroid SweepAvx2(
    const double* columns, size_t stride, size_t rows, size_t dims,
    const double* x, const double* psi2, double* acc) {
  const size_t lanes = RoundUp(rows, 4);
  const __m256d zero = _mm256_setzero_pd();
  for (size_t c = 0; c < lanes; c += 4) _mm256_store_pd(acc + c, zero);
  for (size_t j = 0; j < dims; ++j) {
    const double* col = columns + j * stride;
    const __m256d xj = _mm256_set1_pd(x[j]);
    const __m256d p2 = kAdjusted ? _mm256_set1_pd(psi2[j]) : zero;
    for (size_t c = 0; c < lanes; c += 4) {
      const __m256d diff = _mm256_sub_pd(xj, _mm256_load_pd(col + c));
      __m256d term = _mm256_mul_pd(diff, diff);
      // max(t, 0) returns its second operand when t is NaN or ≤ 0 —
      // std::max(0.0, t) exactly, including NaN → +0.
      if constexpr (kAdjusted) {
        term = _mm256_max_pd(_mm256_sub_pd(term, p2), zero);
      }
      _mm256_store_pd(acc + c, _mm256_add_pd(_mm256_load_pd(acc + c), term));
    }
  }
  __m256d best = _mm256_set1_pd(kInfinity);
  __m256d best_index = zero;
  __m256d index = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d step = _mm256_set1_pd(4.0);
  const __m256d limit = _mm256_set1_pd(static_cast<double>(rows));
  for (size_t c = 0; c < lanes; c += 4) {
    const __m256d v = _mm256_load_pd(acc + c);
    const __m256d take = _mm256_and_pd(_mm256_cmp_pd(v, best, _CMP_LT_OQ),
                                       _mm256_cmp_pd(index, limit, _CMP_LT_OQ));
    best = _mm256_blendv_pd(best, v, take);
    best_index = _mm256_blendv_pd(best_index, index, take);
    index = _mm256_add_pd(index, step);
  }
  alignas(32) double lane_best[4];
  alignas(32) double lane_index[4];
  _mm256_store_pd(lane_best, best);
  _mm256_store_pd(lane_index, best_index);
  return ReduceLanes(lane_best, lane_index, 4);
}

// ---------------------------------------------------------------------------
// AVX-512 level: 8 clusters per vector. AVX-512F carries FMA, so the
// no-contraction guarantee here rests on -ffp-contract=off (CMakeLists).

template <bool kAdjusted>
__attribute__((target("avx512f"))) NearestCentroid SweepAvx512(
    const double* columns, size_t stride, size_t rows, size_t dims,
    const double* x, const double* psi2, double* acc) {
  const size_t lanes = RoundUp(rows, 8);
  const __m512d zero = _mm512_setzero_pd();
  for (size_t c = 0; c < lanes; c += 8) _mm512_store_pd(acc + c, zero);
  for (size_t j = 0; j < dims; ++j) {
    const double* col = columns + j * stride;
    const __m512d xj = _mm512_set1_pd(x[j]);
    const __m512d p2 = kAdjusted ? _mm512_set1_pd(psi2[j]) : zero;
    for (size_t c = 0; c < lanes; c += 8) {
      const __m512d diff = _mm512_sub_pd(xj, _mm512_load_pd(col + c));
      __m512d term = _mm512_mul_pd(diff, diff);
      if constexpr (kAdjusted) {
        term = _mm512_max_pd(_mm512_sub_pd(term, p2), zero);
      }
      _mm512_store_pd(acc + c, _mm512_add_pd(_mm512_load_pd(acc + c), term));
    }
  }
  __m512d best = _mm512_set1_pd(kInfinity);
  __m512d best_index = zero;
  __m512d index = _mm512_set_pd(7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0);
  const __m512d step = _mm512_set1_pd(8.0);
  const __m512d limit = _mm512_set1_pd(static_cast<double>(rows));
  for (size_t c = 0; c < lanes; c += 8) {
    const __m512d v = _mm512_load_pd(acc + c);
    const __mmask8 take =
        _mm512_cmp_pd_mask(v, best, _CMP_LT_OQ) &
        _mm512_cmp_pd_mask(index, limit, _CMP_LT_OQ);
    best = _mm512_mask_blend_pd(take, best, v);
    best_index = _mm512_mask_blend_pd(take, best_index, index);
    index = _mm512_add_pd(index, step);
  }
  alignas(64) double lane_best[8];
  alignas(64) double lane_index[8];
  _mm512_store_pd(lane_best, best);
  _mm512_store_pd(lane_index, best_index);
  return ReduceLanes(lane_best, lane_index, 8);
}

#endif  // UDM_ASSIGN_X86

SweepFn ResolveSweep(SimdLevel level, AssignmentDistance distance) {
  const bool adjusted = distance == AssignmentDistance::kErrorAdjusted;
#if UDM_ASSIGN_X86
  switch (level) {
    case SimdLevel::kAvx512:
      return adjusted ? &SweepAvx512<true> : &SweepAvx512<false>;
    case SimdLevel::kAvx2:
      return adjusted ? &SweepAvx2<true> : &SweepAvx2<false>;
    case SimdLevel::kScalar:
      break;
  }
#endif
  (void)level;
  return adjusted ? &SweepScalar<true> : &SweepScalar<false>;
}

}  // namespace

CentroidTable::CentroidTable(size_t num_dims, AssignmentDistance distance)
    : num_dims_(num_dims), distance_(distance), level_(ProcessSimdLevel()) {}

void CentroidTable::Reserve(size_t rows) {
  if (rows <= stride_) return;
  const size_t stride = RoundUp(std::max(rows, 2 * stride_), kPadLanes);
  AlignedVector<double> columns(num_dims_ * stride, 0.0);
  for (size_t j = 0; j < num_dims_; ++j) {
    std::copy_n(columns_.data() + j * stride_, rows_,
                columns.data() + j * stride);
  }
  columns_ = std::move(columns);
  stride_ = stride;
}

void CentroidTable::Append(std::span<const double> centroid) {
  Reserve(rows_ + 1);
  ++rows_;
  Set(rows_ - 1, centroid);
}

void CentroidTable::Append(const MicroCluster& cluster) {
  Reserve(rows_ + 1);
  ++rows_;
  Set(rows_ - 1, cluster);
}

void CentroidTable::Set(size_t row, std::span<const double> centroid) {
  UDM_DCHECK(row < rows_ && centroid.size() == num_dims_);
  for (size_t j = 0; j < num_dims_; ++j) {
    columns_[j * stride_ + row] = centroid[j];
  }
}

void CentroidTable::Set(size_t row, const MicroCluster& cluster) {
  UDM_DCHECK(row < rows_ && cluster.NumDims() == num_dims_);
  for (size_t j = 0; j < num_dims_; ++j) {
    columns_[j * stride_ + row] = cluster.Centroid(j);
  }
}

void CentroidTable::SwapErase(size_t row) {
  UDM_DCHECK(row < rows_);
  const size_t last = rows_ - 1;
  for (size_t j = 0; j < num_dims_; ++j) {
    double* col = columns_.data() + j * stride_;
    col[row] = col[last];
    col[last] = 0.0;
  }
  rows_ = last;
}

NearestCentroid CentroidTable::NearestAt(SimdLevel level,
                                         std::span<const double> values,
                                         std::span<const double> psi) const {
  UDM_DCHECK(rows_ > 0 && values.size() == num_dims_);
  const bool adjusted = distance_ == AssignmentDistance::kErrorAdjusted;
  UDM_DCHECK(!adjusted || psi.size() == num_dims_);
  // One arena slot: the per-row accumulators, then ψ_j² (computed once per
  // point, rounded exactly as the scalar reference's psi[j] * psi[j]).
  const std::span<double> scratch = ScratchArena::ThreadLocal().Doubles(
      ScratchArena::kAssignDistances, stride_ + num_dims_);
  double* psi2 = scratch.data() + stride_;
  if (adjusted) {
    for (size_t j = 0; j < num_dims_; ++j) psi2[j] = psi[j] * psi[j];
  }
  return ResolveSweep(level, distance_)(columns_.data(), stride_, rows_,
                                        num_dims_, values.data(), psi2,
                                        scratch.data());
}

void RecordAssignment(uint64_t distance_evals, double seconds) {
  static obs::Counter& evals =
      obs::MetricsRegistry::Global().GetCounter("microcluster.distance_evals");
  static obs::Histogram& assign_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "microcluster.assign.seconds");
  evals.Increment(distance_evals);
  assign_seconds.Record(seconds);
}

}  // namespace udm
