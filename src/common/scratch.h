#ifndef UDM_COMMON_SCRATCH_H_
#define UDM_COMMON_SCRATCH_H_

#include <array>
#include <cstddef>
#include <span>

#include "common/logging.h"
#include "common/simd.h"

namespace udm {

/// Reusable per-thread scratch buffers for the density hot paths.
///
/// Every density evaluation needs short-lived working memory (a
/// `log_terms` vector per log-sum-exp query, per-cell bounds for the
/// spatial index). Allocating these per call puts malloc/free on the hot
/// path and defeats the column-major kernel sweeps, so evaluators borrow
/// buffers from an arena instead. The batch driver
/// (kde/summand_density.cc) hands each worker the arena of its own thread,
/// and the single-point entry points use ThreadLocal() directly — so no
/// synchronization is needed and a buffer stays warm in cache across the
/// queries one thread processes back to back.
///
/// Buffers are identified by slot index; a caller may hold several slots
/// at once (e.g. kLogTerms for the full-model term vector while
/// kCellBounds holds the index's per-cell bounds). Borrowing the same slot
/// twice in one call frame would alias, so slots are named rather than
/// pooled.
///
/// All buffers are 64-byte aligned (common/simd.h) so the explicit SIMD
/// sweeps and the vectorized exp pass start on a full cache line.
class ScratchArena {
 public:
  /// Slot conventions used by the density evaluators. The arena itself is
  /// agnostic — any caller may use any slot, as long as it does not hold
  /// two aliases of the same slot at once.
  enum Slot : size_t {
    /// Per-summand log-kernel terms (log-sum-exp pass 1).
    kLogTerms = 0,
    /// Per-cell best-case contribution bounds (spatial index).
    kCellBounds = 1,
    /// Per-cell visited markers (spatial index pass 2; 0.0 / 1.0).
    kCellFlags = 2,
    /// Eq. 5 assignment sweep: per-centroid distances, then ψ_j²
    /// (microcluster/centroid_table.h).
    kAssignDistances = 3,
    kNumSlots = 4,
  };

  /// Returns slot `slot` resized to exactly `n` doubles. Contents are
  /// stale (whatever the previous borrower left); callers must initialize
  /// the range they read. Capacity is retained across calls, so steady
  /// state performs no allocation.
  std::span<double> Doubles(size_t slot, size_t n) {
    AlignedVector<double>& buffer = buffers_[slot];
    if (buffer.size() < n) buffer.resize(n);
    UDM_DCHECK(n == 0 || IsSimdAligned(buffer.data()));
    return std::span<double>(buffer.data(), n);
  }

  /// The calling thread's arena.
  static ScratchArena& ThreadLocal() {
    thread_local ScratchArena arena;
    return arena;
  }

 private:
  std::array<AlignedVector<double>, kNumSlots> buffers_;
};

}  // namespace udm

#endif  // UDM_COMMON_SCRATCH_H_
