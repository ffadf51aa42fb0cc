#include "kde/spatial_index.h"

#include <numeric>

namespace udm::kde_internal {
namespace {

/// Cell side along a keyed dimension, in units of that dimension's
/// bandwidth h_j. Smaller cells bound tighter but cost more per query.
constexpr double kCellWidthBandwidths = 2.0;
/// Grid dimensionality cap: the index keys on the kMaxGridDims dimensions
/// with the largest spread/h ratio (bounds still cover every dimension, so
/// subspace queries over non-keyed dims stay exact).
constexpr size_t kMaxGridDims = 3;
/// Per-dimension resolution cap, before occupancy-driven coarsening.
constexpr size_t kMaxCellsPerDim = 64;

struct KeyDim {
  size_t dim = 0;
  double lo = 0.0;
  double inv_side = 0.0;  // 1 / cell side
  size_t cells = 1;
};

uint64_t CellKey(std::span<const KeyDim> key_dims,
                 std::span<const double> columns, size_t num_points,
                 size_t point) {
  uint64_t key = 0;
  for (const KeyDim& k : key_dims) {
    const double v = columns[k.dim * num_points + point];
    double q = std::floor((v - k.lo) * k.inv_side);
    q = std::clamp(q, 0.0, static_cast<double>(k.cells - 1));
    key = key * k.cells + static_cast<uint64_t>(q);
  }
  return key;
}

}  // namespace

SpatialIndex SpatialIndex::Build(const ErrorKernelTable& table,
                                 std::span<const double> bandwidths,
                                 std::span<const double> log_seed,
                                 const DensityIndexOptions& options) {
  const std::span<const double> columns = table.values;
  const size_t num_points = table.num_points;
  const size_t num_dims = table.num_dims;
  SpatialIndex index;
  index.num_dims_ = num_dims;

  // Per-dimension extents, reused for key selection and the cell tables.
  std::vector<double> dim_lo(num_dims), dim_hi(num_dims);
  for (size_t j = 0; j < num_dims; ++j) {
    const double* col = columns.data() + j * num_points;
    double lo = col[0], hi = col[0];
    for (size_t i = 1; i < num_points; ++i) {
      lo = std::min(lo, col[i]);
      hi = std::max(hi, col[i]);
    }
    dim_lo[j] = lo;
    dim_hi[j] = hi;
  }

  // Key on the dimensions with the most bandwidth-relative spread — the
  // ones where distance actually discriminates. Constant dimensions
  // (spread 0) never key; with none usable the whole model is one cell,
  // which is a correct (if useless) index.
  std::vector<size_t> ranked(num_dims);
  std::iota(ranked.begin(), ranked.end(), size_t{0});
  std::vector<double> score(num_dims);
  for (size_t j = 0; j < num_dims; ++j) {
    score[j] = (dim_hi[j] - dim_lo[j]) / std::max(bandwidths[j], 1e-300);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](size_t a, size_t b) { return score[a] > score[b]; });

  std::vector<KeyDim> key_dims;
  for (size_t j : ranked) {
    if (key_dims.size() >= kMaxGridDims) break;
    if (!(score[j] > 0.0) || !std::isfinite(score[j])) continue;
    KeyDim k;
    k.dim = j;
    k.lo = dim_lo[j];
    const double side = kCellWidthBandwidths * bandwidths[j];
    const double span = dim_hi[j] - dim_lo[j];
    k.cells = static_cast<size_t>(
        std::clamp(std::ceil(span / side), 1.0,
                   static_cast<double>(kMaxCellsPerDim)));
    k.inv_side = static_cast<double>(k.cells) / span;
    key_dims.push_back(k);
  }

  // Deterministic re-packing: sort (cell key, original index). Coarsen by
  // halving per-dim resolutions until occupied cells hit the occupancy
  // floor, so the per-query bound pass stays a sliver of one full sweep.
  std::vector<std::pair<uint64_t, size_t>> keyed(num_points);
  const size_t occupancy_cap = std::max<size_t>(
      1, num_points / std::max<size_t>(1, options.min_mean_occupancy));
  size_t occupied = 0;
  for (;;) {
    for (size_t i = 0; i < num_points; ++i) {
      keyed[i] = {CellKey(key_dims, columns, num_points, i), i};
    }
    std::sort(keyed.begin(), keyed.end());
    occupied = 0;
    uint64_t prev = 0;
    for (size_t i = 0; i < num_points; ++i) {
      if (i == 0 || keyed[i].first != prev) ++occupied;
      prev = keyed[i].first;
    }
    bool can_coarsen = false;
    for (const KeyDim& k : key_dims) can_coarsen |= k.cells > 1;
    if (occupied <= occupancy_cap || !can_coarsen) break;
    for (KeyDim& k : key_dims) {
      if (k.cells > 1) {
        k.cells = (k.cells + 1) / 2;
        k.inv_side = static_cast<double>(k.cells) /
                     std::max(dim_hi[k.dim] - dim_lo[k.dim], 1e-300);
      }
    }
  }

  index.perm_.resize(num_points);
  index.cell_begin_.reserve(occupied + 1);
  for (size_t i = 0; i < num_points; ++i) {
    index.perm_[i] = keyed[i].second;
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      index.cell_begin_.push_back(i);
    }
  }
  index.cell_begin_.push_back(num_points);

  // Per-(cell, dim) tables over ALL dimensions (not just keyed ones), so
  // bounds stay exact for any query subspace. Column-major like the
  // kernel tables: entry (c, j) at [j*C + c].
  const size_t num_cells = index.num_cells();
  index.lo_.resize(num_cells * num_dims);
  index.hi_.resize(num_cells * num_dims);
  index.a_max_.resize(num_cells * num_dims);
  index.b_max_.resize(num_cells * num_dims);
  index.max_seed_.assign(num_cells, 0.0);
  for (size_t j = 0; j < num_dims; ++j) {
    const double* values = table.ValuesCol(j);
    const double* a_col = table.NegInvTwoVarCol(j);
    const double* b_col = table.LogNormCol(j);
    for (size_t c = 0; c < num_cells; ++c) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      double a_max = -std::numeric_limits<double>::infinity();
      double b_max = -std::numeric_limits<double>::infinity();
      for (size_t p = index.cell_begin_[c]; p < index.cell_begin_[c + 1];
           ++p) {
        const size_t i = index.perm_[p];
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
        a_max = std::max(a_max, a_col[i]);
        b_max = std::max(b_max, b_col[i]);
      }
      index.lo_[j * num_cells + c] = lo;
      index.hi_[j * num_cells + c] = hi;
      index.a_max_[j * num_cells + c] = a_max;
      index.b_max_[j * num_cells + c] = b_max;
    }
  }
  if (!log_seed.empty()) {
    for (size_t c = 0; c < num_cells; ++c) {
      double seed_max = -std::numeric_limits<double>::infinity();
      for (size_t p = index.cell_begin_[c]; p < index.cell_begin_[c + 1];
           ++p) {
        seed_max = std::max(seed_max, log_seed[index.perm_[p]]);
      }
      index.max_seed_[c] = seed_max;
    }
  }
  return index;
}

void SpatialIndex::ComputeCellBounds(std::span<const double> x,
                                     std::span<const size_t> dims,
                                     std::span<double> bounds) const {
  const size_t num_cells = this->num_cells();
  std::copy(max_seed_.begin(), max_seed_.end(), bounds.begin());
  for (size_t dim : dims) {
    const double x_d = x[dim];
    const double* lo = lo_.data() + dim * num_cells;
    const double* hi = hi_.data() + dim * num_cells;
    const double* a = a_max_.data() + dim * num_cells;
    const double* b = b_max_.data() + dim * num_cells;
    for (size_t c = 0; c < num_cells; ++c) {
      // Distance from x_d to [lo, hi]; 0 inside. NaN propagates (see .h).
      const double d = std::max(std::max(lo[c] - x_d, x_d - hi[c]), 0.0);
      bounds[c] += d * d * a[c] + b[c];
    }
  }
}

std::vector<double> Gather(std::span<const double> values,
                           std::span<const size_t> perm) {
  std::vector<double> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) out[i] = values[perm[i]];
  return out;
}

}  // namespace udm::kde_internal
