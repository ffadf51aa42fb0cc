// The spatial index's one hard promise, checked end to end through the
// public EvalRequest API: whatever IndexMode is in effect, densities,
// log-densities, and pruned-term counts are bit-identical to the exact
// non-indexed path. The index may only change how much work runs, never
// what is returned. Plus the mode-resolution contract (kForce fails
// loudly without an index) and the degenerate grids the build must
// survive.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "dataset/dataset.h"
#include "dataset/uci_like.h"
#include "error/error_model.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "kde/eval.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

constexpr size_t kWidths[] = {1, 2, 8};

struct Fixture {
  Fixture()
      : clean(MakeAdultLike(2000, 7).value()),
        uncertain(Perturb(clean, Noise()).value()) {}

  static PerturbationOptions Noise() {
    PerturbationOptions perturb;
    perturb.f = 1.0;
    return perturb;
  }

  Dataset clean;
  UncertainDataset uncertain;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

EvalRequest MakeRequest(std::span<const double> points, size_t threads,
                        bool log_space, IndexMode mode) {
  EvalRequest request;
  request.points = points;
  request.threads = threads;
  request.log_space = log_space;
  request.index = mode;
  return request;
}

/// The bit-identity sweep: for both spaces, a couple of subspaces, and
/// every thread width, kAuto/kForce answers must equal the serial kOff
/// reference exactly (EXPECT_EQ on doubles — no tolerance), and the
/// value-determined pruned-term count must be IndexMode-invariant.
template <typename Model>
void ExpectIndexedBitIdentity(const Model& model,
                              std::span<const double> queries,
                              std::span<const size_t> subspace) {
  for (const bool log_space : {false, true}) {
    EvalRequest reference_request =
        MakeRequest(queries, 1, log_space, IndexMode::kOff);
    reference_request.subspace = subspace;
    const EvalResult reference = model.Evaluate(reference_request).value();
    ASSERT_TRUE(reference.complete());
    for (const IndexMode mode : {IndexMode::kAuto, IndexMode::kForce}) {
      for (const size_t threads : kWidths) {
        EvalRequest request = MakeRequest(queries, threads, log_space, mode);
        request.subspace = subspace;
        const EvalResult indexed = model.Evaluate(request).value();
        EXPECT_EQ(indexed.densities, reference.densities)
            << (log_space ? "log" : "linear") << " space, " << threads
            << " threads";
        EXPECT_EQ(indexed.stats.pruned_terms, reference.stats.pruned_terms)
            << (log_space ? "log" : "linear") << " space, " << threads
            << " threads";
      }
    }
  }
}

TEST(SpatialIndexTest, ErrorKdeBitIdenticalAcrossNormalizations) {
  const Fixture& f = SharedFixture();
  const std::span<const double> queries =
      f.uncertain.data.values().subspan(0, 48 * f.clean.NumDims());
  const std::vector<size_t> narrow{0, 2};
  for (const KernelNormalization normalization :
       {KernelNormalization::kPaper, KernelNormalization::kExact}) {
    DensityEvalOptions options;
    options.normalization = normalization;
    const ErrorKernelDensity kde =
        ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
            .value();
    ASSERT_TRUE(kde.has_index());
    EXPECT_GT(kde.index_cells(), 1u);
    ExpectIndexedBitIdentity(kde, queries, {});
    ExpectIndexedBitIdentity(kde, queries, narrow);
  }
}

TEST(SpatialIndexTest, PlainKdeBitIdentical) {
  // The plain KDE is the ψ ≡ 0 error KDE (DESIGN.md S10).
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data,
                              ErrorModel::Zero(f.uncertain.data.NumRows(),
                                               f.uncertain.data.NumDims()))
          .value();
  ASSERT_TRUE(kde.has_index());
  const std::span<const double> queries =
      f.uncertain.data.values().subspan(0, 48 * f.clean.NumDims());
  const std::vector<size_t> narrow{1, 3};
  ExpectIndexedBitIdentity(kde, queries, {});
  ExpectIndexedBitIdentity(kde, queries, narrow);
}

TEST(SpatialIndexTest, McDensityBitIdentical) {
  const Fixture& f = SharedFixture();
  MicroClusterer::Options cluster_options;
  cluster_options.num_clusters = 60;
  const auto clusters =
      BuildMicroClusters(f.uncertain.data, f.uncertain.errors, cluster_options)
          .value();
  DensityEvalOptions options;
  options.index.min_points = 1;  // force a build over the 60 pseudo-points
  const McDensityModel model = McDensityModel::Build(clusters, options).value();
  ASSERT_TRUE(model.has_index());
  const std::span<const double> queries =
      f.uncertain.data.values().subspan(0, 96 * f.clean.NumDims());
  const std::vector<size_t> narrow{0, 4};
  ExpectIndexedBitIdentity(model, queries, {});
  ExpectIndexedBitIdentity(model, queries, narrow);
}

TEST(SpatialIndexTest, InfinitePruneGapRestoresExactTwoPass) {
  // +inf pruning gap: nothing may be pruned — no terms, no cells — under
  // any mode, and values still agree bitwise with the kOff reference.
  const Fixture& f = SharedFixture();
  DensityEvalOptions options;
  options.log_prune_threshold = std::numeric_limits<double>::infinity();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
          .value();
  ASSERT_TRUE(kde.has_index());
  const std::span<const double> queries =
      f.uncertain.data.values().subspan(0, 32 * f.clean.NumDims());
  ExpectIndexedBitIdentity(kde, queries, {});
  // kForce: with nothing prunable, a kAuto batch this size would bypass
  // the index entirely (see AutoBypassesAnIndexThatCannotPrune); forcing
  // it pins the property under test — the index visits every cell and
  // prunes none.
  const EvalResult indexed =
      kde.Evaluate(MakeRequest(queries, 1, /*log_space=*/true,
                               IndexMode::kForce))
          .value();
  EXPECT_EQ(indexed.stats.pruned_terms, 0u);
  EXPECT_EQ(indexed.stats.cells_pruned, 0u);
  EXPECT_GT(indexed.stats.cells_visited, 0u);
}

TEST(SpatialIndexTest, ForceFailsWithoutAnIndexAutoDegrades) {
  // Below min_points no index is built: kAuto silently runs exact, kForce
  // refuses with FailedPrecondition instead of silently going linear.
  const Dataset small = MakeAdultLike(64, 11).value();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(small, ErrorModel::Zero(64, small.NumDims()))
          .value();
  ASSERT_FALSE(kde.has_index());
  EXPECT_EQ(kde.index_cells(), 0u);
  const std::span<const double> queries =
      small.values().subspan(0, 4 * small.NumDims());
  EXPECT_TRUE(
      kde.Evaluate(MakeRequest(queries, 1, false, IndexMode::kAuto)).ok());
  const Result<EvalResult> forced =
      kde.Evaluate(MakeRequest(queries, 1, false, IndexMode::kForce));
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SpatialIndexTest, DisabledAtFitTimeBuildsNothing) {
  const Fixture& f = SharedFixture();
  DensityEvalOptions options;
  options.index.enabled = false;
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
          .value();
  EXPECT_FALSE(kde.has_index());
}

TEST(SpatialIndexTest, ConstantDimensionDegeneratesGracefully) {
  // One informative dimension, one constant: the constant dim has zero
  // spread and must be skipped as a grid key, while bounds still cover it.
  Dataset d = Dataset::Create(2).value();
  Rng rng(17);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        d.AppendRow(std::vector<double>{rng.Gaussian(0.0, 2.0), 5.0}, 0).ok());
  }
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(600, 2)).value();
  ASSERT_TRUE(kde.has_index());
  const std::span<const double> queries = d.values().subspan(0, 32 * 2);
  ExpectIndexedBitIdentity(kde, queries, {});
}

TEST(SpatialIndexTest, AllConstantDataDegeneratesToOneCell) {
  Dataset d = Dataset::Create(2).value();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(d.AppendRow(std::vector<double>{3.0, -1.0}, 0).ok());
  }
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(600, 2)).value();
  ASSERT_TRUE(kde.has_index());
  EXPECT_EQ(kde.index_cells(), 1u);
  const std::span<const double> queries = d.values().subspan(0, 8 * 2);
  ExpectIndexedBitIdentity(kde, queries, {});
}

TEST(SpatialIndexTest, TinyFitBelowCellCapacityBitIdentical) {
  // N far below one cell's natural occupancy, index forced on anyway.
  Dataset d = Dataset::Create(1).value();
  Rng rng(23);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        d.AppendRow(std::vector<double>{rng.Gaussian(0.0, 1.0)}, 0).ok());
  }
  DensityEvalOptions options;
  options.index.min_points = 1;
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(9, 1), options).value();
  ASSERT_TRUE(kde.has_index());
  const std::span<const double> queries = d.values();
  ExpectIndexedBitIdentity(kde, queries, {});
}

TEST(SpatialIndexTest, OneDimensionalDataPrunesAndStaysExact) {
  // 1-D data with tiny bandwidths: far-apart cells fall out of the 37-nat
  // gap, so the log path must actually prune cells — and still match kOff
  // bitwise. This is the test that fails if the cell bound is optimistic.
  Dataset d = Dataset::Create(1).value();
  Rng rng(29);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        d.AppendRow(std::vector<double>{rng.Uniform(0.0, 1.0)}, 0).ok());
  }
  DensityEvalOptions options;
  options.bandwidth_scale = 0.05;  // h ~ 3e-3: deep tails between cells
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(4000, 1), options).value();
  ASSERT_TRUE(kde.has_index());
  EXPECT_GT(kde.index_cells(), 4u);
  const std::span<const double> queries = d.values().subspan(0, 64);
  ExpectIndexedBitIdentity(kde, queries, {});
  const EvalResult log_run =
      kde.Evaluate(MakeRequest(queries, 1, /*log_space=*/true,
                               IndexMode::kAuto))
          .value();
  EXPECT_GT(log_run.stats.cells_pruned, 0u);
  const EvalResult linear_run =
      kde.Evaluate(MakeRequest(queries, 1, /*log_space=*/false,
                               IndexMode::kAuto))
          .value();
  // Every query lies inside the data's span, so the nearest cells always
  // survive even the linear underflow test.
  EXPECT_GT(linear_run.stats.cells_visited, 0u);
}

TEST(SpatialIndexTest, EvalStatsPartitionTheGrid) {
  // Per indexed query, every cell is either visited or pruned — never
  // both, never dropped — so the two stats sum to queries x cells, and
  // kOff reports zeros for both. kForce pins the batch to the index: on
  // this heavy-error fixture a kAuto batch would (correctly) probe,
  // find nothing prunable, and bypass to the dense path.
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  ASSERT_TRUE(kde.has_index());
  const size_t queries = 24;
  const std::span<const double> points =
      f.uncertain.data.values().subspan(0, queries * f.clean.NumDims());
  for (const bool log_space : {false, true}) {
    const EvalResult indexed =
        kde.Evaluate(MakeRequest(points, 1, log_space, IndexMode::kForce))
            .value();
    EXPECT_EQ(indexed.stats.cells_visited + indexed.stats.cells_pruned,
              queries * kde.index_cells())
        << (log_space ? "log" : "linear");
    EXPECT_GE(indexed.stats.cells_visited, queries)
        << (log_space ? "log" : "linear");
    const EvalResult off =
        kde.Evaluate(MakeRequest(points, 1, log_space, IndexMode::kOff))
            .value();
    EXPECT_EQ(off.stats.cells_visited, 0u);
    EXPECT_EQ(off.stats.cells_pruned, 0u);
    // The index charges only visited cells, so its accounted work can
    // never exceed the exact path's.
    EXPECT_LE(indexed.stats.kernel_evals, off.stats.kernel_evals);
  }
}

TEST(SpatialIndexTest, AutoBypassesAnIndexThatCannotPrune) {
  // The adaptive kAuto bypass (ResolveBatchIndex): on a heavy-error
  // fixture where the gap test keeps nearly every term, a large kAuto
  // batch probes its first query, sees almost no cells prune, and runs
  // the batch through the dense tiled path — visible only as zeroed cell
  // counters, with values and pruned-term counts still bit-identical to
  // both kOff and kForce. Small batches (below the probe threshold) keep
  // the index, since they have no query tiling to forgo.
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  ASSERT_TRUE(kde.has_index());
  const size_t queries = 32;
  const std::span<const double> points =
      f.uncertain.data.values().subspan(0, queries * f.clean.NumDims());
  for (const bool log_space : {false, true}) {
    const EvalResult bypassed =
        kde.Evaluate(MakeRequest(points, 1, log_space, IndexMode::kAuto))
            .value();
    EXPECT_EQ(bypassed.stats.cells_visited, 0u);
    EXPECT_EQ(bypassed.stats.cells_pruned, 0u);
    const EvalResult off =
        kde.Evaluate(MakeRequest(points, 1, log_space, IndexMode::kOff))
            .value();
    const EvalResult forced =
        kde.Evaluate(MakeRequest(points, 1, log_space, IndexMode::kForce))
            .value();
    EXPECT_EQ(bypassed.densities, off.densities);
    EXPECT_EQ(bypassed.densities, forced.densities);
    EXPECT_EQ(bypassed.stats.pruned_terms, off.stats.pruned_terms);
    EXPECT_EQ(bypassed.stats.pruned_terms, forced.stats.pruned_terms);
    // Below the probe threshold the batch stays on the index.
    const size_t small = kde_internal::kIndexBypassMinQueries - 1;
    const EvalResult kept =
        kde.Evaluate(MakeRequest(
                         points.subspan(0, small * f.clean.NumDims()), 1,
                         log_space, IndexMode::kAuto))
            .value();
    EXPECT_GT(kept.stats.cells_visited, 0u);
  }
}

TEST(SpatialIndexTest, OccupancyFloorCoarsensTheGridNotTheAnswers) {
  // min_mean_occupancy trades bound-pass cost against prune resolution:
  // a lower floor must yield at least as fine a grid, a much higher one
  // must collapse toward fewer cells, and — like every index knob — the
  // setting can never leak into results.
  const Fixture& f = SharedFixture();
  const std::span<const double> queries =
      f.uncertain.data.values().subspan(0, 32 * f.clean.NumDims());
  size_t prev_cells = 0;
  for (const size_t floor : {size_t{512}, size_t{16}, size_t{2}}) {
    DensityEvalOptions options;
    options.index.min_mean_occupancy = floor;
    const ErrorKernelDensity kde =
        ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
            .value();
    ASSERT_TRUE(kde.has_index());
    EXPECT_GE(kde.index_cells(), prev_cells) << "floor " << floor;
    prev_cells = kde.index_cells();
    ExpectIndexedBitIdentity(kde, queries, {});
  }
  // 2000 points / floor 2 must out-resolve 2000 / floor 512.
  EXPECT_GT(prev_cells, 1u);
}

}  // namespace
}  // namespace udm
