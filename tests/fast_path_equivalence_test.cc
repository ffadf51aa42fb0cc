// Golden-equivalence suite for the precomputed-kernel fast paths: every
// density estimator now evaluates via column-major precomputed tables
// (kde/kernel_table.h) instead of calling the per-eval kernel formulas,
// so these tests re-derive each density with the naive per-eval formula
// and assert the fast path matches to <= 1e-12 relative error — across
// both kernel normalizations, subspaces, psi = 0 degenerate rows, and
// the log-sum-exp pruning opt-out.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "dataset/dataset.h"
#include "dataset/uci_like.h"
#include "error/error_model.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "kde/kernel.h"
#include "kde/simd_sweep.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

constexpr double kRelTol = 1e-12;

/// Expects fast == naive to within 1e-12 relative error. Two values that
/// both underflowed to the subnormal range compare equal (the naive
/// linear-space product hits zero where the log-space fast path still
/// resolves a denormal — both mean "no density here").
void ExpectRelClose(double fast, double naive, const char* what) {
  if (std::fabs(fast) < 1e-300 && std::fabs(naive) < 1e-300) return;
  const double scale = std::max(std::fabs(fast), std::fabs(naive));
  EXPECT_NEAR(fast, naive, kRelTol * scale)
      << what << ": fast=" << fast << " naive=" << naive;
}

/// The fixture everything shares: noisy adult-like data with a few rows
/// forced to psi = 0 (the degenerate no-error case the tables must
/// collapse correctly for).
struct Fixture {
  Fixture()
      : clean(MakeAdultLike(240, 7).value()),
        uncertain(Perturb(clean, Noise()).value()) {
    for (const size_t row : {0UL, 17UL, 101UL}) {
      for (size_t j = 0; j < clean.NumDims(); ++j) {
        uncertain.errors.SetPsi(row, j, 0.0);
      }
    }
  }

  static PerturbationOptions Noise() {
    PerturbationOptions perturb;
    perturb.f = 1.5;
    return perturb;
  }

  Dataset clean;
  UncertainDataset uncertain;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

std::vector<size_t> AllDims(size_t d) {
  std::vector<size_t> dims(d);
  for (size_t j = 0; j < d; ++j) dims[j] = j;
  return dims;
}

/// Naive Eq. 3-4 density: per-eval LogErrorKernelValue, exp per point.
double NaiveErrorDensity(const Dataset& data, const ErrorModel& errors,
                         std::span<const double> bandwidths,
                         KernelNormalization normalization,
                         std::span<const double> x,
                         std::span<const size_t> dims) {
  KahanSum sum;
  for (size_t i = 0; i < data.NumRows(); ++i) {
    const auto row = data.Row(i);
    const auto psi = errors.RowPsi(i);
    double log_product = 0.0;
    for (size_t dim : dims) {
      log_product += LogErrorKernelValue(x[dim] - row[dim], bandwidths[dim],
                                         psi[dim], normalization);
    }
    sum.Add(std::exp(log_product));
  }
  return sum.Total() / static_cast<double>(data.NumRows());
}

/// Naive exact two-pass log-sum-exp of the same terms (no pruning).
double NaiveErrorLogDensity(const Dataset& data, const ErrorModel& errors,
                            std::span<const double> bandwidths,
                            KernelNormalization normalization,
                            std::span<const double> x,
                            std::span<const size_t> dims) {
  std::vector<double> log_terms(data.NumRows());
  double max_term = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < data.NumRows(); ++i) {
    const auto row = data.Row(i);
    const auto psi = errors.RowPsi(i);
    double log_product = 0.0;
    for (size_t dim : dims) {
      log_product += LogErrorKernelValue(x[dim] - row[dim], bandwidths[dim],
                                         psi[dim], normalization);
    }
    log_terms[i] = log_product;
    max_term = std::max(max_term, log_product);
  }
  KahanSum sum;
  for (double term : log_terms) sum.Add(std::exp(term - max_term));
  return max_term + std::log(sum.Total()) -
         std::log(static_cast<double>(data.NumRows()));
}

class NormalizationSweep
    : public ::testing::TestWithParam<KernelNormalization> {};

TEST_P(NormalizationSweep, ErrorKdeLinearMatchesNaiveFormula) {
  const Fixture& f = SharedFixture();
  DensityEvalOptions options;
  options.normalization = GetParam();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
          .value();
  const std::vector<size_t> all = AllDims(f.clean.NumDims());
  const std::vector<size_t> subspace = {0, 2, 5};
  for (const size_t row : {0UL, 3UL, 17UL, 101UL, 200UL}) {
    const auto x = f.uncertain.data.Row(row);
    ExpectRelClose(kde.EvaluateSubspace(x, all),
                   NaiveErrorDensity(f.uncertain.data, f.uncertain.errors,
                                     kde.bandwidths(), GetParam(), x, all),
                   "full-space linear");
    ExpectRelClose(
        kde.EvaluateSubspace(x, subspace),
        NaiveErrorDensity(f.uncertain.data, f.uncertain.errors,
                          kde.bandwidths(), GetParam(), x, subspace),
        "subspace linear");
  }
}

TEST_P(NormalizationSweep, ErrorKdeLogMatchesNaiveFormula) {
  const Fixture& f = SharedFixture();
  DensityEvalOptions options;
  options.normalization = GetParam();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
          .value();
  const std::vector<size_t> all = AllDims(f.clean.NumDims());
  const std::vector<size_t> subspace = {1, 4};
  for (const size_t row : {0UL, 17UL, 60UL, 150UL}) {
    const auto x = f.uncertain.data.Row(row);
    ExpectRelClose(
        kde.LogEvaluateSubspace(x, all),
        NaiveErrorLogDensity(f.uncertain.data, f.uncertain.errors,
                             kde.bandwidths(), GetParam(), x, all),
        "full-space log");
    ExpectRelClose(
        kde.LogEvaluateSubspace(x, subspace),
        NaiveErrorLogDensity(f.uncertain.data, f.uncertain.errors,
                             kde.bandwidths(), GetParam(), x, subspace),
        "subspace log");
  }
}

INSTANTIATE_TEST_SUITE_P(Normalizations, NormalizationSweep,
                         ::testing::Values(KernelNormalization::kPaper,
                                           KernelNormalization::kExact));

TEST(FastPathEquivalenceTest, PruningOptOutMatchesDefaultAndNaive) {
  const Fixture& f = SharedFixture();
  DensityEvalOptions exact;
  exact.log_prune_threshold = std::numeric_limits<double>::infinity();
  const ErrorKernelDensity pruned =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  const ErrorKernelDensity unpruned =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, exact)
          .value();
  const std::vector<size_t> all = AllDims(f.clean.NumDims());
  // A far-tail query spreads the log-terms over hundreds of nats, so the
  // default gap of 37 genuinely prunes while the opt-out must reproduce
  // the naive two-pass sum.
  std::vector<double> far(f.clean.NumDims(), 0.0);
  for (size_t j = 0; j < far.size(); ++j) {
    far[j] = f.uncertain.data.Row(0)[j] * 3.0 + 50.0;
  }
  for (const auto& x : {std::span<const double>(f.uncertain.data.Row(5)),
                        std::span<const double>(far)}) {
    const double naive =
        NaiveErrorLogDensity(f.uncertain.data, f.uncertain.errors,
                             unpruned.bandwidths(),
                             KernelNormalization::kPaper, x, all);
    ExpectRelClose(unpruned.LogEvaluateSubspace(x, all), naive,
                   "opt-out log vs naive");
    ExpectRelClose(pruned.LogEvaluateSubspace(x, all), naive,
                   "pruned log vs naive");
  }
}

TEST(FastPathEquivalenceTest, PruningIsObservableInEvalStats) {
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity pruned =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  DensityEvalOptions exact;
  exact.log_prune_threshold = std::numeric_limits<double>::infinity();
  const ErrorKernelDensity unpruned =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, exact)
          .value();
  EvalRequest request;
  request.points =
      f.uncertain.data.values().subspan(0, 32 * f.clean.NumDims());
  request.log_space = true;
  const EvalResult with = pruned.Evaluate(request).value();
  const EvalResult without = unpruned.Evaluate(request).value();
  EXPECT_GT(with.stats.pruned_terms, 0u)
      << "default threshold should prune spread-out log-terms";
  EXPECT_EQ(without.stats.pruned_terms, 0u) << "opt-out must never prune";
  ASSERT_EQ(with.densities.size(), without.densities.size());
  for (size_t i = 0; i < with.densities.size(); ++i) {
    ExpectRelClose(with.densities[i], without.densities[i],
                   "pruned vs exact batch");
  }
}

TEST(FastPathEquivalenceTest, RejectsInvalidPruneThreshold) {
  const Fixture& f = SharedFixture();
  DensityEvalOptions options;
  options.log_prune_threshold = 0.0;
  EXPECT_FALSE(
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
          .ok());
  options.log_prune_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
          .ok());
}

/// Naive Eq. 1-2 plain KDE: the Gaussian product Π_j φ((x_j − X_ij)/h_j)/h_j
/// per training point, summed and divided by N.
double NaiveGaussianProductDensity(const Dataset& data,
                                   std::span<const double> bandwidths,
                                   std::span<const double> x,
                                   std::span<const size_t> dims) {
  KahanSum sum;
  for (size_t i = 0; i < data.NumRows(); ++i) {
    const auto train = data.Row(i);
    double product = 1.0;
    for (size_t dim : dims) {
      product *= StdNormalPdf((x[dim] - train[dim]) / bandwidths[dim]) /
                 bandwidths[dim];
    }
    sum.Add(product);
  }
  return sum.Total() / static_cast<double>(data.NumRows());
}

TEST(FastPathEquivalenceTest, GaussianKdeMatchesNaiveProduct) {
  // The plain KDE is the ψ ≡ 0 error KDE (DESIGN.md S10).
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data,
                              ErrorModel::Zero(f.uncertain.data.NumRows(),
                                               f.uncertain.data.NumDims()))
          .value();
  const std::vector<size_t> all = AllDims(f.clean.NumDims());
  const std::vector<size_t> subspace = {0, 3, 5};
  for (const size_t row : {0UL, 11UL, 77UL, 190UL}) {
    const auto x = f.uncertain.data.Row(row);
    for (const auto& dims : {all, subspace}) {
      ExpectRelClose(kde.EvaluateSubspace(x, dims),
                     NaiveGaussianProductDensity(f.uncertain.data,
                                                 kde.bandwidths(), x, dims),
                     "gaussian kde");
    }
  }
}

TEST(FastPathEquivalenceTest, ZeroErrorRowsCollapseToPlainGaussian) {
  // With an all-zero error model the per-(point, dim) tables collapse to
  // the plain Gaussian kernel, in log space too: the log-sum-exp path must
  // match the log of the naive Gaussian product.
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity error_kde =
      ErrorKernelDensity::Fit(
          f.clean, ErrorModel::Zero(f.clean.NumRows(), f.clean.NumDims()))
          .value();
  const std::vector<size_t> all = AllDims(f.clean.NumDims());
  for (const size_t row : {0UL, 50UL, 150UL}) {
    const auto x = f.clean.Row(row);
    ExpectRelClose(error_kde.LogEvaluateSubspace(x, all),
                   std::log(NaiveGaussianProductDensity(
                       f.clean, error_kde.bandwidths(), x, all)),
                   "psi=0 collapse");
  }
}

TEST(FastPathEquivalenceTest, McDensityMatchesNaiveFormula) {
  const Fixture& f = SharedFixture();
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = 25;
  const auto clusters =
      BuildMicroClusters(f.uncertain.data, f.uncertain.errors, mc_options)
          .value();
  for (const KernelNormalization normalization :
       {KernelNormalization::kPaper, KernelNormalization::kExact}) {
    DensityEvalOptions options;
    options.normalization = normalization;
    options.log_prune_threshold = std::numeric_limits<double>::infinity();
    const McDensityModel model =
        McDensityModel::Build(clusters, options).value();
    const std::vector<size_t> all = AllDims(f.clean.NumDims());
    const std::vector<size_t> subspace = {1, 3, 4};
    for (const size_t row : {0UL, 30UL, 120UL}) {
      const auto x = f.uncertain.data.Row(row);
      for (const auto& dims : {all, subspace}) {
        // Naive Eq. 9-10: weighted pseudo-point sum with per-eval kernels.
        KahanSum sum;
        std::vector<double> log_terms;
        double max_term = -std::numeric_limits<double>::infinity();
        size_t c = 0;
        for (const MicroCluster& cluster : clusters) {
          if (cluster.IsEmpty()) continue;
          double log_product = 0.0;
          for (size_t dim : dims) {
            log_product += LogErrorKernelValue(
                x[dim] - cluster.Centroid(dim), model.bandwidths()[dim],
                cluster.DeltaAt(dim), normalization);
          }
          sum.Add(model.weights()[c] * std::exp(log_product));
          const double log_term = std::log(model.weights()[c]) + log_product;
          log_terms.push_back(log_term);
          max_term = std::max(max_term, log_term);
          ++c;
        }
        ExpectRelClose(model.EvaluateSubspace(x, dims), sum.Total(),
                       "mc linear");
        KahanSum log_sum;
        for (double term : log_terms) log_sum.Add(std::exp(term - max_term));
        ExpectRelClose(model.LogEvaluateSubspace(x, dims),
                       max_term + std::log(log_sum.Total()), "mc log");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch equivalence (DESIGN.md §4k): for every ISA level the host
// can execute, the vector sweeps must be bit-identical to the scalar
// reference (they share one pinned per-element rounding sequence), the
// exp-and-sum pass must keep pruned-term counts exactly identical and
// sums within 1e-12 relative, and whole-model results under a forced
// level must match the scalar model to the same contract.

/// Every level this host can actually run, scalar first.
std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel best = DetectBestSimdLevel();
  if (best >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (best >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Sizes covering n = 0, 1, lane-1, lane, lane+1 for both 4- and 8-wide
/// lanes, plus chunk-scale sizes with ragged tails.
const std::vector<size_t>& DegenerateSizes() {
  static const std::vector<size_t> sizes = {0,  1,  3,   4,   5,   7,
                                            8,  9,  31,  256, 1000, 1003};
  return sizes;
}

TEST(SimdDispatchTest, SweepBitIdenticalToScalarAtEverySize) {
  Rng rng(91);
  const auto& scalar = kde_internal::GetSimdDispatch(SimdLevel::kScalar);
  for (const SimdLevel level : RunnableLevels()) {
    const auto& dispatch = kde_internal::GetSimdDispatch(level);
    ASSERT_EQ(dispatch.level, level);
    for (const size_t n : DegenerateSizes()) {
      AlignedVector<double> col(n);
      AlignedVector<double> neg_inv_two_var(n);
      AlignedVector<double> log_norm(n);
      std::vector<double> acc_scalar(n);
      std::vector<double> acc_vector(n);
      for (size_t i = 0; i < n; ++i) {
        col[i] = rng.Gaussian(0.0, 3.0);
        const double h = 0.1 + std::fabs(rng.Gaussian(0.3, 0.2));
        neg_inv_two_var[i] = -1.0 / (2.0 * h * h);
        log_norm[i] = -std::log(h) - 0.918938533204672742;
        acc_scalar[i] = acc_vector[i] = rng.Gaussian();
      }
      scalar.sweep(0.83, col.data(), neg_inv_two_var.data(), log_norm.data(),
                   acc_scalar.data(), n);
      dispatch.sweep(0.83, col.data(), neg_inv_two_var.data(),
                     log_norm.data(), acc_vector.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(acc_scalar[i], acc_vector[i])
            << "sweep level=" << SimdLevelName(level) << " n=" << n
            << " i=" << i;
      }
    }
  }
}

/// Tests run once per dispatch level; levels the host lacks skip.
class LevelTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    if (GetParam() > DetectBestSimdLevel()) {
      GTEST_SKIP() << "host CPU lacks the " << SimdLevelName(GetParam())
                   << " level";
    }
  }
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(SimdDispatchTest, ExpAccumMatchesScalarWithIdenticalPrunedCounts) {
  Rng rng(92);
  const auto& scalar = kde_internal::GetSimdDispatch(SimdLevel::kScalar);
  const double gap = 37.0;
  for (const SimdLevel level : RunnableLevels()) {
    const auto& dispatch = kde_internal::GetSimdDispatch(level);
    for (const size_t n : DegenerateSizes()) {
      AlignedVector<double> terms(n);
      double max_term = -std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        // Spread the terms across the gap so both branches are exercised.
        terms[i] = -std::fabs(rng.Gaussian(0.0, 25.0));
        max_term = std::max(max_term, terms[i]);
      }
      if (n == 0) max_term = 0.0;
      for (const double shift : {0.0, max_term}) {
        kde_internal::ExpSumState ref;
        scalar.pruned_exp_accum(terms.data(), n, 0, max_term, shift, gap,
                                ref);
        kde_internal::ExpSumState got;
        dispatch.pruned_exp_accum(terms.data(), n, 0, max_term, shift, gap,
                                  got);
        EXPECT_EQ(ref.pruned, got.pruned)
            << "pruned count level=" << SimdLevelName(level) << " n=" << n;
        ExpectRelClose(got.Total(), ref.Total(), "exp-accum sum");
      }
    }
  }
}

/// The state after feeding terms[0, n) — global indices [offset, offset +
/// n) — as consecutive runs of the given lengths, each with its own
/// global offset (the last run takes whatever is left).
kde_internal::ExpSumState SplitSum(const kde_internal::SimdDispatch& dispatch,
                                   const std::vector<double>& terms,
                                   size_t offset, const std::vector<size_t>& runs,
                                   double max_term, double shift, double gap) {
  kde_internal::ExpSumState state;
  size_t i = 0;
  for (const size_t run : runs) {
    const size_t len = std::min(run, terms.size() - i);
    dispatch.pruned_exp_accum(terms.data() + i, len, offset + i, max_term,
                              shift, gap, state);
    i += len;
  }
  dispatch.pruned_exp_accum(terms.data() + i, terms.size() - i, offset + i,
                            max_term, shift, gap, state);
  return state;
}

TEST_P(LevelTest, ExpAccumSplitInvariantAtEveryPhase) {
  // Split invariance at a fixed level: feeding the same terms as ragged
  // runs through one resumable state is bit-identical to one call over
  // the whole array, whatever the start phase of the array and of each
  // run. This is what makes the indexed path's per-cell accumulation
  // match the dense path at every level.
  const auto& dispatch = kde_internal::GetSimdDispatch(GetParam());
  Rng rng(96);
  const double gap = 37.0;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{17}, size_t{140}, size_t{301}}) {
    std::vector<double> terms(n);
    double max_term = 0.0;
    for (double& t : terms) {
      t = -std::fabs(rng.Gaussian(0.0, 25.0));
      max_term = std::max(max_term, t);
    }
    for (size_t phase = 0; phase < 8; ++phase) {
      const size_t offset = 8 * 37 + phase;
      for (const double shift : {0.0, max_term}) {
        const kde_internal::ExpSumState whole =
            SplitSum(dispatch, terms, offset, {}, max_term, shift, gap);
        for (int trial = 0; trial < 24; ++trial) {
          // Ragged runs of every length 0..17, empty runs included.
          std::vector<size_t> runs(n / 3 + 2);
          for (size_t& run : runs) run = rng.UniformInt(18);
          const kde_internal::ExpSumState split =
              SplitSum(dispatch, terms, offset, runs, max_term, shift, gap);
          ASSERT_EQ(Bits(split.Total()), Bits(whole.Total()))
              << "n=" << n << " phase=" << phase << " trial=" << trial;
          ASSERT_EQ(split.pruned, whole.pruned);
        }
      }
    }
  }
}

/// exp(x) through the level's exp-and-sum: one kept term at global index
/// `offset`, so the sum is that term's exp exactly.
double OneTermExp(const kde_internal::SimdDispatch& dispatch, double x,
                  size_t offset = 0) {
  kde_internal::ExpSumState state;
  dispatch.pruned_exp_accum(&x, 1, offset, /*max_term=*/x, /*shift=*/0.0,
                            /*gap=*/0.0, state);
  EXPECT_EQ(state.pruned, 0u) << "x=" << x;
  return state.Total();
}

/// Distance in units in the last place between two finite non-negative
/// doubles.
uint64_t UlpDistance(double a, double b) {
  const uint64_t x = Bits(a);
  const uint64_t y = Bits(b);
  return x > y ? x - y : y - x;
}

TEST_P(LevelTest, OneTermExpTracksStdExp) {
  // The vector exp is documented at <= 1 ulp of the correctly rounded
  // exp per term; require <= 2 ulp of std::exp and 1e-13 relative across
  // the finite range and the reduction seams (the k-rounding points are
  // odd multiples of ln2/16), far tighter than the 1e-12 end-to-end
  // contract. The scalar level is std::exp itself.
  const auto& dispatch = kde_internal::GetSimdDispatch(GetParam());
  const bool scalar = GetParam() == SimdLevel::kScalar;
  const auto expect_close = [&](double x, size_t offset) {
    const double got = OneTermExp(dispatch, x, offset);
    const double want = std::exp(x);
    ASSERT_NEAR(got, want, 1e-13 * want) << "x=" << x;
    ASSERT_LE(UlpDistance(got, want), scalar ? 0u : 2u) << "x=" << x;
  };
  Rng rng(93);
  for (int i = 0; i < 200000; ++i) {
    const double x = (i & 1) ? -700.0 + 1409.0 * rng.Uniform()
                             : -40.0 * rng.Uniform();
    expect_close(x, static_cast<size_t>(i) % 8);
  }
  for (int k = -32 * 1010; k <= 32 * 1023; ++k) {
    expect_close(0.6931471805599453 * k / 32.0, static_cast<size_t>(k) & 7);
  }
  // The overflow point: finite wherever std::exp is, +inf above
  // ln(DBL_MAX) ≈ 709.7827, including [709.44, 709.78], where a scale
  // of 2^round(x·log2e) built in one exponent field would overflow.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int i = 1; i <= 1000; ++i) {
    const double x = 709.0 + i / 1000.0;
    const double want = std::exp(x);
    const double got = OneTermExp(dispatch, x);
    if (std::isinf(want)) {
      EXPECT_EQ(got, kInf) << "x=" << x;
    } else {
      expect_close(x, 0);
    }
  }
  const double x_max = std::log(std::numeric_limits<double>::max());
  EXPECT_TRUE(std::isfinite(OneTermExp(dispatch, x_max)));
  expect_close(709.7, 0);  // 1.655e308
  for (const double x : {710.0, 800.0, kInf}) {
    EXPECT_EQ(OneTermExp(dispatch, x), kInf) << "x=" << x;
  }
  EXPECT_EQ(Bits(OneTermExp(dispatch, 0.0)), Bits(1.0));
  EXPECT_EQ(Bits(OneTermExp(dispatch, -0.0)), Bits(1.0));
  EXPECT_EQ(Bits(OneTermExp(dispatch, -kInf)), Bits(0.0)) << "-inf -> +0";
  EXPECT_TRUE(std::isnan(
      OneTermExp(dispatch, std::numeric_limits<double>::quiet_NaN())));
  // Below -708 the vector levels flush to +0; std::exp is still subnormal
  // down to -745.
  for (const double x : {-708.0000000000001, -720.0, -745.0, -750.0}) {
    const double got = OneTermExp(dispatch, x);
    EXPECT_EQ(Bits(got), Bits(scalar ? std::exp(x) : 0.0)) << "x=" << x;
  }
  expect_close(-708.0, 0);
}

TEST(SimdDispatchTest, ForcedLevelModelsMatchScalarModel) {
  const Fixture& f = SharedFixture();
  DensityEvalOptions scalar_options;
  scalar_options.simd = SimdRequest::kScalar;
  const ErrorKernelDensity scalar_kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors,
                              scalar_options)
          .value();
  EvalRequest request;
  request.points = f.uncertain.data.values().subspan(0, 48 * f.clean.NumDims());
  EvalRequest log_request = request;
  log_request.log_space = true;
  const EvalResult scalar_linear = scalar_kde.Evaluate(request).value();
  const EvalResult scalar_log = scalar_kde.Evaluate(log_request).value();
  EXPECT_EQ(scalar_linear.stats.simd, SimdLevel::kScalar);
  for (const SimdLevel level : RunnableLevels()) {
    DensityEvalOptions options;
    options.simd = level == SimdLevel::kAvx512  ? SimdRequest::kAvx512
                   : level == SimdLevel::kAvx2 ? SimdRequest::kAvx2
                                               : SimdRequest::kScalar;
    const ErrorKernelDensity kde =
        ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
            .value();
    const EvalResult linear = kde.Evaluate(request).value();
    const EvalResult log_batch = kde.Evaluate(log_request).value();
    EXPECT_EQ(linear.stats.simd, level) << "resolved level must be reported";
    EXPECT_EQ(linear.stats.pruned_terms, scalar_linear.stats.pruned_terms)
        << "pruning decisions are value-determined, never level-determined";
    EXPECT_EQ(log_batch.stats.pruned_terms, scalar_log.stats.pruned_terms);
    for (size_t i = 0; i < linear.densities.size(); ++i) {
      ExpectRelClose(linear.densities[i], scalar_linear.densities[i],
                     "forced-level linear batch");
      ExpectRelClose(log_batch.densities[i], scalar_log.densities[i],
                     "forced-level log batch");
    }
  }
}

// ---------------------------------------------------------------------------
// Roll-up fast-path primitives: the dispatched running max and the
// one-pass singleton densities. Each must reproduce its reference bit for
// bit.

/// The reference fold MaxTerm must equal: std::max(m, t) in term order.
double FoldMax(const std::vector<double>& terms, double init) {
  double m = init;
  for (const double t : terms) m = std::max(m, t);
  return m;
}

TEST_P(LevelTest, MaxTermMatchesScalarFoldBitwise) {
  const auto& dispatch = kde_internal::GetSimdDispatch(GetParam());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Special values mixed with ordinary negatives: NaN must never win,
  // and the sign of a zero maximum is the first zero's in fold order.
  const double specials[] = {kNaN, kInf, -kInf, 0.0, -0.0, -1.5, -1e300, 2.0};
  Rng rng(94);
  const size_t lanes = 8;  // the widest level; covers the 4-wide one too
  for (size_t n = 0; n <= 2 * lanes + 1; ++n) {
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<double> terms(n);
      for (double& t : terms) {
        t = rng.Uniform() < 0.5 ? specials[rng.UniformInt(8)]
                                : -std::fabs(rng.Gaussian(0.0, 30.0));
      }
      // Runs of signed zeros with nothing larger exercise the sign rule.
      if (trial % 4 == 0) {
        for (double& t : terms) {
          if (t > 0.0 || std::isnan(t)) t = rng.Uniform() < 0.5 ? 0.0 : -0.0;
        }
      }
      for (const double init : {-kInf, 0.0, -0.0, -3.0, kNaN}) {
        const double want = FoldMax(terms, init);
        const double got = dispatch.max_term(terms.data(), n, init);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << "n=" << n << " init=" << init;
        } else {
          EXPECT_EQ(Bits(got), Bits(want))
              << "n=" << n << " init=" << init << " want=" << want
              << " got=" << got;
        }
      }
    }
  }
  // Long random arrays, split into ragged runs that carry the max along.
  for (const size_t n : {size_t{140}, size_t{1003}}) {
    std::vector<double> terms(n);
    for (double& t : terms) t = rng.Gaussian(-40.0, 25.0);
    double chained = -kInf;
    for (size_t i = 0; i < n; i += 37) {
      chained = dispatch.max_term(terms.data() + i, std::min<size_t>(37, n - i),
                                  chained);
    }
    EXPECT_EQ(Bits(chained), Bits(FoldMax(terms, -kInf))) << "n=" << n;
    EXPECT_EQ(Bits(dispatch.max_term(terms.data(), n, -kInf)),
              Bits(FoldMax(terms, -kInf)));
  }
}

TEST(SimdDispatchTest, VectorLevelsReturnTheSameBits) {
  // AVX2 and AVX-512 run one exp algorithm (the AVX2 in-register lookup
  // and exponent-field scale reproduce vpermpd and vscalefpd) and one
  // stripe layout, so each term's exp and each sum agree bit for bit.
  if (DetectBestSimdLevel() < SimdLevel::kAvx512) {
    GTEST_SKIP() << "host CPU lacks AVX-512 (only one vector level runs)";
  }
  const auto& avx2 = kde_internal::GetSimdDispatch(SimdLevel::kAvx2);
  const auto& avx512 = kde_internal::GetSimdDispatch(SimdLevel::kAvx512);
  const auto expect_same = [&](double x) {
    const double want = OneTermExp(avx512, x);
    const double got = OneTermExp(avx2, x);
    if (std::isnan(want)) {
      ASSERT_TRUE(std::isnan(got)) << "x=" << x;
    } else {
      ASSERT_EQ(Bits(got), Bits(want)) << "x=" << x;
    }
  };
  Rng rng(95);
  for (int i = 0; i < 1000000; ++i) {
    // Half across the whole range, half where log-sum-exp shifts live.
    const double x = (i & 1) ? -745.0 + 1460.0 * rng.Uniform()
                             : -40.0 * rng.Uniform();
    expect_same(x);
  }
  // k-rounding boundaries: x·8·log2e within ±50 ulp of every
  // half-integer j + 1/2, where the round picks between two k.
  for (int j = -8 * 1022; j <= 8 * 1025; j += 3) {
    double x = (j + 0.5) * 0.6931471805599453 / 8.0;
    for (int step = 0; step < 50; ++step) x = std::nextafter(x, -1e308);
    for (int step = 0; step <= 100; ++step) {
      expect_same(x);
      x = std::nextafter(x, 1e308);
    }
  }
  for (const double x : {0.0, -0.0, -708.0, -708.0000000000001, 709.78, 710.0,
                         800.0, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    expect_same(x);
  }
  // Whole sums, at every start phase.
  for (const size_t n : {size_t{5}, size_t{140}, size_t{1003}}) {
    std::vector<double> terms(n);
    for (double& t : terms) t = -std::fabs(rng.Gaussian(0.0, 25.0));
    for (size_t offset = 0; offset < 8; ++offset) {
      const kde_internal::ExpSumState a =
          SplitSum(avx2, terms, offset, {}, 0.0, 0.0, 37.0);
      const kde_internal::ExpSumState b =
          SplitSum(avx512, terms, offset, {}, 0.0, 0.0, 37.0);
      EXPECT_EQ(Bits(a.Total()), Bits(b.Total()))
          << "n=" << n << " offset=" << offset;
      EXPECT_EQ(a.pruned, b.pruned);
    }
  }
}

TEST_P(LevelTest, LogEvaluateSingletonsMatchesPerDimensionCalls) {
  const Dataset clean = MakeForestCoverLike(4000, 4).value();
  PerturbationOptions perturb;
  perturb.f = 1.2;
  const UncertainDataset u = Perturb(clean, perturb).value();
  const size_t d = clean.NumDims();
  // q = 140 stays below the index's min_points; q = 600 builds one and
  // takes the per-dimension fallback.
  for (const size_t q : {size_t{140}, size_t{600}}) {
    MicroClusterer::Options mc;
    mc.num_clusters = q;
    const auto clusters = BuildMicroClusters(u.data, u.errors, mc).value();
    DensityEvalOptions options;
    options.simd = GetParam() == SimdLevel::kAvx512 ? SimdRequest::kAvx512
                   : GetParam() == SimdLevel::kAvx2 ? SimdRequest::kAvx2
                                                    : SimdRequest::kScalar;
    const McDensityModel model = McDensityModel::Build(clusters, options).value();
    ASSERT_EQ(model.has_index(), q >= options.index.min_points) << "q=" << q;
    std::vector<double> out(d);
    for (size_t row = 0; row < 200; row += 7) {
      const std::span<const double> x = u.data.Row(row);
      model.LogEvaluateSingletons(x, out);
      for (size_t j = 0; j < d; ++j) {
        const size_t dims[] = {j};
        EXPECT_EQ(Bits(out[j]), Bits(model.LogEvaluateSubspace(x, dims)))
            << "q=" << q << " row=" << row << " dim=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelTest,
                         ::testing::Values(SimdLevel::kScalar,
                                           SimdLevel::kAvx2,
                                           SimdLevel::kAvx512),
                         [](const auto& info) {
                           return std::string(SimdLevelName(info.param));
                         });

}  // namespace
}  // namespace udm
