#include "microcluster/centroid_table.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "golden_digest.h"
#include "microcluster/clusterer.h"
#include "microcluster/distance.h"
#include "obs/metrics.h"
#include "stream/stream_summarizer.h"

namespace udm {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every dispatch level this host can execute, scalar first.
std::vector<SimdLevel> HostLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  const SimdLevel best = DetectBestSimdLevel();
  if (best >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (best >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// The scalar reference: ErrorAdjustedDistance / SquaredEuclidean over
/// row-major centroids with a first-strict-minimum scan.
NearestCentroid BruteForce(AssignmentDistance distance,
                           const std::vector<double>& rows, size_t d,
                           std::span<const double> x,
                           std::span<const double> psi) {
  NearestCentroid best;
  for (size_t c = 0; c * d < rows.size(); ++c) {
    const std::span<const double> centroid(rows.data() + c * d, d);
    const double dist = distance == AssignmentDistance::kErrorAdjusted
                            ? ErrorAdjustedDistance(x, psi, centroid)
                            : SquaredEuclidean(x, centroid);
    if (dist < best.distance) {
      best.distance = dist;
      best.index = c;
    }
  }
  return best;
}

/// A value that is usually Gaussian but sometimes NaN, ±inf or ±1e300.
double MaybeSpecial(Rng& rng, double special_rate) {
  static constexpr double kSpecials[] = {kNaN, kInf, -kInf, 1e300, -1e300};
  if (rng.Uniform() < special_rate) {
    return kSpecials[rng.UniformInt(std::size(kSpecials))];
  }
  return rng.Gaussian(0.0, 3.0);
}

/// Compares every host level's sweep with the brute-force reference: index
/// and distance bits must match exactly.
void ExpectAllLevelsMatch(const CentroidTable& table,
                          const std::vector<double>& rows, size_t d,
                          std::span<const double> x,
                          std::span<const double> psi) {
  const NearestCentroid want = BruteForce(table.distance(), rows, d, x, psi);
  for (const SimdLevel level : HostLevels()) {
    const NearestCentroid got = table.NearestAt(level, x, psi);
    EXPECT_EQ(got.index, want.index) << SimdLevelName(level);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
              std::bit_cast<uint64_t>(want.distance))
        << SimdLevelName(level) << " got " << got.distance << " want "
        << want.distance;
  }
  // The process-default dispatch is one of the levels above.
  const NearestCentroid dispatched = table.Nearest(x, psi);
  EXPECT_EQ(dispatched.index, want.index);
  EXPECT_EQ(std::bit_cast<uint64_t>(dispatched.distance),
            std::bit_cast<uint64_t>(want.distance));
}

TEST(CentroidTableTest, EveryLevelMatchesBruteForceAcrossLaneTails) {
  Rng rng(2024);
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    for (const size_t q : {1u, 3u, 7u, 8u, 9u, 140u, 141u}) {
      for (const size_t d : {1u, 10u, 34u}) {
        SCOPED_TRACE(testing::Message() << "q=" << q << " d=" << d);
        CentroidTable table(d, distance);
        std::vector<double> rows;
        for (size_t c = 0; c < q; ++c) {
          std::vector<double> centroid(d);
          for (double& v : centroid) v = MaybeSpecial(rng, 0.01);
          table.Append(centroid);
          rows.insert(rows.end(), centroid.begin(), centroid.end());
        }
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<double> x(d);
          std::vector<double> psi(d);
          for (size_t j = 0; j < d; ++j) {
            x[j] = MaybeSpecial(rng, 0.02);
            const double u = rng.Uniform();
            psi[j] = u < 0.3 ? 0.0 : (u < 0.32 ? MaybeSpecial(rng, 1.0)
                                               : rng.Uniform(0.0, 4.0));
          }
          ExpectAllLevelsMatch(table, rows, d, x, psi);
        }
      }
    }
  }
}

TEST(CentroidTableTest, SpecialValuesFollowTheScalarSemantics) {
  // NaN terms clamp to 0 under Eq. 5 (std::max(0.0, NaN) == 0) but poison
  // the Euclidean sum, which then never wins the strict compare.
  const std::vector<double> rows{kNaN, 0.0, 5.0, 5.0, 1e300, 1e300};
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> psi{0.0, 0.0};
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    CentroidTable table(2, distance);
    for (size_t c = 0; c < 3; ++c) {
      table.Append(std::span<const double>(rows.data() + 2 * c, 2));
    }
    ExpectAllLevelsMatch(table, rows, 2, x, psi);
  }
  CentroidTable adjusted(2, AssignmentDistance::kErrorAdjusted);
  adjusted.Append(std::span<const double>(rows.data(), 2));
  EXPECT_EQ(adjusted.Nearest(x, psi).distance, 4.0);  // NaN dim → 0

  // Every candidate NaN or +inf: the scan keeps its seed {0, +inf}.
  const std::vector<double> poisoned{kNaN, kInf, -kInf};
  CentroidTable euclidean(1, AssignmentDistance::kEuclidean);
  for (double v : poisoned) euclidean.Append(std::span<const double>(&v, 1));
  const std::vector<double> at_inf{kInf};
  ExpectAllLevelsMatch(euclidean, poisoned, 1, at_inf, {});
  EXPECT_EQ(euclidean.Nearest(at_inf, {}).index, 0u);
  EXPECT_EQ(euclidean.Nearest(at_inf, {}).distance, kInf);
}

TEST(CentroidTableTest, DuplicateCentroidsResolveToTheLowestIndex) {
  for (const size_t q : {3u, 9u, 141u}) {
    for (const AssignmentDistance distance :
         {AssignmentDistance::kErrorAdjusted,
          AssignmentDistance::kEuclidean}) {
      CentroidTable table(2, distance);
      std::vector<double> rows;
      for (size_t c = 0; c < q; ++c) {
        // Rows cycle through three points, so every distance is tied
        // with its copies in every lane.
        const std::vector<double> centroid{static_cast<double>(c % 3), 1.0};
        table.Append(centroid);
        rows.insert(rows.end(), centroid.begin(), centroid.end());
      }
      for (double x0 : {0.0, 1.0, 2.0, 1.5, -7.0}) {
        const std::vector<double> x{x0, 1.0};
        const std::vector<double> psi{0.25, 0.0};
        ExpectAllLevelsMatch(table, rows, 2, x, psi);
        EXPECT_LT(table.Nearest(x, psi).index, 3u);
      }
    }
  }
}

TEST(CentroidTableTest, SetAndSwapEraseKeepRowsInStep) {
  // Mirror every mutation on a row-major copy and re-check the sweep after
  // each, across column regrowth.
  Rng rng(7);
  constexpr size_t kDims = 5;
  CentroidTable table(kDims, AssignmentDistance::kErrorAdjusted);
  std::vector<double> rows;
  auto random_row = [&] {
    std::vector<double> row(kDims);
    for (double& v : row) v = rng.Gaussian(0.0, 2.0);
    return row;
  };
  for (int step = 0; step < 400; ++step) {
    const double u = rng.Uniform();
    if (table.size() < 2 || u < 0.5) {
      const std::vector<double> row = random_row();
      table.Append(row);
      rows.insert(rows.end(), row.begin(), row.end());
    } else if (u < 0.75) {
      const size_t r = rng.UniformInt(table.size());
      const std::vector<double> row = random_row();
      table.Set(r, row);
      std::copy(row.begin(), row.end(), rows.begin() + r * kDims);
    } else {
      const size_t r = rng.UniformInt(table.size());
      const size_t last = table.size() - 1;
      table.SwapErase(r);
      std::copy_n(rows.begin() + last * kDims, kDims, rows.begin() + r * kDims);
      rows.resize(last * kDims);
    }
    ASSERT_EQ(table.size() * kDims, rows.size());
    for (size_t r = 0; r < table.size(); ++r) {
      for (size_t j = 0; j < kDims; ++j) {
        ASSERT_EQ(table.At(r, j), rows[r * kDims + j]);
      }
    }
    const std::vector<double> x = random_row();
    std::vector<double> psi(kDims);
    for (double& p : psi) p = rng.Uniform(0.0, 1.0);
    ExpectAllLevelsMatch(table, rows, kDims, x, psi);
  }
}

// ---------------------------------------------------------------------------
// Observability: assignment is charged once per bulk call, never per point.
// ---------------------------------------------------------------------------

obs::Counter& DistanceEvals() {
  return obs::MetricsRegistry::Global().GetCounter(
      "microcluster.distance_evals");
}

obs::Histogram& AssignSeconds() {
  return obs::MetricsRegistry::Global().GetHistogram(
      "microcluster.assign.seconds");
}

TEST(AssignmentMetricsTest, BuildMicroClustersChargesEveryComparisonOnce) {
  const UncertainDataset u = golden::ForestLike(1000);
  constexpr size_t kQ = 140;
  MicroClusterer::Options options;
  options.num_clusters = kQ;
  const uint64_t evals_before = DistanceEvals().Value();
  const uint64_t samples_before = AssignSeconds().Count();
  ASSERT_TRUE(BuildMicroClusters(u.data, u.errors, options).ok());
  EXPECT_EQ(DistanceEvals().Value() - evals_before,
            (u.data.NumRows() - kQ) * kQ);
  EXPECT_EQ(AssignSeconds().Count() - samples_before, 1u);
}

TEST(AssignmentMetricsTest, IngestBatchChargesOnceWithItsComparisons) {
  const UncertainDataset u = golden::ForestLike(200);
  StreamSummarizer::Options options;
  options.num_clusters = 20;
  StreamSummarizer summarizer =
      StreamSummarizer::Create(u.data.NumDims(), options).value();
  std::vector<RecordView> records;
  for (size_t i = 0; i < u.data.NumRows(); ++i) {
    records.push_back({u.data.Row(i), u.errors.RowPsi(i), i + 1});
  }
  const uint64_t evals_before = DistanceEvals().Value();
  const uint64_t samples_before = AssignSeconds().Count();
  ExecContext ctx;
  ASSERT_TRUE(summarizer.IngestBatch(records, ctx).ok());
  EXPECT_EQ(DistanceEvals().Value() - evals_before,
            (u.data.NumRows() - 20) * 20);
  EXPECT_EQ(AssignSeconds().Count() - samples_before, 1u);
}

}  // namespace
}  // namespace udm
