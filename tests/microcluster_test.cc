#include "microcluster/microcluster.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"
#include "golden_digest.h"
#include "microcluster/centroid_table.h"
#include "microcluster/clusterer.h"
#include "microcluster/distance.h"

namespace udm {
namespace {

TEST(MicroClusterTest, EmptyCluster) {
  const MicroCluster c(3);
  EXPECT_EQ(c.NumDims(), 3u);
  EXPECT_TRUE(c.IsEmpty());
  EXPECT_EQ(c.Count(), 0u);
}

TEST(MicroClusterTest, SinglePointStatistics) {
  MicroCluster c(2);
  const std::vector<double> point{3.0, -1.0};
  const std::vector<double> psi{0.5, 2.0};
  c.AddPoint(point, psi);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_DOUBLE_EQ(c.Centroid(0), 3.0);
  EXPECT_DOUBLE_EQ(c.Centroid(1), -1.0);
  EXPECT_DOUBLE_EQ(c.VarianceAt(0), 0.0);
  EXPECT_DOUBLE_EQ(c.MeanSquaredErrorAt(0), 0.25);
  EXPECT_DOUBLE_EQ(c.Delta2At(0), 0.25);  // variance 0 + ψ²
  EXPECT_DOUBLE_EQ(c.DeltaAt(0), 0.5);
  EXPECT_DOUBLE_EQ(c.DeltaAt(1), 2.0);
}

TEST(MicroClusterTest, TupleEntriesMatchDefinitionOne) {
  MicroCluster c(1);
  c.AddPoint(std::vector<double>{2.0}, std::vector<double>{1.0});
  c.AddPoint(std::vector<double>{4.0}, std::vector<double>{3.0});
  EXPECT_DOUBLE_EQ(c.cf1()[0], 6.0);   // Σ x
  EXPECT_DOUBLE_EQ(c.cf2()[0], 20.0);  // Σ x²
  EXPECT_DOUBLE_EQ(c.ef2()[0], 10.0);  // Σ ψ²
  EXPECT_EQ(c.Count(), 2u);
}

TEST(MicroClusterTest, CentroidAndVariance) {
  MicroCluster c(1);
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    c.AddPoint(std::vector<double>{x}, std::vector<double>{0.0});
  }
  EXPECT_DOUBLE_EQ(c.Centroid(0), 2.5);
  EXPECT_DOUBLE_EQ(c.VarianceAt(0), 1.25);
  EXPECT_DOUBLE_EQ(c.Delta2At(0), 1.25);  // pure member variance
}

TEST(MicroClusterTest, Lemma1MatchesDirectComputation) {
  // Δ_j(C)² must equal (1/r)·Σ_i [ bias_j(Y_i,C)² + ψ_j(Y_i)² ] computed
  // directly from the member points (Lemma 1 / Eq. 8).
  Rng rng(71);
  const size_t r = 200;
  const size_t d = 3;
  std::vector<std::vector<double>> points;
  std::vector<std::vector<double>> psis;
  MicroCluster c(d);
  for (size_t i = 0; i < r; ++i) {
    std::vector<double> point(d);
    std::vector<double> psi(d);
    for (size_t j = 0; j < d; ++j) {
      point[j] = rng.Gaussian(static_cast<double>(j), 2.0);
      psi[j] = rng.Uniform(0.0, 1.5);
    }
    c.AddPoint(point, psi);
    points.push_back(point);
    psis.push_back(psi);
  }
  for (size_t j = 0; j < d; ++j) {
    const double centroid = c.Centroid(j);
    double direct = 0.0;
    for (size_t i = 0; i < r; ++i) {
      const double bias = points[i][j] - centroid;
      direct += bias * bias + psis[i][j] * psis[i][j];
    }
    direct /= static_cast<double>(r);
    EXPECT_NEAR(c.Delta2At(j), direct, 1e-9 * (1.0 + direct));
  }
}

TEST(MicroClusterTest, MergeEqualsBulkInsertion) {
  Rng rng(73);
  MicroCluster a(2);
  MicroCluster b(2);
  MicroCluster all(2);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> p{rng.Gaussian(), rng.Gaussian()};
    const std::vector<double> e{rng.Uniform(), rng.Uniform()};
    (i % 2 == 0 ? a : b).AddPoint(p, e);
    all.AddPoint(p, e);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(a.cf1()[j], all.cf1()[j], 1e-12);
    EXPECT_NEAR(a.cf2()[j], all.cf2()[j], 1e-12);
    EXPECT_NEAR(a.ef2()[j], all.ef2()[j], 1e-12);
    EXPECT_NEAR(a.Delta2At(j), all.Delta2At(j), 1e-12);
  }
}

TEST(MicroClusterTest, MergeIsCommutativeInStatistics) {
  MicroCluster a(1);
  MicroCluster b(1);
  a.AddPoint(std::vector<double>{1.0}, std::vector<double>{0.1});
  b.AddPoint(std::vector<double>{5.0}, std::vector<double>{0.7});
  MicroCluster ab = a;
  ab.Merge(b);
  MicroCluster ba = b;
  ba.Merge(a);
  EXPECT_DOUBLE_EQ(ab.cf1()[0], ba.cf1()[0]);
  EXPECT_DOUBLE_EQ(ab.cf2()[0], ba.cf2()[0]);
  EXPECT_DOUBLE_EQ(ab.ef2()[0], ba.ef2()[0]);
  EXPECT_EQ(ab.Count(), ba.Count());
}

TEST(MicroClusterTest, VarianceClampedAgainstCancellation) {
  // Identical large values: CF2/n − mean² cancels to ~0 and may go slightly
  // negative in floating point; the accessor must clamp.
  MicroCluster c(1);
  for (int i = 0; i < 1000; ++i) {
    c.AddPoint(std::vector<double>{1e8 + 0.1}, std::vector<double>{0.0});
  }
  EXPECT_GE(c.VarianceAt(0), 0.0);
  EXPECT_GE(c.Delta2At(0), 0.0);
}

TEST(AggregateStatsTest, RecoversUnderlyingDataStats) {
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.seed = 31;
  const Dataset d = MakeMixtureDataset(spec, 3000).value();
  PerturbationOptions perturb;
  perturb.f = 0.5;
  const UncertainDataset uncertain = Perturb(d, perturb).value();

  // Partition the points arbitrarily into 7 clusters.
  std::vector<MicroCluster> clusters(7, MicroCluster(2));
  for (size_t i = 0; i < uncertain.data.NumRows(); ++i) {
    clusters[i % 7].AddPoint(uncertain.data.Row(i), uncertain.errors.RowPsi(i));
  }
  const AggregatedStats agg = AggregateStats(clusters);
  EXPECT_EQ(agg.total_count, uncertain.data.NumRows());
  const auto direct = uncertain.data.ComputeStats();
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(agg.dims[j].mean, direct[j].mean, 1e-8);
    EXPECT_NEAR(agg.dims[j].variance, direct[j].variance,
                1e-6 * (1.0 + direct[j].variance));
  }
}

TEST(AggregateStatsTest, EmptyInput) {
  const AggregatedStats agg = AggregateStats({});
  EXPECT_EQ(agg.total_count, 0u);
  EXPECT_TRUE(agg.dims.empty());
}

TEST(DistanceTest, ErrorAdjustedMatchesEq5) {
  const std::vector<double> y{3.0, 0.0};
  const std::vector<double> c{0.0, 4.0};
  const std::vector<double> zero{0.0, 0.0};
  // No errors: plain squared Euclidean.
  EXPECT_DOUBLE_EQ(ErrorAdjustedDistance(y, zero, c), 25.0);
  // ψ = (1, 2): per-dim max{0, diff² − ψ²} = (9−1) + (16−4) = 20.
  const std::vector<double> psi{1.0, 2.0};
  EXPECT_DOUBLE_EQ(ErrorAdjustedDistance(y, psi, c), 20.0);
}

TEST(DistanceTest, DimensionsInsideErrorContributeZero) {
  const std::vector<double> y{1.0};
  const std::vector<double> c{2.0};
  const std::vector<double> big_psi{5.0};
  EXPECT_DOUBLE_EQ(ErrorAdjustedDistance(y, big_psi, c), 0.0);
}

TEST(DistanceTest, DispatchMatchesEnums) {
  const std::vector<double> y{3.0};
  const std::vector<double> c{0.0};
  const std::vector<double> psi{2.0};
  CentroidTable adjusted(1, AssignmentDistance::kErrorAdjusted);
  adjusted.Append(c);
  EXPECT_DOUBLE_EQ(adjusted.Nearest(y, psi).distance, 5.0);
  CentroidTable euclidean(1, AssignmentDistance::kEuclidean);
  euclidean.Append(c);
  EXPECT_DOUBLE_EQ(euclidean.Nearest(y, psi).distance, 9.0);
}

TEST(DistanceTest, Figure2Scenario) {
  // The paper's Figure 2: X is closer to centroid 2 in Euclidean terms, but
  // its error ellipse (large ψ along dimension 0) makes centroid 1 the more
  // likely origin under the error-adjusted metric.
  const std::vector<double> x{0.0, 0.0};
  const std::vector<double> centroid1{4.0, 0.0};  // far along the noisy dim
  const std::vector<double> centroid2{0.0, 2.5};  // near along the clean dim
  const std::vector<double> psi{4.0, 0.0};        // huge error on dim 0 only

  EXPECT_LT(SquaredEuclidean(x, centroid2), SquaredEuclidean(x, centroid1));
  EXPECT_LT(ErrorAdjustedDistance(x, psi, centroid1),
            ErrorAdjustedDistance(x, psi, centroid2));
}

// ---------------------------------------------------------------------------
// Golden byte identity (DESIGN.md §4k): the summaries the Eq. 5 assignment
// builds match the recorded digests at every SIMD level.
// ---------------------------------------------------------------------------

TEST(AssignmentGoldenTest, BuildMicroClustersSummariesAreByteIdentical) {
  if (!golden::DigestsApply()) GTEST_SKIP() << golden::kDigestsSkipped;
  const UncertainDataset u = golden::ForestLike(5000);
  golden::Digest global;
  global.Clusters(BuildMicroClusters(u.data, u.errors).value());
  EXPECT_EQ(golden::Hex(global.value()), "0x726f8d89e89ad477");

  golden::Digest per_class;
  for (size_t c = 0; c < u.data.NumClasses(); ++c) {
    const std::vector<size_t> rows = u.data.IndicesOfLabel(static_cast<int>(c));
    per_class.Clusters(
        BuildMicroClusters(u.data.Select(rows), u.errors.Select(rows))
            .value());
  }
  EXPECT_EQ(golden::Hex(per_class.value()), "0xc68390323b500749");

  MicroClusterer::Options euclidean;
  euclidean.distance = AssignmentDistance::kEuclidean;
  golden::Digest plain;
  plain.Clusters(BuildMicroClusters(u.data, u.errors, euclidean).value());
  EXPECT_EQ(golden::Hex(plain.value()), "0xf2badeb0e2f92119");
}

}  // namespace
}  // namespace udm
