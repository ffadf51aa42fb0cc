#include "kde/grid.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/error_kde.h"

namespace udm {
namespace {

auto GaussianDensity1D() {
  return AnalyticDensity(
      1, [](std::span<const double> x) { return StdNormalPdf(x[0]); });
}

TEST(GridTest, SampleProfileValidation) {
  const auto f = GaussianDensity1D();
  EXPECT_FALSE(SampleProfile(f, {0.0}, 3, -1.0, 1.0, 10).ok());   // dim
  EXPECT_FALSE(SampleProfile(f, {0.0}, 0, -1.0, 1.0, 1).ok());    // steps
  EXPECT_FALSE(SampleProfile(f, {0.0}, 0, 1.0, -1.0, 10).ok());   // lo>hi
}

TEST(GridTest, AnalyticDensityHonorsIndexModeContract) {
  const auto f = GaussianDensity1D();
  GridSampleOptions force;
  force.index = IndexMode::kForce;
  EXPECT_FALSE(SampleProfile(f, {0.0}, 0, -1.0, 1.0, 10, force).ok());
  GridSampleOptions off;
  off.index = IndexMode::kOff;
  EXPECT_TRUE(SampleProfile(f, {0.0}, 0, -1.0, 1.0, 10, off).ok());
}

TEST(GridTest, ProfileSamplesTheFunction) {
  const DensityProfile profile =
      SampleProfile(GaussianDensity1D(), {0.0}, 0, -4.0, 4.0, 401).value();
  ASSERT_EQ(profile.xs.size(), 401u);
  ASSERT_EQ(profile.densities.size(), 401u);
  EXPECT_NEAR(profile.densities[200], StdNormalPdf(0.0), 1e-12);
  EXPECT_EQ(ProfileArgmax(profile), 200u);  // mode at x = 0
}

TEST(GridTest, IntegrateProfileRecoversUnitMass) {
  const DensityProfile profile =
      SampleProfile(GaussianDensity1D(), {0.0}, 0, -8.0, 8.0, 2001).value();
  EXPECT_NEAR(IntegrateProfile(profile), 1.0, 1e-5);
}

TEST(GridTest, AnchorFixesOtherDimensions) {
  // A 2-D density that vanishes unless dim 1 equals the anchor value.
  const AnalyticDensity f(2, [](std::span<const double> x) {
    return x[1] == 7.0 ? StdNormalPdf(x[0]) : 0.0;
  });
  const DensityProfile hit =
      SampleProfile(f, {0.0, 7.0}, 0, -1.0, 1.0, 11).value();
  const DensityProfile miss =
      SampleProfile(f, {0.0, 0.0}, 0, -1.0, 1.0, 11).value();
  EXPECT_GT(hit.densities[5], 0.0);
  EXPECT_DOUBLE_EQ(miss.densities[5], 0.0);
}

TEST(GridTest, SampleFieldValidation) {
  const AnalyticDensity f(2, [](std::span<const double>) { return 1.0; });
  EXPECT_FALSE(
      SampleField(f, {0.0, 0.0}, 0, 0, 0.0, 1.0, 0.0, 1.0, 4, 4).ok());
  EXPECT_FALSE(
      SampleField(f, {0.0, 0.0}, 0, 5, 0.0, 1.0, 0.0, 1.0, 4, 4).ok());
  EXPECT_FALSE(
      SampleField(f, {0.0, 0.0}, 0, 1, 1.0, 0.0, 0.0, 1.0, 4, 4).ok());
}

TEST(GridTest, FieldLayoutIsRowMajor) {
  const AnalyticDensity f(
      2, [](std::span<const double> x) { return x[0] + 100.0 * x[1]; });
  const DensityField field =
      SampleField(f, {0.0, 0.0}, 0, 1, 0.0, 1.0, 0.0, 1.0, 3, 2).value();
  ASSERT_EQ(field.values.size(), 6u);
  // values[iy * 3 + ix] with xs = {0, .5, 1}, ys = {0, 1}.
  EXPECT_DOUBLE_EQ(field.values[0], 0.0);           // (0, 0)
  EXPECT_DOUBLE_EQ(field.values[2], 1.0);           // (1, 0)
  EXPECT_DOUBLE_EQ(field.values[3], 100.0);         // (0, 1)
  EXPECT_DOUBLE_EQ(field.values[5], 101.0);         // (1, 1)
}

TEST(GridTest, RenderAsciiShape) {
  const AnalyticDensity f(2, [](std::span<const double> x) {
    return StdNormalPdf(x[0]) * StdNormalPdf(x[1]);
  });
  const DensityField field =
      SampleField(f, {0.0, 0.0}, 0, 1, -3.0, 3.0, -3.0, 3.0, 21, 9).value();
  const std::string art = RenderAscii(field);
  // 9 rows of 21 chars + newline each.
  EXPECT_EQ(art.size(), 9u * 22u);
  // Center of the middle row is the global peak.
  const std::string middle_row = art.substr(4 * 22, 21);
  EXPECT_EQ(middle_row[10], '#');
  EXPECT_EQ(art[0], ' ');  // corners are empty
}

TEST(GridTest, WorksAgainstARealModel) {
  Rng rng(3);
  Dataset d = Dataset::Create(2).value();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(d.AppendRow(std::vector<double>{rng.Gaussian(2.0, 1.0),
                                                rng.Gaussian(-1.0, 0.5)},
                            0)
                    .ok());
  }
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(200, 2)).value();
  // The model plugs into the grid helpers directly — no lambda shim —
  // so the sample inherits batching, subspacing, and index pruning.
  const DensityProfile profile =
      SampleProfile(kde, {0.0, -1.0}, 0, -3.0, 7.0, 101).value();
  // Mode near the data mean along dim 0.
  const size_t argmax = ProfileArgmax(profile);
  EXPECT_NEAR(profile.xs[argmax], 2.0, 0.5);

  // A subspaced sample reads the dim-0 marginal, whose mode sits at the
  // same place.
  const std::vector<size_t> dim0{0};
  GridSampleOptions marginal;
  marginal.subspace = dim0;
  const DensityProfile along_dim0 =
      SampleProfile(kde, {0.0, -1.0}, 0, -3.0, 7.0, 101, marginal).value();
  EXPECT_NEAR(along_dim0.xs[ProfileArgmax(along_dim0)], 2.0, 0.5);
}

}  // namespace
}  // namespace udm
