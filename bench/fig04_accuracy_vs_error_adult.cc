// Figure 4: "Error Based Classification for Different Error Levels (Adult
// Data Set)" — accuracy of the three comparators as the error parameter f
// sweeps 0..3, with 140 micro-clusters.
//
// Paper shape: the two density methods coincide at f=0; the error-adjusted
// curve dominates the unadjusted one with a widening gap; NN degrades
// drastically; the adjusted method stays well above random even at f=3.
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "fig04_accuracy_vs_error_adult",
                               {udm::bench::kThreadsFlag});
  using udm::bench::ComparatorSeries;
  const udm::Result<udm::Dataset> clean =
      udm::bench::LoadDataset("adult", 6000, 1);
  UDM_CHECK(clean.ok()) << clean.status().ToString();

  const std::vector<double> fs{0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  const ComparatorSeries series =
      udm::bench::SweepErrorLevels(*clean, fs, /*q=*/140, /*max_test=*/600,
                                   /*seed=*/42);

  udm::bench::PrintFigureHeader(
      "Figure 4", "accuracy vs error level f (adult-like, q=140)",
      "N=" + std::to_string(clean->NumRows()) + ", d=6, k=2, test=600, 3-seed avg");
  udm::bench::PrintTable(
      "f", fs,
      {{"density(err-adjusted)", series.adjusted},
       {"density(no adjust)", series.unadjusted},
       {"nn", series.nn}},
      "%10.1f");

  const size_t last = fs.size() - 1;
  udm::bench::ShapeCheck(
      "density variants coincide at f=0",
      series.adjusted[0] == series.unadjusted[0]);
  udm::bench::ShapeCheck(
      "error adjustment wins at high f",
      series.adjusted[last] > series.unadjusted[last] &&
          series.adjusted[last] > series.nn[last]);
  udm::bench::ShapeCheck(
      "NN degrades more than the adjusted method",
      (series.nn[0] - series.nn[last]) >
          (series.adjusted[0] - series.adjusted[last]));
  udm::bench::ShapeCheck("adjusted stays above the 0.75 majority-rate floor "
                         "minus noise at f=3",
                         series.adjusted[last] > 0.55);
  return 0;
}
