// Figure 7: "Error Based Classification for Different Number Of Clusters
// (Forest Cover Data Set)" — accuracy vs q at f = 1.2 on the 7-class
// forest-cover regime.
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "fig07_accuracy_vs_mc_forest",
                               {udm::bench::kThreadsFlag});
  const udm::Result<udm::Dataset> clean =
      udm::bench::LoadDataset("forest_cover", 12000, 4);
  UDM_CHECK(clean.ok()) << clean.status().ToString();

  const std::vector<double> qs{20, 40, 60, 80, 100, 120, 140};
  const udm::bench::ComparatorSeries series = udm::bench::SweepClusterBudgets(
      *clean, qs, /*f=*/1.2, /*max_test=*/600, /*seed=*/42);

  udm::bench::PrintFigureHeader(
      "Figure 7",
      "accuracy vs number of micro-clusters (forest-cover-like, f=1.2)",
      "N=" + std::to_string(clean->NumRows()) + ", d=10, k=7, test=600, 3-seed avg");
  udm::bench::PrintTable(
      "q", qs,
      {{"density(err-adjusted)", series.adjusted},
       {"density(no adjust)", series.unadjusted},
       {"nn", series.nn}},
      "%10.0f");

  bool nn_flat = true;
  for (double acc : series.nn) nn_flat &= (acc == series.nn[0]);
  udm::bench::ShapeCheck("nn baseline is flat in q", nn_flat);
  const double coarse = (series.adjusted[0] + series.adjusted[1]) / 2.0;
  const double fine =
      (series.adjusted[qs.size() - 2] + series.adjusted[qs.size() - 1]) / 2.0;
  udm::bench::ShapeCheck("more micro-clusters do not hurt (coarse<=fine+eps)",
                         coarse <= fine + 0.03);
  return 0;
}
