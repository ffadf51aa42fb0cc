// Figure 5: "Error Based Classification for Different Number Of Clusters
// (Adult Data Set)" — accuracy vs micro-cluster budget q at f = 1.2.
//
// Paper shape: the error-adjusted accuracy rises with q and levels off
// around ~100 clusters; NN is a flat baseline (independent of q); the
// unadjusted density method shows no consistent gain from q.
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/math_util.h"

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "fig05_accuracy_vs_mc_adult",
                               {udm::bench::kThreadsFlag});
  const udm::Result<udm::Dataset> clean =
      udm::bench::LoadDataset("adult", 6000, 1);
  UDM_CHECK(clean.ok()) << clean.status().ToString();

  const std::vector<double> qs{20, 40, 60, 80, 100, 120, 140};
  const udm::bench::ComparatorSeries series = udm::bench::SweepClusterBudgets(
      *clean, qs, /*f=*/1.2, /*max_test=*/600, /*seed=*/42);

  udm::bench::PrintFigureHeader(
      "Figure 5", "accuracy vs number of micro-clusters (adult-like, f=1.2)",
      "N=" + std::to_string(clean->NumRows()) + ", d=6, k=2, test=600, 3-seed avg");
  udm::bench::PrintTable(
      "q", qs,
      {{"density(err-adjusted)", series.adjusted},
       {"density(no adjust)", series.unadjusted},
       {"nn", series.nn}},
      "%10.0f");

  // NN does not depend on q (same model each sweep point).
  bool nn_flat = true;
  for (double acc : series.nn) nn_flat &= (acc == series.nn[0]);
  udm::bench::ShapeCheck("nn baseline is flat in q", nn_flat);

  // Granularity helps: the average over the coarse half must not beat the
  // average over the fine half for the adjusted method.
  const double coarse = (series.adjusted[0] + series.adjusted[1]) / 2.0;
  const double fine =
      (series.adjusted[qs.size() - 2] + series.adjusted[qs.size() - 1]) / 2.0;
  udm::bench::ShapeCheck("more micro-clusters do not hurt (coarse<=fine+eps)",
                         coarse <= fine + 0.03);
  return 0;
}
