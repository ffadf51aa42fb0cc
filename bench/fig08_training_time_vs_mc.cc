// Figure 8: "Training Time with Increasing Number Of Micro-clusters" —
// seconds per training example vs q, one curve per dataset.
//
// Paper shape: linear in q; ordering follows dimensionality (adult d=6 is
// cheapest, ionosphere d=34 the most expensive per record); absolute
// magnitude is ~1e-4 s/example on the paper's 1.6 GHz laptop (faster
// here; only the shape is meaningful).
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "fig08_training_time_vs_mc",
                               {udm::bench::kThreadsFlag});
  const std::vector<double> qs{20, 40, 60, 80, 100, 120, 140};
  const std::vector<std::pair<std::string, size_t>> datasets{
      {"forest_cover", 12000},
      {"breast_cancer", 683},
      {"adult", 6000},
      {"ionosphere", 351}};

  udm::bench::BenchConfig("f", 1.2);
  udm::bench::BenchConfig("seed", 42.0);

  std::vector<udm::bench::Series> series;
  for (const auto& [name, default_n] : datasets) {
    const udm::Result<udm::Dataset> clean =
        udm::bench::LoadDataset(name, default_n, 4);
    UDM_CHECK(clean.ok()) << clean.status().ToString();
    const udm::bench::ComparatorSeries swept =
        udm::bench::SweepClusterBudgets(*clean, qs, /*f=*/1.2,
                                        /*max_test=*/50, /*seed=*/42);
    series.push_back({name, swept.train_seconds_per_example});
    // The last (smallest) dataset doubles as the stream-ingest workload so
    // the run report covers the summarizer and checkpoint paths too.
    if (name == "ionosphere") {
      udm::bench::MeasureStreamIngest(*clean, /*num_clusters=*/40);
    }
  }

  udm::bench::PrintFigureHeader(
      "Figure 8", "training time (s/example) vs number of micro-clusters",
      "f=1.2; one curve per dataset; timing covers the micro-cluster "
      "summaries (global + per class)");
  udm::bench::PrintTable("q", qs, series, "%10.0f", "%24.3e");

  // Linearity: time at q=140 should be well above time at q=20 for the
  // larger datasets (seeding dominates for the tiny ones).
  const auto& forest = series[0].y;
  udm::bench::ShapeCheck("training time grows with q (forest)",
                         forest.back() > forest.front());
  // Dimensionality ordering on the per-example cost at q=140: ionosphere
  // (d=34) must cost more per example than adult (d=6).
  udm::bench::ShapeCheck("d=34 ionosphere costs more per example than d=6 "
                         "adult at q=140",
                         series[3].y.back() > series[2].y.back());
  return 0;
}
