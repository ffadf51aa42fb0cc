// Figure 9: "Testing Time with Increasing Number Of Micro-clusters" —
// seconds per classified test example vs q, one curve per dataset.
//
// Paper shape: proportional to q, with a much larger spread across
// datasets than training time because testing is more sensitive to
// dimensionality (the roll-up enumerates subspaces).
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "fig09_testing_time_vs_mc",
                               {udm::bench::kThreadsFlag});
  const std::vector<double> qs{20, 40, 60, 80, 100, 120, 140};
  const std::vector<std::pair<std::string, size_t>> datasets{
      {"forest_cover", 12000},
      {"breast_cancer", 683},
      {"adult", 6000},
      {"ionosphere", 351}};

  std::vector<udm::bench::Series> series;
  for (const auto& [name, default_n] : datasets) {
    const udm::Result<udm::Dataset> clean =
        udm::bench::LoadDataset(name, default_n, 4);
    UDM_CHECK(clean.ok()) << clean.status().ToString();
    const udm::bench::ComparatorSeries swept =
        udm::bench::SweepClusterBudgets(*clean, qs, /*f=*/1.2,
                                        /*max_test=*/60, /*seed=*/42);
    series.push_back({name, swept.test_seconds_per_example});
  }

  udm::bench::PrintFigureHeader(
      "Figure 9", "testing time (s/example) vs number of micro-clusters",
      "f=1.2; per-example prediction cost of the error-adjusted density "
      "classifier (subspace roll-up included)");
  udm::bench::PrintTable("q", qs, series, "%10.0f", "%24.3e");

  udm::bench::ShapeCheck("testing time grows with q (every dataset)",
                         series[0].y.back() > series[0].y.front() &&
                             series[2].y.back() > series[2].y.front());
  udm::bench::ShapeCheck(
      "high-dimensional ionosphere dominates low-dimensional adult",
      series[3].y.back() > series[2].y.back());
  return 0;
}
