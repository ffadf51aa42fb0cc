#include "microcluster/merge.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/stopwatch.h"
#include "microcluster/centroid_table.h"

namespace udm {

Result<std::vector<MicroCluster>> MergeSummaries(
    std::span<const SummaryView> summaries, size_t num_dims,
    const MicroClusterer::Options& options) {
  if (num_dims == 0) {
    return Status::InvalidArgument("MergeSummaries: num_dims == 0");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("MergeSummaries: num_clusters == 0");
  }

  // Gather every non-empty input cluster, preserving input order.
  std::vector<const MicroCluster*> inputs;
  for (size_t s = 0; s < summaries.size(); ++s) {
    for (size_t c = 0; c < summaries[s].size(); ++c) {
      const MicroCluster& cluster = summaries[s][c];
      if (cluster.IsEmpty()) continue;
      if (cluster.NumDims() != num_dims) {
        return Status::InvalidArgument(
            "MergeSummaries: summary " + std::to_string(s) + " cluster " +
            std::to_string(c) + " has " + std::to_string(cluster.NumDims()) +
            " dims, expected " + std::to_string(num_dims));
      }
      inputs.push_back(&cluster);
    }
  }

  std::vector<MicroCluster> merged;
  if (inputs.empty()) return merged;

  const size_t q = options.num_clusters;
  if (inputs.size() <= q) {
    // Everything fits the budget: the merge is exactly lossless.
    merged.reserve(inputs.size());
    for (const MicroCluster* cluster : inputs) merged.push_back(*cluster);
    return merged;
  }

  // Over budget: seed with the q most populous clusters (stable order, so
  // the result is deterministic), then absorb the rest into their nearest
  // seed centroid — the monolithic maintenance rule applied to
  // pseudo-points.
  std::vector<size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return inputs[a]->Count() > inputs[b]->Count();
  });

  merged.reserve(q);
  CentroidTable centroids(num_dims, options.distance);
  for (size_t i = 0; i < q; ++i) {
    merged.push_back(*inputs[order[i]]);
    centroids.Append(merged.back());
  }
  const Stopwatch watch;
  std::vector<double> centroid(num_dims);
  std::vector<double> delta(num_dims);
  for (size_t i = q; i < order.size(); ++i) {
    const MicroCluster& cluster = *inputs[order[i]];
    for (size_t j = 0; j < num_dims; ++j) {
      centroid[j] = cluster.Centroid(j);
      delta[j] = cluster.DeltaAt(j);
    }
    const size_t best = centroids.Nearest(centroid, delta).index;
    merged[best].Merge(cluster);
    centroids.Set(best, merged[best]);
  }
  RecordAssignment((order.size() - q) * q, watch.ElapsedSeconds());
  return merged;
}

Result<std::vector<MicroCluster>> MergeSummaries(
    SummaryView a, SummaryView b, size_t num_dims,
    const MicroClusterer::Options& options) {
  const SummaryView views[] = {a, b};
  return MergeSummaries(std::span<const SummaryView>(views), num_dims,
                        options);
}

}  // namespace udm
