#include "microcluster/microcluster.h"

#include <algorithm>
#include <cmath>

namespace udm {

Result<MicroCluster> MicroCluster::FromTuple(std::vector<double> cf1,
                                             std::vector<double> cf2,
                                             std::vector<double> ef2,
                                             uint64_t count) {
  if (cf1.empty() || cf1.size() != cf2.size() || cf1.size() != ef2.size()) {
    return Status::InvalidArgument("MicroCluster::FromTuple: size mismatch");
  }
  if (count == 0) {
    for (size_t j = 0; j < cf1.size(); ++j) {
      if (cf1[j] != 0.0 || cf2[j] != 0.0 || ef2[j] != 0.0) {
        return Status::InvalidArgument(
            "MicroCluster::FromTuple: empty cluster with nonzero sums");
      }
    }
  }
  const double n = static_cast<double>(count);
  for (size_t j = 0; j < cf1.size(); ++j) {
    if (ef2[j] < 0.0) {
      return Status::InvalidArgument(
          "MicroCluster::FromTuple: negative EF2 entry");
    }
    if (count > 0) {
      const double mean = cf1[j] / n;
      // Allow a small relative slack for round-tripped floating point.
      if (cf2[j] / n - mean * mean < -1e-6 * (1.0 + cf2[j] / n)) {
        return Status::InvalidArgument(
            "MicroCluster::FromTuple: CF2/CF1 imply negative variance");
      }
    }
  }
  MicroCluster cluster(cf1.size());
  cluster.cf1_ = std::move(cf1);
  cluster.cf2_ = std::move(cf2);
  cluster.ef2_ = std::move(ef2);
  cluster.count_ = count;
  return cluster;
}

void MicroCluster::AddPoint(std::span<const double> values,
                            std::span<const double> psi) {
  UDM_DCHECK(values.size() == NumDims()) << "AddPoint: value size";
  UDM_DCHECK(psi.size() == NumDims()) << "AddPoint: psi size";
  for (size_t j = 0; j < NumDims(); ++j) {
    cf1_[j] += values[j];
    cf2_[j] += values[j] * values[j];
    ef2_[j] += psi[j] * psi[j];
  }
  ++count_;
}

void MicroCluster::Merge(const MicroCluster& other) {
  UDM_CHECK(other.NumDims() == NumDims()) << "Merge: dimension mismatch";
  for (size_t j = 0; j < NumDims(); ++j) {
    cf1_[j] += other.cf1_[j];
    cf2_[j] += other.cf2_[j];
    ef2_[j] += other.ef2_[j];
  }
  count_ += other.count_;
}

std::vector<double> MicroCluster::CentroidVector() const {
  UDM_DCHECK(!IsEmpty());
  std::vector<double> centroid(NumDims());
  for (size_t j = 0; j < NumDims(); ++j) centroid[j] = Centroid(j);
  return centroid;
}

double MicroCluster::VarianceAt(size_t dim) const {
  UDM_DCHECK(!IsEmpty() && dim < NumDims());
  const double n = static_cast<double>(count_);
  const double mean = cf1_[dim] / n;
  // Clamp: CF2/n - mean^2 can dip below zero by rounding for tight clusters.
  return std::max(0.0, cf2_[dim] / n - mean * mean);
}

double MicroCluster::DeltaAt(size_t dim) const {
  return std::sqrt(Delta2At(dim));
}

AggregatedStats AggregateStats(std::span<const MicroCluster> clusters) {
  AggregatedStats agg;
  if (clusters.empty()) return agg;
  const size_t d = clusters[0].NumDims();
  agg.dims.resize(d);
  std::vector<double> cf1(d, 0.0);
  std::vector<double> cf2(d, 0.0);
  for (const MicroCluster& c : clusters) {
    UDM_CHECK(c.NumDims() == d) << "AggregateStats: dimension mismatch";
    for (size_t j = 0; j < d; ++j) {
      cf1[j] += c.cf1()[j];
      cf2[j] += c.cf2()[j];
    }
    agg.total_count += c.Count();
  }
  if (agg.total_count == 0) return agg;
  const double n = static_cast<double>(agg.total_count);
  for (size_t j = 0; j < d; ++j) {
    agg.dims[j].mean = cf1[j] / n;
    agg.dims[j].variance =
        std::max(0.0, cf2[j] / n - agg.dims[j].mean * agg.dims[j].mean);
    agg.dims[j].stddev = std::sqrt(agg.dims[j].variance);
    // min/max are not recoverable from CF tuples; leave at defaults.
  }
  return agg;
}

}  // namespace udm
