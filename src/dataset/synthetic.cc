#include "dataset/synthetic.h"

#include <numeric>

#include "common/random.h"

namespace udm {

Result<Dataset> SampleGmm(const GmmSpec& spec, size_t n, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("SampleGmm: null rng");
  if (spec.num_dims == 0) {
    return Status::InvalidArgument("SampleGmm: num_dims must be positive");
  }
  if (spec.components.empty()) {
    return Status::InvalidArgument("SampleGmm: no components");
  }
  double total_weight = 0.0;
  for (const GmmComponent& c : spec.components) {
    if (c.mean.size() != spec.num_dims || c.stddev.size() != spec.num_dims) {
      return Status::InvalidArgument(
          "SampleGmm: component mean/stddev size mismatch");
    }
    if (c.weight <= 0.0) {
      return Status::InvalidArgument("SampleGmm: non-positive weight");
    }
    if (c.label < 0) {
      return Status::InvalidArgument("SampleGmm: negative label");
    }
    for (double s : c.stddev) {
      if (s < 0.0) {
        return Status::InvalidArgument("SampleGmm: negative stddev");
      }
    }
    total_weight += c.weight;
  }

  UDM_ASSIGN_OR_RETURN(Dataset dataset, Dataset::Create(spec.num_dims));
  dataset.Reserve(n);
  std::vector<double> row(spec.num_dims);
  for (size_t i = 0; i < n; ++i) {
    // Draw a component proportional to weight.
    double pick = rng->Uniform() * total_weight;
    size_t chosen = spec.components.size() - 1;
    for (size_t c = 0; c < spec.components.size(); ++c) {
      pick -= spec.components[c].weight;
      if (pick <= 0.0) {
        chosen = c;
        break;
      }
    }
    const GmmComponent& comp = spec.components[chosen];
    for (size_t j = 0; j < spec.num_dims; ++j) {
      row[j] = rng->Gaussian(comp.mean[j], comp.stddev[j]);
    }
    UDM_RETURN_IF_ERROR(dataset.AppendRow(row, comp.label));
  }
  return dataset;
}

Result<Dataset> MakeMixtureDataset(const MixtureDatasetSpec& spec, size_t n) {
  if (spec.num_dims == 0) {
    return Status::InvalidArgument("MakeMixtureDataset: num_dims == 0");
  }
  if (spec.num_informative_dims == 0 ||
      spec.num_informative_dims > spec.num_dims) {
    return Status::InvalidArgument(
        "MakeMixtureDataset: num_informative_dims out of [1, num_dims]");
  }
  if (spec.class_priors.empty()) {
    return Status::InvalidArgument("MakeMixtureDataset: no class priors");
  }
  for (double p : spec.class_priors) {
    if (p <= 0.0) {
      return Status::InvalidArgument(
          "MakeMixtureDataset: class priors must be positive");
    }
  }
  if (spec.clusters_per_class == 0) {
    return Status::InvalidArgument("MakeMixtureDataset: clusters_per_class == 0");
  }
  if (!spec.dim_scales.empty() && spec.dim_scales.size() != spec.num_dims) {
    return Status::InvalidArgument("MakeMixtureDataset: dim_scales size");
  }
  if (!spec.dim_offsets.empty() && spec.dim_offsets.size() != spec.num_dims) {
    return Status::InvalidArgument("MakeMixtureDataset: dim_offsets size");
  }

  Rng rng(spec.seed);
  const size_t k = spec.class_priors.size();
  const double prior_total = std::accumulate(spec.class_priors.begin(),
                                             spec.class_priors.end(), 0.0);

  // Build the explicit mixture: cluster centers live on the informative
  // dimensions only; noise dimensions are identical across classes.
  GmmSpec gmm;
  gmm.num_dims = spec.num_dims;
  for (size_t c = 0; c < k; ++c) {
    for (size_t cl = 0; cl < spec.clusters_per_class; ++cl) {
      GmmComponent comp;
      comp.label = static_cast<int>(c);
      comp.weight = spec.class_priors[c] / prior_total /
                    static_cast<double>(spec.clusters_per_class);
      comp.mean.resize(spec.num_dims, 0.0);
      comp.stddev.resize(spec.num_dims, 1.0);
      for (size_t j = 0; j < spec.num_dims; ++j) {
        if (j < spec.num_informative_dims) {
          comp.mean[j] =
              rng.Gaussian(0.0, spec.class_separation * spec.cluster_spread);
          comp.stddev[j] = spec.cluster_spread;
        } else {
          comp.mean[j] = 0.0;
          comp.stddev[j] = 1.0;
        }
      }
      gmm.components.push_back(std::move(comp));
    }
  }

  Rng sample_rng = rng.Fork();
  UDM_ASSIGN_OR_RETURN(Dataset dataset, SampleGmm(gmm, n, &sample_rng));

  // Apply the per-dimension affine transform in place.
  if (!spec.dim_scales.empty() || !spec.dim_offsets.empty()) {
    for (size_t i = 0; i < dataset.NumRows(); ++i) {
      for (size_t j = 0; j < spec.num_dims; ++j) {
        double v = dataset.Value(i, j);
        if (!spec.dim_scales.empty()) v *= spec.dim_scales[j];
        if (!spec.dim_offsets.empty()) v += spec.dim_offsets[j];
        dataset.SetValue(i, j, v);
      }
    }
  }
  return dataset;
}

Result<Dataset> MakeClusteredDataset(size_t n, uint64_t seed) {
  // Fourteen unit-spread clusters on the even-parity sites of a {0,1,2}³
  // lattice with constant 100 (an FCC cell, in spread units), with
  // heterogeneous per-dimension scales. The lattice is deliberate: every
  // inter-cluster distance is at least √2·100, about 1.5x the
  // per-dimension data sigma (~93), so with the bandwidth the index
  // benches use (Silverman scaled by 0.7 — Silverman's rule assumes
  // unimodality and over-smooths a 14-mode mixture) the worst pairwise
  // log-kernel deficit is ~49 nats at n = 4000, past the 37-nat pruning
  // gap with a third to spare and growing as n^{2/5}. At n = 1000
  // kernels are still too wide for lattice-adjacent pairs, which is why
  // the speedup assertions start at 4000. Centers drawn at random (as in
  // MakeMixtureDataset) would instead put a χ²-tail of cluster pairs
  // inside the gap at any separation, capping prunability around 60-70%.
  GmmSpec spec;
  spec.num_dims = 3;
  const double lattice = 100.0;
  const double scales[3] = {5.0, 900.0, 1.0};
  const double offsets[3] = {30.0, 20000.0, 3.0};
  int label = 0;
  for (int a = 0; a <= 2; ++a) {
    for (int b = 0; b <= 2; ++b) {
      for (int c = 0; c <= 2; ++c) {
        if ((a + b + c) % 2 != 0) continue;
        GmmComponent comp;
        comp.mean = {(a * lattice) * scales[0] + offsets[0],
                     (b * lattice) * scales[1] + offsets[1],
                     (c * lattice) * scales[2] + offsets[2]};
        comp.stddev = {scales[0], scales[1], scales[2]};
        comp.weight = 1.0;
        comp.label = label++ % 2;
        spec.components.push_back(comp);
      }
    }
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x1Du);
  return SampleGmm(spec, n, &rng);
}

}  // namespace udm
