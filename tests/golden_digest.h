#ifndef UDM_TESTS_GOLDEN_DIGEST_H_
#define UDM_TESTS_GOLDEN_DIGEST_H_

// Golden byte-identity digests for the Eq. 5 assignment callers. The
// expected values in the tests were recorded from the scalar row-major
// argmin loops that the SoA centroid table replaced; every SIMD level of
// the table must reproduce them bit for bit (DESIGN.md §4k).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "microcluster/microcluster.h"

namespace udm::golden {

/// FNV-1a (64-bit) over raw bytes; doubles are fed as their bit patterns,
/// so any rounding difference changes the digest.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Doubles(std::span<const double> values) {
    for (double v : values) Double(v);
  }
  /// Every CFT tuple in order: n, CF1, CF2, EF2.
  void Clusters(std::span<const MicroCluster> clusters) {
    U64(clusters.size());
    for (const MicroCluster& c : clusters) {
      U64(c.Count());
      Doubles(c.cf1());
      Doubles(c.cf2());
      Doubles(c.ef2());
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Whether the recorded digests apply to this build. They were recorded
/// in the default build (baseline x86-64, no FMA). Where -march enables
/// FMA, GCC's C++ default -ffp-contract=fast contracts the data generators
/// and the CF-tuple updates, so the inputs and sums differ before any
/// assignment runs. There, centroid_table_test's in-process comparison of
/// every level with the scalar reference carries the contract.
inline bool DigestsApply() {
#if defined(__FMA__)
  return false;
#else
  return true;
#endif
}

inline constexpr const char* kDigestsSkipped =
    "golden digests are recorded for builds without -march FMA contraction";

inline std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The golden workload: forest-cover-like rows (d=10, 7 classes) with the
/// paper's per-entry perturbation at f=1.2 — the `fit` benchmark's data
/// at a test-sized N.
inline UncertainDataset ForestLike(size_t n, uint64_t seed = 4) {
  const Dataset clean = MakeForestCoverLike(n, seed).value();
  PerturbationOptions perturb;
  perturb.f = 1.2;
  perturb.seed = 15;
  return Perturb(clean, perturb).value();
}

}  // namespace udm::golden

#endif  // UDM_TESTS_GOLDEN_DIGEST_H_
