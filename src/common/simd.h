#ifndef UDM_COMMON_SIMD_H_
#define UDM_COMMON_SIMD_H_

/// Runtime SIMD capability detection and the knobs that steer the explicit
/// kernel dispatch (DESIGN.md §4k). The actual vector kernels live in
/// kde/simd_sweep.{h,cc}; this header is dependency-light so tools and
/// benches can ask "what will run here?" without linking the density
/// engine.
///
/// Levels are strictly ordered: every level ≥ kAvx2 requires FMA, and a
/// request above what the host supports clamps down (never up), so a
/// binary built anywhere runs anywhere — the ISA choice is a pure runtime
/// decision, never a compile-flag requirement.

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

namespace udm {

/// Resolved execution level of the kernel dispatch. kScalar is the
/// portable reference path every vector path is tested against.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,    // 4×double lanes, explicit FMA
  kAvx512 = 2,  // 8×double lanes, explicit FMA, mask registers
};

/// What a caller (option or UDM_SIMD env var) asked for. kOff and kScalar
/// both run the portable scalar kernels — kOff exists so operators can say
/// "no SIMD layer" without knowing the level taxonomy; both report as
/// "scalar" once resolved.
enum class SimdRequest {
  kAuto = 0,  // best level the CPU supports (the default)
  kOff = 1,
  kScalar = 2,
  kAvx2 = 3,
  kAvx512 = 4,
};

inline const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

/// Parses a UDM_SIMD-style value. Returns false (leaving *request alone)
/// on anything unrecognized.
inline bool ParseSimdRequest(std::string_view text, SimdRequest* request) {
  if (text == "auto") {
    *request = SimdRequest::kAuto;
  } else if (text == "off") {
    *request = SimdRequest::kOff;
  } else if (text == "scalar") {
    *request = SimdRequest::kScalar;
  } else if (text == "avx2") {
    *request = SimdRequest::kAvx2;
  } else if (text == "avx512") {
    *request = SimdRequest::kAvx512;
  } else {
    return false;
  }
  return true;
}

/// CPUID probe: the best level this host can execute. Non-x86 builds (and
/// compilers without __builtin_cpu_supports) are scalar-only.
inline SimdLevel DetectBestSimdLevel() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

/// Clamps a request to what the host supports: kAuto takes the best
/// detected level, an explicit vector level degrades to the next
/// supported one (never silently upgrades).
inline SimdLevel ResolveSimdRequest(SimdRequest request) {
  const SimdLevel best = DetectBestSimdLevel();
  switch (request) {
    case SimdRequest::kAuto:
      return best;
    case SimdRequest::kOff:
    case SimdRequest::kScalar:
      return SimdLevel::kScalar;
    case SimdRequest::kAvx2:
      return best >= SimdLevel::kAvx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar;
    case SimdRequest::kAvx512:
      return best >= SimdLevel::kAvx512 ? SimdLevel::kAvx512 : best;
  }
  return SimdLevel::kScalar;
}

/// The process-wide dispatch level: UDM_SIMD=avx512|avx2|scalar|off|auto
/// when set (and valid), else the CPUID best. Read once and cached — the
/// dispatch is selected at startup, not per call — so tests that force a
/// level must do it via the environment before first use, or per model
/// via DensityEvalOptions::simd.
inline SimdLevel ProcessSimdLevel() {
  static const SimdLevel level = [] {
    SimdRequest request = SimdRequest::kAuto;
    const char* env = std::getenv("UDM_SIMD");
    if (env != nullptr && *env != '\0' && !ParseSimdRequest(env, &request)) {
      std::fprintf(stderr,
                   "udm: ignoring unrecognized UDM_SIMD='%s' "
                   "(want avx512|avx2|scalar|off|auto)\n",
                   env);
    }
    return ResolveSimdRequest(request);
  }();
  return level;
}

/// What a model fitted with `request` actually runs: kAuto defers to the
/// process default (UDM_SIMD env var, else CPUID best); explicit requests
/// clamp to the host.
inline SimdLevel EffectiveSimdLevel(SimdRequest request) {
  return request == SimdRequest::kAuto ? ProcessSimdLevel()
                                       : ResolveSimdRequest(request);
}

/// Cache-line / vector-register alignment for the kernel hot-path
/// allocations (ErrorKernelTable columns, ScratchArena buffers): one
/// 64-byte line covers a full AVX-512 register, so a vector load at the
/// buffer base never splits a line.
inline constexpr size_t kSimdAlignment = 64;

inline bool IsSimdAligned(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) % kSimdAlignment) == 0;
}

/// Minimal over-aligning allocator for the hot-path std::vectors. Stateless,
/// so vectors with it swap/move exactly like plain ones.
template <typename T, size_t Alignment = kSimdAlignment>
class AlignedAllocator {
 public:
  static_assert((Alignment & (Alignment - 1)) == 0, "power-of-two alignment");
  static_assert(Alignment >= alignof(T), "alignment must not weaken T's");
  using value_type = T;
  using is_always_equal = std::true_type;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t /*n*/) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// 64-byte-aligned double vector used by the kernel tables and arenas.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace udm

#endif  // UDM_COMMON_SIMD_H_
