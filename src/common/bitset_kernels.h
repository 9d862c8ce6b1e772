#ifndef HIDO_COMMON_BITSET_KERNELS_H_
#define HIDO_COMMON_BITSET_KERNELS_H_

// Counting kernels for the DynamicBitset hot loops — the AND+popcount at
// the bottom of every cube count (core/objective.cc), which the search
// and the ensemble fan-out make the hottest loop in the repo.
//
// Three implementations share one function-pointer table layout:
//
//   scalar  portable 4x64-bit unrolled loop over std::popcount; always
//           available, and the reference the vector kernels are tested
//           against.
//   avx2    explicit 256-bit fused and-popcount (vpshufb nibble-LUT
//           popcount accumulated with vpsadbw), compiled with a
//           per-function target attribute on x86-64 and selected only
//           when the CPU reports AVX2.
//   neon    128-bit vand + vcnt on AArch64.
//
// A k-cube count is one and_count_many call: each source word is read
// once, the AND chain stays in registers and one popcount runs per word.
// Each implementation instantiates that loop per k over the range the k*
// rule reaches, so the chain is straight-line code; larger k take a
// runtime-k loop (DESIGN.md "Counting kernels").
//
// The active table is resolved once, at first use, by CPUID-style runtime
// detection, overridable with HIDO_KERNEL=scalar|avx2|neon|auto so CI can
// force every path on one host. Determinism: every kernel computes the
// same pure function (a popcount is a popcount), so reports are
// byte-identical across kernels — only throughput moves. The selected
// kernel is published as the cube.kernel.<kernel> gauge at grid build.
//
// SIMD intrinsics and architecture #ifdefs are confined to
// bitset_kernels.cc by the `simd-confinement` lint rule; everything else
// in the repo goes through this table or DynamicBitset.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hido {

/// One concrete kernel implementation.
enum class KernelKind {
  kScalar,  ///< portable 4x64 unrolled std::popcount loop
  kAvx2,    ///< 256-bit fused and-popcount (x86-64 with AVX2 only)
  kNeon,    ///< 128-bit vand+vcnt (AArch64 only)
};

/// A table of word-array primitives; all pointers are non-null.
/// `n` is a word count; word arrays may overlap only when identical.
struct BitsetKernels {
  KernelKind kind;   ///< which implementation this table is
  const char* name;  ///< canonical lowercase name
  /// Population count of srcs[0] & srcs[1] & ... & srcs[k-1] over words
  /// [0, n), in one pass that materializes nothing. k >= 1; k = 1 is a
  /// plain popcount, k = 2 the two-way AND count.
  size_t (*and_count_many)(const uint64_t* const* srcs, size_t k, size_t n);
  /// dst &= src.
  void (*and_with)(uint64_t* dst, const uint64_t* src, size_t n);
  /// Fused dst &= src returning the population count of the result —
  /// one pass where AndWith + Count would take two (the brute-force
  /// descent needs each partial cube's cardinality).
  size_t (*and_count_into)(uint64_t* dst, const uint64_t* src, size_t n);
};

/// Canonical lowercase name ("scalar" / "avx2" / "neon").
const char* KernelKindName(KernelKind kind);

/// Parses "scalar" / "avx2" / "neon" (not "auto" — resolve that with
/// BestAvailableKernel). Returns false on unknown names.
bool ParseKernelKind(const std::string& name, KernelKind* kind);

/// The kernel table for `kind`, or nullptr when the host cannot run it
/// (e.g. kAvx2 on a CPU without AVX2, or off-architecture builds).
const BitsetKernels* KernelTableFor(KernelKind kind);

/// Every kind KernelTableFor answers non-null for on this host, in
/// preference order (vector kernels first). Never empty: scalar always
/// runs.
std::vector<KernelKind> AvailableKernels();

/// The kind `auto` resolves to on this host (first AvailableKernels entry).
KernelKind BestAvailableKernel();

/// The table every DynamicBitset operation routes through. Resolved once
/// at first use: HIDO_KERNEL=scalar|avx2|neon|auto when set (an unknown or
/// unavailable request logs a warning and falls back to auto), otherwise
/// the best available kernel. A live ScopedKernelOverride takes precedence.
const BitsetKernels& ActiveKernels();

/// The KernelKind ActiveKernels() currently resolves to.
KernelKind ActiveKernelKind();

/// Test/bench hook: forces ActiveKernels() to a specific kind for this
/// scope, restoring the previous override on destruction. Process-global
/// (one relaxed atomic the dispatch reads); do not interleave with
/// concurrent counting work that expects a fixed kernel.
class ScopedKernelOverride {
 public:
  /// Forces `kind`; dies if KernelTableFor(kind) is unavailable here.
  explicit ScopedKernelOverride(KernelKind kind);
  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;
  ~ScopedKernelOverride();  ///< restores the previous override

 private:
  const BitsetKernels* previous_;
};

}  // namespace hido

#endif  // HIDO_COMMON_BITSET_KERNELS_H_
