#include "common/bitset_kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"

// The one translation unit allowed to hold SIMD intrinsics and
// architecture #ifdefs (enforced by the simd-confinement lint rule).
// x86-64 vector code is compiled with per-function target attributes so
// the rest of the binary keeps the portable baseline and the AVX2 path is
// only ever *executed* after __builtin_cpu_supports says it may be.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HIDO_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define HIDO_KERNELS_HAVE_AVX2 0
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define HIDO_KERNELS_HAVE_NEON 1
#include <arm_neon.h>
#else
#define HIDO_KERNELS_HAVE_NEON 0
#endif

namespace hido {

namespace {

// ---------------------------------------------------------------------------
// The k-way count's shape, shared by every implementation. A loop template
// Loop<K> with K > 0 fixes the source count at compile time, so the AND
// chain over the K sources is straight-line code on registers; Loop<0>
// reads k at run time and loops over the sources per word. AndCountByK
// picks the instance: the unrolled range covers the 2..8 the k* rule
// reaches, and k = 1, a plain popcount.

template <template <size_t> class Loop>
size_t AndCountByK(const uint64_t* const* srcs, size_t k, size_t n) {
  HIDO_DCHECK(k >= 1);
  switch (k) {
    case 1: return Loop<1>::Run(srcs, k, n);
    case 2: return Loop<2>::Run(srcs, k, n);
    case 3: return Loop<3>::Run(srcs, k, n);
    case 4: return Loop<4>::Run(srcs, k, n);
    case 5: return Loop<5>::Run(srcs, k, n);
    case 6: return Loop<6>::Run(srcs, k, n);
    case 7: return Loop<7>::Run(srcs, k, n);
    case 8: return Loop<8>::Run(srcs, k, n);
    default: return Loop<0>::Run(srcs, k, n);
  }
}

// Word i of srcs[0] & ... & srcs[k-1]; K > 0 unrolls the chain for k = K.
template <size_t... J>
inline uint64_t AndWordFold(const uint64_t* const* srcs, size_t i,
                            std::index_sequence<J...>) {
  return (srcs[J][i] & ...);
}

template <size_t K>
inline uint64_t AndWord(const uint64_t* const* srcs, size_t k, size_t i) {
  if constexpr (K > 0) {
    return AndWordFold(srcs, i, std::make_index_sequence<K>{});
  } else {
    uint64_t w = srcs[0][i];
    for (size_t j = 1; j < k; ++j) w &= srcs[j][i];
    return w;
  }
}

// ---------------------------------------------------------------------------
// Scalar kernel: portable 4x64-bit unrolled loops. Four independent
// accumulators keep the popcount chains out of each other's dependency
// shadow; the compiler needs no target features beyond baseline.

template <size_t K>
struct ScalarAndCount {
  static size_t Run(const uint64_t* const* srcs, size_t k, size_t n) {
    size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      c0 += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i)));
      c1 += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i + 1)));
      c2 += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i + 2)));
      c3 += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i + 3)));
    }
    for (; i < n; ++i) {
      c0 += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i)));
    }
    return c0 + c1 + c2 + c3;
  }
};

void ScalarAndWith(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    dst[i] &= src[i];
    dst[i + 1] &= src[i + 1];
    dst[i + 2] &= src[i + 2];
    dst[i + 3] &= src[i + 3];
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

size_t ScalarAndCountInto(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t w0 = dst[i] & src[i];
    const uint64_t w1 = dst[i + 1] & src[i + 1];
    const uint64_t w2 = dst[i + 2] & src[i + 2];
    const uint64_t w3 = dst[i + 3] & src[i + 3];
    dst[i] = w0;
    dst[i + 1] = w1;
    dst[i + 2] = w2;
    dst[i + 3] = w3;
    c0 += static_cast<size_t>(std::popcount(w0));
    c1 += static_cast<size_t>(std::popcount(w1));
    c2 += static_cast<size_t>(std::popcount(w2));
    c3 += static_cast<size_t>(std::popcount(w3));
  }
  for (; i < n; ++i) {
    const uint64_t w = dst[i] & src[i];
    dst[i] = w;
    c0 += static_cast<size_t>(std::popcount(w));
  }
  return c0 + c1 + c2 + c3;
}

const BitsetKernels kScalarKernels = {
    KernelKind::kScalar,
    "scalar",
    AndCountByK<ScalarAndCount>,
    ScalarAndWith,
    ScalarAndCountInto,
};

// ---------------------------------------------------------------------------
// AVX2 kernel: 256-bit fused and-popcount. The per-vector popcount is the
// vpshufb nibble lookup (Mula/Kurz/Lemire, "Faster population counts using
// AVX2 instructions"): per-byte counts from two table shuffles, widened to
// four 64-bit lanes with vpsadbw and accumulated vector-side, so the only
// scalar work per call is the final 4-lane fold plus the <4-word tail.

#if HIDO_KERNELS_HAVE_AVX2

#define HIDO_TARGET_AVX2 __attribute__((target("avx2")))

HIDO_TARGET_AVX2 inline __m256i Load256(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

HIDO_TARGET_AVX2 inline __m256i PopcountBytes256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

HIDO_TARGET_AVX2 inline size_t HorizontalSum256(__m256i acc) {
  const __m128i low = _mm256_castsi256_si128(acc);
  const __m128i high = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(low, high);
  return static_cast<size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<size_t>(
             _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)));
}

// Words [i, i + 4) of srcs[0] & ... & srcs[k-1]; K > 0 unrolls the chain.
template <size_t... J>
HIDO_TARGET_AVX2 inline __m256i Avx2AndFold(const uint64_t* const* srcs,
                                            size_t i,
                                            std::index_sequence<J...>) {
  __m256i v = Load256(srcs[0] + i);
  ((v = _mm256_and_si256(v, Load256(srcs[J + 1] + i))), ...);
  return v;
}

template <size_t K>
HIDO_TARGET_AVX2 inline __m256i Avx2AndVector(const uint64_t* const* srcs,
                                              size_t k, size_t i) {
  if constexpr (K > 0) {
    return Avx2AndFold(srcs, i, std::make_index_sequence<K - 1>{});
  } else {
    __m256i v = Load256(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) {
      v = _mm256_and_si256(v, Load256(srcs[j] + i));
    }
    return v;
  }
}

template <size_t K>
struct Avx2AndCount {
  HIDO_TARGET_AVX2 static size_t Run(const uint64_t* const* srcs, size_t k,
                                     size_t n) {
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    size_t i = 0;
    const size_t vector_end = n - n % 4;
    while (i < vector_end) {
      // A byte holds the counts of up to 31 vectors (31 * 8 < 256), so
      // they are summed bytewise and widened once per block.
      const size_t block_end = std::min(vector_end, i + 4 * 31);
      __m256i bytes = zero;
      for (; i < block_end; i += 4) {
        bytes = _mm256_add_epi8(
            bytes, PopcountBytes256(Avx2AndVector<K>(srcs, k, i)));
      }
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
    }
    size_t total = HorizontalSum256(acc);
    for (; i < n; ++i) {
      total += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i)));
    }
    return total;
  }
};

HIDO_TARGET_AVX2 void Avx2AndWith(uint64_t* dst, const uint64_t* src,
                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(Load256(dst + i), Load256(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

HIDO_TARGET_AVX2 size_t Avx2AndCountInto(uint64_t* dst, const uint64_t* src,
                                         size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(Load256(dst + i), Load256(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(PopcountBytes256(v), _mm256_setzero_si256()));
  }
  size_t total = HorizontalSum256(acc);
  for (; i < n; ++i) {
    const uint64_t w = dst[i] & src[i];
    dst[i] = w;
    total += static_cast<size_t>(std::popcount(w));
  }
  return total;
}

const BitsetKernels kAvx2Kernels = {
    KernelKind::kAvx2,
    "avx2",
    AndCountByK<Avx2AndCount>,
    Avx2AndWith,
    Avx2AndCountInto,
};

bool Avx2Supported() { return __builtin_cpu_supports("avx2") != 0; }

#endif  // HIDO_KERNELS_HAVE_AVX2

// ---------------------------------------------------------------------------
// NEON kernel (AArch64, where NEON is baseline): 128-bit vand + per-byte
// vcnt, widened through the pairwise-add ladder into a 2x64 accumulator.

#if HIDO_KERNELS_HAVE_NEON

inline uint64x2_t NeonPopcountWiden(uint8x16_t v) {
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v))));
}

// Words [i, i + 2) of srcs[0] & ... & srcs[k-1]; K > 0 unrolls the chain.
template <size_t... J>
inline uint64x2_t NeonAndFold(const uint64_t* const* srcs, size_t i,
                              std::index_sequence<J...>) {
  uint64x2_t v = vld1q_u64(srcs[0] + i);
  ((v = vandq_u64(v, vld1q_u64(srcs[J + 1] + i))), ...);
  return v;
}

template <size_t K>
inline uint64x2_t NeonAndVector(const uint64_t* const* srcs, size_t k,
                                size_t i) {
  if constexpr (K > 0) {
    return NeonAndFold(srcs, i, std::make_index_sequence<K - 1>{});
  } else {
    uint64x2_t v = vld1q_u64(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) v = vandq_u64(v, vld1q_u64(srcs[j] + i));
    return v;
  }
}

template <size_t K>
struct NeonAndCount {
  static size_t Run(const uint64_t* const* srcs, size_t k, size_t n) {
    uint64x2_t acc = vdupq_n_u64(0);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      acc = vaddq_u64(acc, NeonPopcountWiden(vreinterpretq_u8_u64(
                               NeonAndVector<K>(srcs, k, i))));
    }
    size_t total = static_cast<size_t>(vgetq_lane_u64(acc, 0)) +
                   static_cast<size_t>(vgetq_lane_u64(acc, 1));
    for (; i < n; ++i) {
      total += static_cast<size_t>(std::popcount(AndWord<K>(srcs, k, i)));
    }
    return total;
  }
};

void NeonAndWith(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t vd = vld1q_u64(dst + i);
    const uint64x2_t vs = vld1q_u64(src + i);
    vst1q_u64(dst + i, vandq_u64(vd, vs));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

size_t NeonAndCountInto(uint64_t* dst, const uint64_t* src, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t vd = vld1q_u64(dst + i);
    const uint64x2_t vs = vld1q_u64(src + i);
    const uint64x2_t v = vandq_u64(vd, vs);
    vst1q_u64(dst + i, v);
    acc = vaddq_u64(acc, NeonPopcountWiden(vreinterpretq_u8_u64(v)));
  }
  size_t total = static_cast<size_t>(vgetq_lane_u64(acc, 0)) +
                 static_cast<size_t>(vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) {
    const uint64_t w = dst[i] & src[i];
    dst[i] = w;
    total += static_cast<size_t>(std::popcount(w));
  }
  return total;
}

const BitsetKernels kNeonKernels = {
    KernelKind::kNeon,
    "neon",
    AndCountByK<NeonAndCount>,
    NeonAndWith,
    NeonAndCountInto,
};

#endif  // HIDO_KERNELS_HAVE_NEON

// ---------------------------------------------------------------------------
// Dispatch: a relaxed-atomic override slot for tests/benches, above a
// once-resolved env/CPUID selection.

std::atomic<const BitsetKernels*> g_kernel_override{nullptr};

const BitsetKernels* ResolveActiveKernels() {
  const BitsetKernels* best = KernelTableFor(BestAvailableKernel());
  const char* env = std::getenv("HIDO_KERNEL");
  if (env == nullptr || *env == '\0') return best;
  const std::string request(env);
  if (request == "auto") return best;
  KernelKind kind;
  if (!ParseKernelKind(request, &kind)) {
    HIDO_LOG_WARNING("HIDO_KERNEL=%s is not a kernel name; using %s",
                     request.c_str(), best->name);
    return best;
  }
  const BitsetKernels* table = KernelTableFor(kind);
  if (table == nullptr) {
    HIDO_LOG_WARNING("HIDO_KERNEL=%s is unavailable on this host; using %s",
                     request.c_str(), best->name);
    return best;
  }
  return table;
}

}  // namespace

const char* KernelKindName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar: return "scalar";
    case KernelKind::kAvx2: return "avx2";
    case KernelKind::kNeon: return "neon";
  }
  HIDO_CHECK_MSG(false, "unreachable kernel kind");
  return "scalar";
}

bool ParseKernelKind(const std::string& name, KernelKind* kind) {
  if (name == "scalar") {
    *kind = KernelKind::kScalar;
  } else if (name == "avx2") {
    *kind = KernelKind::kAvx2;
  } else if (name == "neon") {
    *kind = KernelKind::kNeon;
  } else {
    return false;
  }
  return true;
}

const BitsetKernels* KernelTableFor(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return &kScalarKernels;
    case KernelKind::kAvx2:
#if HIDO_KERNELS_HAVE_AVX2
      if (Avx2Supported()) return &kAvx2Kernels;
#endif
      return nullptr;
    case KernelKind::kNeon:
#if HIDO_KERNELS_HAVE_NEON
      return &kNeonKernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::vector<KernelKind> AvailableKernels() {
  std::vector<KernelKind> kinds;
  if (KernelTableFor(KernelKind::kAvx2) != nullptr) {
    kinds.push_back(KernelKind::kAvx2);
  }
  if (KernelTableFor(KernelKind::kNeon) != nullptr) {
    kinds.push_back(KernelKind::kNeon);
  }
  kinds.push_back(KernelKind::kScalar);
  return kinds;
}

KernelKind BestAvailableKernel() { return AvailableKernels().front(); }

const BitsetKernels& ActiveKernels() {
  const BitsetKernels* override_table =
      g_kernel_override.load(std::memory_order_relaxed);
  if (override_table != nullptr) return *override_table;
  static const BitsetKernels* const selected = ResolveActiveKernels();
  return *selected;
}

KernelKind ActiveKernelKind() { return ActiveKernels().kind; }

ScopedKernelOverride::ScopedKernelOverride(KernelKind kind)
    : previous_(g_kernel_override.load(std::memory_order_relaxed)) {
  const BitsetKernels* table = KernelTableFor(kind);
  HIDO_CHECK_MSG(table != nullptr, "kernel %s unavailable on this host",
                 KernelKindName(kind));
  g_kernel_override.store(table, std::memory_order_relaxed);
}

ScopedKernelOverride::~ScopedKernelOverride() {
  g_kernel_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace hido
