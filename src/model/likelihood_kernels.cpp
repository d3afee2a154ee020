#include "model/likelihood_kernels.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

#if defined(MCMCPAR_HAVE_AVX2_KERNELS)
#include "model/likelihood_kernels_avx2.hpp"
#endif

// The scalar loops walk the span in chunks of kLanes with one NAMED double
// accumulator per lane: the chunk body is straight-line code over eight
// independent register-resident chains, which the compiler pipelines (and may
// SLP-vectorise) without reassociating any individual lane's addition chain.
// Element i still feeds lane i%kLanes in increasing-i order, so the bits
// match the documented lane semantics exactly; measured, this shape runs
// ~2.5x faster than an indexed lanes[] array (which GCC keeps in memory) and
// ~1.6x faster than a single serial accumulator.

namespace mcmcpar::model::kernels {

static_assert(kLanes == 8, "the unrolled lane bodies and AVX2 TU assume 8 lanes");

namespace {

// Expands `op(l)` once per lane with `l` a constant expression, keeping every
// accumulator a named local.
#define MCMCPAR_FOR_EACH_LANE(op) \
  op(0);                          \
  op(1);                          \
  op(2);                          \
  op(3);                          \
  op(4);                          \
  op(5);                          \
  op(6);                          \
  op(7)

double scalarDeltaAdd(const float* gain, const std::uint16_t* cov,
                      std::size_t n) noexcept {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#define MCMCPAR_LANE_OP(k) \
  l##k += cov[i + k] == 0 ? static_cast<double>(gain[i + k]) : 0.0
    MCMCPAR_FOR_EACH_LANE(MCMCPAR_LANE_OP);
#undef MCMCPAR_LANE_OP
  }
  double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) {
    lanes[i & 7] += cov[i] == 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double scalarDeltaRemove(const float* gain, const std::uint16_t* cov,
                         std::size_t n) noexcept {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#define MCMCPAR_LANE_OP(k) \
  l##k -= cov[i + k] == 1 ? static_cast<double>(gain[i + k]) : 0.0
    MCMCPAR_FOR_EACH_LANE(MCMCPAR_LANE_OP);
#undef MCMCPAR_LANE_OP
  }
  double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) {
    lanes[i & 7] -= cov[i] == 1 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double scalarApplyAdd(const float* gain, std::uint16_t* cov,
                      std::size_t n) noexcept {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#define MCMCPAR_LANE_OP(k)                                              \
  do {                                                                  \
    const std::uint16_t old = cov[i + k];                               \
    l##k += old == 0 ? static_cast<double>(gain[i + k]) : 0.0;          \
    cov[i + k] = old == 65535 ? old : static_cast<std::uint16_t>(old + 1); \
  } while (false)
    MCMCPAR_FOR_EACH_LANE(MCMCPAR_LANE_OP);
#undef MCMCPAR_LANE_OP
  }
  double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) {
    const std::uint16_t old = cov[i];
    lanes[i & 7] += old == 0 ? static_cast<double>(gain[i]) : 0.0;
    cov[i] = old == 65535 ? old : static_cast<std::uint16_t>(old + 1);
  }
  return combineLanes(lanes);
}

double scalarApplyRemove(const float* gain, std::uint16_t* cov,
                         std::size_t n) noexcept {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#define MCMCPAR_LANE_OP(k)                                         \
  do {                                                             \
    const std::uint16_t old = cov[i + k];                          \
    l##k -= old == 1 ? static_cast<double>(gain[i + k]) : 0.0;     \
    cov[i + k] = static_cast<std::uint16_t>(old - (old > 0 ? 1 : 0)); \
  } while (false)
    MCMCPAR_FOR_EACH_LANE(MCMCPAR_LANE_OP);
#undef MCMCPAR_LANE_OP
  }
  double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) {
    const std::uint16_t old = cov[i];
    lanes[i & 7] -= old == 1 ? static_cast<double>(gain[i]) : 0.0;
    cov[i] = static_cast<std::uint16_t>(old - (old > 0 ? 1 : 0));
  }
  return combineLanes(lanes);
}

double scalarSumCovered(const float* gain, const std::uint16_t* cov,
                        std::size_t n) noexcept {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#define MCMCPAR_LANE_OP(k) \
  l##k += cov[i + k] > 0 ? static_cast<double>(gain[i + k]) : 0.0
    MCMCPAR_FOR_EACH_LANE(MCMCPAR_LANE_OP);
#undef MCMCPAR_LANE_OP
  }
  double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) {
    lanes[i & 7] += cov[i] > 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double scalarTransitionDelta(const float* gain, const std::uint16_t* cov,
                             const std::int16_t* dOld,
                             const std::int16_t* dNew,
                             std::size_t n) noexcept {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#define MCMCPAR_LANE_OP(k)                                  \
  do {                                                      \
    const int cur = cov[i + k];                             \
    const bool was = cur > 0;                               \
    const bool now = cur - dOld[i + k] + dNew[i + k] > 0;   \
    l##k += was == now ? 0.0                                \
            : now      ? static_cast<double>(gain[i + k])   \
                       : -static_cast<double>(gain[i + k]); \
  } while (false)
    MCMCPAR_FOR_EACH_LANE(MCMCPAR_LANE_OP);
#undef MCMCPAR_LANE_OP
  }
  double lanes[kLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) {
    const int cur = cov[i];
    const bool was = cur > 0;
    const bool now = cur - dOld[i] + dNew[i] > 0;
    lanes[i & 7] += was == now ? 0.0
                    : now      ? static_cast<double>(gain[i])
                               : -static_cast<double>(gain[i]);
  }
  return combineLanes(lanes);
}

// The debug check fires for every backend; the AVX2 TU has no asserts of its
// own.
template <SpanApplyFn Impl>
double checkedApplyRemove(const float* gain, std::uint16_t* cov,
                          std::size_t n) noexcept {
#if !defined(NDEBUG)
  for (std::size_t i = 0; i < n; ++i) {
    assert(cov[i] > 0 && "applyRemove on an uncovered pixel");
  }
#endif
  return Impl(gain, cov, n);
}

constexpr SpanKernels kScalarKernels{
    scalarDeltaAdd,  scalarDeltaRemove,
    scalarApplyAdd,  checkedApplyRemove<scalarApplyRemove>,
    scalarSumCovered, scalarTransitionDelta};

#if defined(MCMCPAR_HAVE_AVX2_KERNELS)
constexpr SpanKernels kAvx2Kernels{
    avx2::spanDeltaAdd,   avx2::spanDeltaRemove,
    avx2::spanApplyAdd,   checkedApplyRemove<avx2::spanApplyRemove>,
    avx2::spanSumCovered, avx2::spanTransitionDelta};
#endif

Backend detectBackend() noexcept {
  const char* forced = std::getenv("MCMCPAR_SIMD");
  if (forced != nullptr && std::strcmp(forced, "scalar") == 0) {
    return Backend::Scalar;
  }
#if defined(MCMCPAR_HAVE_AVX2_KERNELS)
  if (__builtin_cpu_supports("avx2")) return Backend::Avx2;
#endif
  return Backend::Scalar;
}

std::atomic<Backend>& backendState() noexcept {
  static std::atomic<Backend> state{detectBackend()};
  return state;
}

}  // namespace

bool avx2Available() noexcept {
#if defined(MCMCPAR_HAVE_AVX2_KERNELS)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Backend activeBackend() noexcept {
  return backendState().load(std::memory_order_relaxed);
}

const char* backendName() noexcept {
  return activeBackend() == Backend::Avx2 ? "avx2" : "scalar";
}

bool setBackend(Backend backend) noexcept {
  if (backend == Backend::Avx2 && !avx2Available()) return false;
  backendState().store(backend, std::memory_order_relaxed);
  return true;
}

const SpanKernels& spanKernels() noexcept {
#if defined(MCMCPAR_HAVE_AVX2_KERNELS)
  if (activeBackend() == Backend::Avx2) return kAvx2Kernels;
#endif
  return kScalarKernels;
}

}  // namespace mcmcpar::model::kernels
