// Runtime CPU dispatch for the kernels:: seam.
//
// All three flavors of every kernel are compiled in this one translation
// unit: the scalar and 128-bit instantiations with the build's default
// ISA, and the AVX2 instantiations inside target("avx2") functions (the
// width-generic bodies are force-inlined into them, so they get genuine
// 256-bit codegen without the whole build needing -mavx2). The AVX2
// entry points are only reachable after the CPUID probe says the host
// can execute them.

#include "common/simd.hpp"

#include <atomic>

#if defined(__GNUC__) && !defined(__clang__)
// Everything taking a 256-bit pack parameter is force-inlined, so the
// "ABI for passing 32-byte parameters has changed" note is moot.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#include "common/simd_kernels.hpp"

namespace esl::kernels {

namespace {

SimdLevel detect() {
#if ESL_SIMD_HAS_AVX2
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
#if ESL_SIMD_VECTOR_EXT
  // 128-bit packs are baseline everywhere we build with the vector
  // extensions: SSE2 is part of x86-64, and aarch64 lowers them to NEON.
  return SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
}

std::atomic<int>& active_state() {
  static std::atomic<int> level{static_cast<int>(detected_level())};
  return level;
}

#if ESL_SIMD_HAS_AVX2

// ------------------------------------------------------- AVX2 wrappers
// Force-inlining the impl templates here compiles them with AVX2
// enabled; nothing outside these functions carries AVX2 encodings.

ESL_SIMD_TARGET_AVX2 void avx2_fft_stage(Complex* data, std::size_t n,
                                         std::size_t len,
                                         const Complex* twiddles) {
  impl::fft_stage<4>(data, n, len, twiddles);
}

ESL_SIMD_TARGET_AVX2 void avx2_rfft_unpack(const Complex* half_spectrum,
                                           std::size_t half,
                                           const Complex* twiddles,
                                           Complex* out) {
  impl::rfft_unpack<4>(half_spectrum, half, twiddles, out);
}

ESL_SIMD_TARGET_AVX2 void avx2_taper_multiply(const Real* x, const Real* taper,
                                              Real* out, std::size_t n) {
  impl::taper_multiply<4>(x, taper, out, n);
}

ESL_SIMD_TARGET_AVX2 void avx2_power_density(const Complex* spectrum,
                                             std::size_t bins, Real scale,
                                             bool even_length, Real* density) {
  impl::power_density<4>(spectrum, bins, scale, even_length, density);
}

ESL_SIMD_TARGET_AVX2 void avx2_dwt_periodic_analysis(
    const Real* x, std::size_t n, const Real* lowpass, const Real* highpass,
    std::size_t filter_length, Real* approx, Real* detail) {
  impl::dwt_periodic_analysis<4>(x, n, lowpass, highpass, filter_length,
                                 approx, detail);
}

#endif  // ESL_SIMD_HAS_AVX2

}  // namespace

SimdLevel detected_level() {
  static const SimdLevel level = detect();
  return level;
}

SimdLevel active_level() {
  return static_cast<SimdLevel>(
      active_state().load(std::memory_order_relaxed));
}

SimdLevel set_active_level(SimdLevel level) {
  SimdLevel applied = level;
  if (static_cast<int>(applied) > static_cast<int>(detected_level())) {
    applied = detected_level();
  }
  if (static_cast<int>(applied) < 0) {
    applied = SimdLevel::kScalar;
  }
  active_state().store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

const char* level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

int level_width(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return 1;
    case SimdLevel::kSse2:
      return 2;
    case SimdLevel::kAvx2:
      return 4;
  }
  return 1;
}

void fft_stage(Complex* data, std::size_t n, std::size_t len,
               const Complex* twiddles) {
  switch (active_level()) {
#if ESL_SIMD_HAS_AVX2
    case SimdLevel::kAvx2:
      avx2_fft_stage(data, n, len, twiddles);
      return;
#endif
    case SimdLevel::kSse2:
      impl::fft_stage<2>(data, n, len, twiddles);
      return;
    default:
      impl::fft_stage<1>(data, n, len, twiddles);
      return;
  }
}

void rfft_unpack(const Complex* half_spectrum, std::size_t half,
                 const Complex* twiddles, Complex* out) {
  switch (active_level()) {
#if ESL_SIMD_HAS_AVX2
    case SimdLevel::kAvx2:
      avx2_rfft_unpack(half_spectrum, half, twiddles, out);
      return;
#endif
    case SimdLevel::kSse2:
      impl::rfft_unpack<2>(half_spectrum, half, twiddles, out);
      return;
    default:
      impl::rfft_unpack<1>(half_spectrum, half, twiddles, out);
      return;
  }
}

void taper_multiply(const Real* x, const Real* taper, Real* out,
                    std::size_t n) {
  switch (active_level()) {
#if ESL_SIMD_HAS_AVX2
    case SimdLevel::kAvx2:
      avx2_taper_multiply(x, taper, out, n);
      return;
#endif
    case SimdLevel::kSse2:
      impl::taper_multiply<2>(x, taper, out, n);
      return;
    default:
      impl::taper_multiply<1>(x, taper, out, n);
      return;
  }
}

void power_density(const Complex* spectrum, std::size_t bins, Real scale,
                   bool even_length, Real* density) {
  switch (active_level()) {
#if ESL_SIMD_HAS_AVX2
    case SimdLevel::kAvx2:
      avx2_power_density(spectrum, bins, scale, even_length, density);
      return;
#endif
    case SimdLevel::kSse2:
      impl::power_density<2>(spectrum, bins, scale, even_length, density);
      return;
    default:
      impl::power_density<1>(spectrum, bins, scale, even_length, density);
      return;
  }
}

void dwt_periodic_analysis(const Real* x, std::size_t n, const Real* lowpass,
                           const Real* highpass, std::size_t filter_length,
                           Real* approx, Real* detail) {
  switch (active_level()) {
#if ESL_SIMD_HAS_AVX2
    case SimdLevel::kAvx2:
      avx2_dwt_periodic_analysis(x, n, lowpass, highpass, filter_length,
                                 approx, detail);
      return;
#endif
    case SimdLevel::kSse2:
      impl::dwt_periodic_analysis<2>(x, n, lowpass, highpass, filter_length,
                                     approx, detail);
      return;
    default:
      impl::dwt_periodic_analysis<1>(x, n, lowpass, highpass, filter_length,
                                     approx, detail);
      return;
  }
}

}  // namespace esl::kernels
