// Portable SIMD kernel layer: fixed-width packs + one dispatch seam.
//
// Two pieces live here:
//
//  * `esl::simd` — a small fixed-width pack abstraction (load/store/
//    broadcast, +/-/*, unfused fma, the pair shuffles interleaved
//    complex data needs, and the comparison masks, compare-select and
//    abs that the e-Glass extractor's per-channel lanes need) over the
//    GCC/Clang vector extensions, with a plain-array scalar fallback for
//    other compilers. Packs are a codegen vocabulary, not a public
//    container: only the kernel implementations and that extractor use
//    them.
//
//  * `esl::kernels` — the dispatch seam callers actually use. Each entry
//    point (FFT butterfly stage, rfft unpack, taper multiply, |X|^2
//    density, DWT analysis correlation) is compiled in
//    three flavors — scalar, 128-bit baseline ("sse2"; NEON on aarch64),
//    and AVX2 via per-function target attributes — and selected at
//    runtime from one CPU probe. Callers never write intrinsics and
//    never see pack types.
//
// Parity contract: every flavor of every kernel performs the *same
// arithmetic in the same per-element order* (fma() is an unfused
// multiply-then-add, and the build pins -ffp-contract=off), so scalar
// and SIMD outputs are bit-identical. The SimdParity suites assert this
// element by element across every level the host supports; it is also
// what lets set_active_level() switch flavors mid-stream without any
// numerical consequence.
//
// Thread safety: the active level is a relaxed atomic. Flipping it while
// other threads are inside a kernel is benign — they finish on the
// flavor they dispatched on and every flavor computes identical results.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/types.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define ESL_SIMD_VECTOR_EXT 1
#define ESL_SIMD_INLINE inline __attribute__((always_inline))
#else
#define ESL_SIMD_VECTOR_EXT 0
#define ESL_SIMD_INLINE inline
#endif

// __builtin_shufflevector: clang (always) and GCC >= 12.
#if defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12)
#define ESL_SIMD_HAS_SHUFFLE 1
#else
#define ESL_SIMD_HAS_SHUFFLE 0
#endif

// Function-multiversioning target attribute for the AVX2 flavor: one
// translation unit, AVX2 codegen only inside functions that opt in, and
// those functions are only ever called after the runtime CPUID probe.
#if ESL_SIMD_VECTOR_EXT && (defined(__x86_64__) || defined(__i386__))
#define ESL_SIMD_HAS_AVX2 1
#define ESL_SIMD_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ESL_SIMD_HAS_AVX2 0
#define ESL_SIMD_TARGET_AVX2
#endif

namespace esl::simd {

/// Fixed-width pack of W elements of T. W must be a power of two >= 2;
/// Pack<T, 1> (below) is the scalar fallback with the same interface, so
/// kernels templated on width cover every flavor with one body.
template <class T, int W>
struct Pack {
  static_assert(W >= 2 && (W & (W - 1)) == 0, "pack width must be 2^k");

#if ESL_SIMD_VECTOR_EXT
  typedef T Vec __attribute__((vector_size(W * sizeof(T))));
  Vec v;
#else
  T v[W];
#endif

  static ESL_SIMD_INLINE Pack load(const T* p) {
    Pack r;
    std::memcpy(&r.v, p, sizeof(r.v));  // unaligned-safe, folds to movups
    return r;
  }

  static ESL_SIMD_INLINE Pack broadcast(T x) {
    Pack r;
#if ESL_SIMD_VECTOR_EXT
    r.v = Vec{} + x;
#else
    for (int i = 0; i < W; ++i) r.v[i] = x;
#endif
    return r;
  }

  static ESL_SIMD_INLINE Pack zero() { return broadcast(T(0)); }

  /// Lane j holds rows[j][i]: one element from each of W arrays.
  static ESL_SIMD_INLINE Pack gather(const T* const* rows, std::size_t i) {
    Pack r;
    for (int j = 0; j < W; ++j) r.v[j] = rows[j][i];
    return r;
  }

  ESL_SIMD_INLINE void store(T* p) const { std::memcpy(p, &v, sizeof(v)); }

  ESL_SIMD_INLINE T lane(int i) const { return v[i]; }

  friend ESL_SIMD_INLINE Pack operator+(Pack a, Pack b) {
#if ESL_SIMD_VECTOR_EXT
    return {a.v + b.v};
#else
    Pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
#endif
  }
  friend ESL_SIMD_INLINE Pack operator-(Pack a, Pack b) {
#if ESL_SIMD_VECTOR_EXT
    return {a.v - b.v};
#else
    Pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
#endif
  }
  friend ESL_SIMD_INLINE Pack operator*(Pack a, Pack b) {
#if ESL_SIMD_VECTOR_EXT
    return {a.v * b.v};
#else
    Pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
#endif
  }
  // Bitwise ops, for integer lanes (the comparison masks below).
  friend ESL_SIMD_INLINE Pack operator&(Pack a, Pack b) {
#if ESL_SIMD_VECTOR_EXT
    return {a.v & b.v};
#else
    Pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
#endif
  }
  friend ESL_SIMD_INLINE Pack operator|(Pack a, Pack b) {
#if ESL_SIMD_VECTOR_EXT
    return {a.v | b.v};
#else
    Pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] | b.v[i];
    return r;
#endif
  }
  friend ESL_SIMD_INLINE Pack operator^(Pack a, Pack b) {
#if ESL_SIMD_VECTOR_EXT
    return {a.v ^ b.v};
#else
    Pack r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] ^ b.v[i];
    return r;
#endif
  }
};

/// Scalar fallback with the pack interface (width 1).
template <class T>
struct Pack<T, 1> {
  T v;
  static ESL_SIMD_INLINE Pack load(const T* p) { return {*p}; }
  static ESL_SIMD_INLINE Pack broadcast(T x) { return {x}; }
  static ESL_SIMD_INLINE Pack zero() { return {T(0)}; }
  static ESL_SIMD_INLINE Pack gather(const T* const* rows, std::size_t i) {
    return {rows[0][i]};
  }
  ESL_SIMD_INLINE void store(T* p) const { *p = v; }
  ESL_SIMD_INLINE T lane(int) const { return v; }
  friend ESL_SIMD_INLINE Pack operator+(Pack a, Pack b) { return {a.v + b.v}; }
  friend ESL_SIMD_INLINE Pack operator-(Pack a, Pack b) { return {a.v - b.v}; }
  friend ESL_SIMD_INLINE Pack operator*(Pack a, Pack b) { return {a.v * b.v}; }
  friend ESL_SIMD_INLINE Pack operator&(Pack a, Pack b) { return {a.v & b.v}; }
  friend ESL_SIMD_INLINE Pack operator|(Pack a, Pack b) { return {a.v | b.v}; }
  friend ESL_SIMD_INLINE Pack operator^(Pack a, Pack b) { return {a.v ^ b.v}; }
};

/// Unfused multiply-add a*b + c. Deliberately NOT a hardware FMA: fusing
/// changes rounding, and the kernel parity contract requires the same
/// per-element arithmetic at every width (the build also disables FP
/// contraction so a*b + c never silently fuses).
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> fma(Pack<T, W> a, Pack<T, W> b, Pack<T, W> c) {
  return a * b + c;
}

// ------------------------------------------------------- lane masks
// A comparison of two Pack<double, W> yields a Mask<W>: -1 (all bits
// set) in the lanes where it held, 0 elsewhere. Masks combine with
// & | ^, count with - (a set lane is -1) and pick lanes with select().
// Each comparison is the scalar IEEE one per lane, NaN included.

template <int W>
using Mask = Pack<std::int64_t, W>;

/// Lanes where a < b.
template <int W>
ESL_SIMD_INLINE Mask<W> less(Pack<double, W> a, Pack<double, W> b) {
  if constexpr (W == 1) {
    return {-static_cast<std::int64_t>(a.v < b.v)};
  } else {
#if ESL_SIMD_VECTOR_EXT
    return {reinterpret_cast<typename Mask<W>::Vec>(a.v < b.v)};
#else
    Mask<W> r;
    for (int i = 0; i < W; ++i) {
      r.v[i] = -static_cast<std::int64_t>(a.v[i] < b.v[i]);
    }
    return r;
#endif
  }
}

/// Lanes where a != b (true where either is NaN).
template <int W>
ESL_SIMD_INLINE Mask<W> not_equal(Pack<double, W> a, Pack<double, W> b) {
  if constexpr (W == 1) {
    return {-static_cast<std::int64_t>(a.v != b.v)};
  } else {
#if ESL_SIMD_VECTOR_EXT
    return {reinterpret_cast<typename Mask<W>::Vec>(a.v != b.v)};
#else
    Mask<W> r;
    for (int i = 0; i < W; ++i) {
      r.v[i] = -static_cast<std::int64_t>(a.v[i] != b.v[i]);
    }
    return r;
#endif
  }
}

/// Lane-wise `mask ? a : b`. select(less(v, a), v, a) is the scalar
/// `v < a ? v : a` in every lane, NaN and signed zeros included.
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> select(Mask<W> mask, Pack<T, W> a, Pack<T, W> b) {
  if constexpr (W == 1) {
    return {mask.v != 0 ? a.v : b.v};
  } else {
#if ESL_SIMD_VECTOR_EXT
    return {mask.v ? a.v : b.v};
#else
    Pack<T, W> r;
    for (int i = 0; i < W; ++i) r.v[i] = mask.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
#endif
  }
}

/// |p|: the sign bit cleared, which is what std::abs does to a double
/// (NaN payloads and infinities included).
template <int W>
ESL_SIMD_INLINE Pack<double, W> abs(Pack<double, W> p) {
  if constexpr (W == 1) {
    return {std::abs(p.v)};
  } else {
#if ESL_SIMD_VECTOR_EXT
    using Bits = typename Mask<W>::Vec;
    constexpr std::int64_t k_magnitude_bits = 0x7fffffffffffffff;
    return {reinterpret_cast<typename Pack<double, W>::Vec>(
        reinterpret_cast<Bits>(p.v) & k_magnitude_bits)};
#else
    Pack<double, W> r;
    for (int i = 0; i < W; ++i) r.v[i] = std::abs(p.v[i]);
    return r;
#endif
  }
}

// ------------------------------------------------- interleaved-pair shuffles
// Helpers for packs holding interleaved complex data [re0, im0, re1, im1]:
// W real lanes = W/2 complex elements. Widths 2 and 4 cover the 128-bit
// and 256-bit flavors; the lane-loop fallback keeps other builds correct.

/// [a0, a1, a2, a3] -> [a0, a0, a2, a2] (duplicate real parts).
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> dup_even(Pack<T, W> p) {
#if ESL_SIMD_VECTOR_EXT && ESL_SIMD_HAS_SHUFFLE
  if constexpr (W == 2) {
    return {__builtin_shufflevector(p.v, p.v, 0, 0)};
  } else if constexpr (W == 4) {
    return {__builtin_shufflevector(p.v, p.v, 0, 0, 2, 2)};
  } else
#endif
  {
    Pack<T, W> r;
    for (int i = 0; i < W; i += 2) {
      r.v[i] = p.v[i];
      r.v[i + 1] = p.v[i];
    }
    return r;
  }
}

/// [a0, a1, a2, a3] -> [a1, a1, a3, a3] (duplicate imaginary parts).
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> dup_odd(Pack<T, W> p) {
#if ESL_SIMD_VECTOR_EXT && ESL_SIMD_HAS_SHUFFLE
  if constexpr (W == 2) {
    return {__builtin_shufflevector(p.v, p.v, 1, 1)};
  } else if constexpr (W == 4) {
    return {__builtin_shufflevector(p.v, p.v, 1, 1, 3, 3)};
  } else
#endif
  {
    Pack<T, W> r;
    for (int i = 0; i < W; i += 2) {
      r.v[i] = p.v[i + 1];
      r.v[i + 1] = p.v[i + 1];
    }
    return r;
  }
}

/// [a0, a1, a2, a3] -> [a1, a0, a3, a2] (swap re/im within each pair).
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> swap_pairs(Pack<T, W> p) {
#if ESL_SIMD_VECTOR_EXT && ESL_SIMD_HAS_SHUFFLE
  if constexpr (W == 2) {
    return {__builtin_shufflevector(p.v, p.v, 1, 0)};
  } else if constexpr (W == 4) {
    return {__builtin_shufflevector(p.v, p.v, 1, 0, 3, 2)};
  } else
#endif
  {
    Pack<T, W> r;
    for (int i = 0; i < W; i += 2) {
      r.v[i] = p.v[i + 1];
      r.v[i + 1] = p.v[i];
    }
    return r;
  }
}

/// [a0, a1, a2, a3] -> [a2, a3, a0, a1] (reverse complex element order).
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> reverse_pairs(Pack<T, W> p) {
#if ESL_SIMD_VECTOR_EXT && ESL_SIMD_HAS_SHUFFLE
  if constexpr (W == 2) {
    return p;  // a single complex element: nothing to reverse
  } else if constexpr (W == 4) {
    return {__builtin_shufflevector(p.v, p.v, 2, 3, 0, 1)};
  } else
#endif
  {
    Pack<T, W> r;
    for (int i = 0; i < W; i += 2) {
      r.v[i] = p.v[W - 2 - i];
      r.v[i + 1] = p.v[W - 1 - i];
    }
    return r;
  }
}

/// Even elements of the concatenation [a | b]: {a0, a2, b0, b2} for W=4.
/// This is the stride-2 "deinterleave" load the DWT and |X|^2 loops use.
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> even_elements(Pack<T, W> a, Pack<T, W> b) {
#if ESL_SIMD_VECTOR_EXT && ESL_SIMD_HAS_SHUFFLE
  if constexpr (W == 2) {
    return {__builtin_shufflevector(a.v, b.v, 0, 2)};
  } else if constexpr (W == 4) {
    return {__builtin_shufflevector(a.v, b.v, 0, 2, 4, 6)};
  } else
#endif
  {
    Pack<T, W> r;
    for (int i = 0; i < W / 2; ++i) {
      r.v[i] = a.v[2 * i];
      r.v[W / 2 + i] = b.v[2 * i];
    }
    return r;
  }
}

/// Odd elements of the concatenation [a | b]: {a1, a3, b1, b3} for W=4.
template <class T, int W>
ESL_SIMD_INLINE Pack<T, W> odd_elements(Pack<T, W> a, Pack<T, W> b) {
#if ESL_SIMD_VECTOR_EXT && ESL_SIMD_HAS_SHUFFLE
  if constexpr (W == 2) {
    return {__builtin_shufflevector(a.v, b.v, 1, 3)};
  } else if constexpr (W == 4) {
    return {__builtin_shufflevector(a.v, b.v, 1, 3, 5, 7)};
  } else
#endif
  {
    Pack<T, W> r;
    for (int i = 0; i < W / 2; ++i) {
      r.v[i] = a.v[2 * i + 1];
      r.v[W / 2 + i] = b.v[2 * i + 1];
    }
    return r;
  }
}

}  // namespace esl::simd

namespace esl::kernels {

using Complex = std::complex<Real>;

/// Dispatch flavors, ordered by width. kSse2 is the 128-bit baseline
/// (guaranteed on x86-64; lowers to NEON on aarch64); kAvx2 is the
/// 256-bit flavor gated behind the runtime CPUID probe.
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Widest level this host can execute (CPUID probe, cached).
SimdLevel detected_level();

/// Level the kernel entry points currently dispatch to. Defaults to
/// detected_level().
SimdLevel active_level();

/// Forces the dispatch level (clamped to detected_level(); returns the
/// applied level). Meant for the parity suites and the --json benches;
/// every level computes bit-identical results, so flipping it is never a
/// correctness decision.
SimdLevel set_active_level(SimdLevel level);

/// "scalar" / "sse2" / "avx2".
const char* level_name(SimdLevel level);

// ------------------------------------------------------------- DSP kernels
// All pointers are caller-owned workspace buffers; none may alias unless
// documented. Contract checks in the callers use the const char*
// expects/ensures overloads — nothing here allocates or builds strings.

/// One radix-2 Cooley-Tukey butterfly stage of span `len` over `data[n]`,
/// with the stage's len/2 twiddles precomputed by the caller (the same
/// w *= wlen recurrence the scalar loop used, so values are unchanged).
/// Vectorizes across the independent butterflies within the stage.
void fft_stage(Complex* data, std::size_t n, std::size_t len,
               const Complex* twiddles);

/// Even-length real-FFT unpack: combines the half-length complex
/// spectrum `half_spectrum[half]` of z[m] = x[2m] + i*x[2m+1] into the
/// half+1 non-redundant bins of the length-2*half real transform.
/// `twiddles[k] = exp(-2*pi*i*k / (2*half))` for k = 0..half.
/// `out[half+1]` must not alias `half_spectrum`.
void rfft_unpack(const Complex* half_spectrum, std::size_t half,
                 const Complex* twiddles, Complex* out);

/// out[i] = x[i] * taper[i].
void taper_multiply(const Real* x, const Real* taper, Real* out,
                    std::size_t n);

/// One-sided periodogram density from a non-redundant spectrum:
/// density[k] = |spectrum[k]|^2 * scale, doubled for every bin except DC
/// and (when `even_length`) the final Nyquist bin.
void power_density(const Complex* spectrum, std::size_t bins, Real scale,
                   bool even_length, Real* density);

/// Single-level periodic DWT analysis: approx/detail[i] =
/// sum_k lowpass/highpass[k] * x[(2i+k) mod n] for i < n/2 (n even).
/// Wrap-free interior outputs vectorize; the trailing wrap region stays
/// scalar (identical arithmetic either way).
void dwt_periodic_analysis(const Real* x, std::size_t n, const Real* lowpass,
                           const Real* highpass, std::size_t filter_length,
                           Real* approx, Real* detail);

}  // namespace esl::kernels
