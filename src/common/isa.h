/**
 * @file
 * Runtime ISA dispatch for numeric hot loops.
 *
 * HWPR_TARGET_CLONES clones a function for AVX2+FMA-class hardware
 * (x86-64-v3) with an ifunc resolver picking the variant once at load
 * time; other machines run the portable default. One binary, no
 * baseline-ISA requirement. GCC only — clang's target_clones cannot
 * take arch= levels. Only the elementwise accumulation loops and the
 * transpose pack are cloned. They stay at v3: an x86-64-v4 clone
 * would let the compiler pick its own 512-bit loop shapes and
 * epilogues, and nothing here needs it.
 *
 * HWPR_TARGET_AVX2_FMA and HWPR_TARGET_AVX512F mark explicit-intrinsic
 * kernels: the GEMM register tiles in common/matrix.cc. They are
 * compiled alongside the portable code and called only when
 * cpuHasAvx2Fma() or cpuHasAvx512f() says so. No ifunc is involved,
 * so sanitized builds run them too. The AVX-512F tiles are 4 rows x
 * 32 columns (16 zmm accumulators), 1-2 rows x 64 columns, then
 * 16- and 8-column tiles; their last n % 8 columns run the AVX2
 * tiles' 4-wide and scalar std::fma columns, so the AVX-512F target
 * includes FMA. (An x86-64-v4 *clone* of an earlier A^T * B worker,
 * which read B with a stride, ran at half the v3 clone's throughput.
 * That worker is gone: A^T * B now walks a strided A through the same
 * tiles, and explicit tiles fix the shapes the compiler chose then.)
 *
 * HWPR_FORCE_INLINE marks helpers that must inline into their caller:
 * left as standalone functions they would compile once for the
 * default ISA and every clone would call that scalar copy, and an
 * intrinsic tile would pass its accumulators through memory.
 *
 * Determinism contract: a cloned loop may contract multiply+add into
 * FMA, so its results can differ between ISA variants (machines) —
 * but never between runs, thread counts, or call sites on the same
 * machine, because one variant is chosen process-wide. Kernels whose
 * results must match each other exactly (e.g. the tiled and naive
 * GEMMs in common/matrix.cc) must pick their variant with the same
 * test so both compute identical accumulation chains. The AVX2 and
 * AVX-512F tiles compute the same chains (one fused multiply-add per
 * step, ascending k), so cpuHasAvx2Fma() alone decides the chain step
 * and cpuHasAvx512f() only the vector width. The activation sweeps
 * (nn::detail::sigmoidMap/tanhMap) stay on libmvec's 4-lane variants
 * even where AVX-512F runs: libmvec's 8-lane exp and tanh may round
 * differently by an ulp, which would change every checkpoint.
 */

#ifndef HWPR_COMMON_ISA_H
#define HWPR_COMMON_ISA_H

/*
 * Sanitized builds get no clones: the ifunc resolver runs during
 * relocation processing, before the TSan/ASan runtime initializes,
 * and segfaults on startup (GCC 12 + glibc 2.36). Cloned loops fall
 * back to the portable default there.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define HWPR_TARGET_CLONES \
    __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define HWPR_TARGET_CLONES
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define HWPR_AVX2_FMA_KERNELS 1
#define HWPR_TARGET_AVX2_FMA __attribute__((target("avx2,fma")))
#define HWPR_TARGET_AVX512F __attribute__((target("avx512f,fma")))
#endif

#if defined(__GNUC__)
#define HWPR_FORCE_INLINE inline __attribute__((always_inline))
#else
#define HWPR_FORCE_INLINE inline
#endif

namespace hwpr
{

/**
 * True when this process runs the HWPR_TARGET_AVX2_FMA kernels: the
 * build has them and the CPU is x86-64-v3 (AVX2+FMA), the level the
 * clones' resolver selects on. Evaluated once per process, in every
 * build flavour.
 */
inline bool
cpuHasAvx2Fma()
{
#ifdef HWPR_AVX2_FMA_KERNELS
    static const bool yes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("x86-64-v3") != 0;
    }();
    return yes;
#else
    return false;
#endif
}

/**
 * True when this process runs the HWPR_TARGET_AVX512F kernels: those
 * of cpuHasAvx2Fma() run, and the CPU and OS support AVX-512F.
 * Evaluated once per process, in every build flavour.
 */
inline bool
cpuHasAvx512f()
{
#ifdef HWPR_AVX2_FMA_KERNELS
    static const bool yes = [] {
        __builtin_cpu_init();
        return cpuHasAvx2Fma() && __builtin_cpu_supports("avx512f") != 0;
    }();
    return yes;
#else
    return false;
#endif
}

} // namespace hwpr

#endif // HWPR_COMMON_ISA_H
