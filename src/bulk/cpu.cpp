#include "bulk/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace gfr::bulk {

#if defined(__x86_64__) || defined(__i386__)

namespace {

/// XCR0 via XGETBV (inline asm: the _xgetbv intrinsic would require
/// compiling this portable TU with -mxsave).  Only called when CPUID
/// reports OSXSAVE, so the instruction is guaranteed to exist.
unsigned long long read_xcr0() noexcept {
    unsigned int eax = 0;
    unsigned int edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<unsigned long long>(edx) << 32) | eax;
}

}  // namespace

CpuFeatures detect_cpu() noexcept {
    CpuFeatures f;
    unsigned int a = 0;
    unsigned int b = 0;
    unsigned int c = 0;
    unsigned int d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) {
        return f;
    }
    f.pclmul = (c & (1U << 1)) != 0;
    f.ssse3 = (c & (1U << 9)) != 0;
    const bool osxsave = (c & (1U << 27)) != 0;
    // AVX-class kernels additionally need the OS to save YMM state:
    // XCR0 bits 1 (SSE) and 2 (AVX) both set.
    const bool ymm_os = osxsave && (read_xcr0() & 0x6) == 0x6;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
        f.avx2 = ymm_os && (b & (1U << 5)) != 0;
        // The 256-bit VPCLMULQDQ kernel mixes in AVX2 integer ops (shifts,
        // shuffles, XOR), so it is only usable when both are present.
        f.vpclmulqdq = f.avx2 && f.pclmul && (c & (1U << 10)) != 0;
        // GFNI exists in SSE-only parts (some Atoms), but our kernel uses
        // the VEX 256-bit form, so usability is gated by its rung predicate
        // (gfni && avx2) rather than here — report the raw CPU bit.
        f.gfni = (c & (1U << 8)) != 0;
        // AVX-512 needs the OS to save opmask + ZMM state on top of the
        // YMM requirement: XCR0 bits 1-2 (SSE/AVX) and 5-7 (opmask,
        // ZMM_Hi256, Hi16_ZMM) all set, i.e. XCR0 & 0xE6 == 0xE6.
        const bool zmm_os = osxsave && (read_xcr0() & 0xE6) == 0xE6;
        f.avx512f = zmm_os && (b & (1U << 16)) != 0;
    }
    return f;
}

#else  // non-x86: no SIMD kernels are compiled, scalar dispatch only

CpuFeatures detect_cpu() noexcept { return {}; }

#endif

}  // namespace gfr::bulk
