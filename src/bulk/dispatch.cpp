// Kernel selection: the byte and word rung tables, the pure policy
// (make_dispatch) that picks from them, and the process-wide singleton that
// binds it to the detected CPU and the GFR_BULK_FORCE_SCALAR environment
// knob, screened through the guard quarantine ladder before first use.

#include "bulk/kernels.h"

#include "guard/kernel_check.h"

#include <cstdlib>

namespace gfr::bulk {

// Default-free switch: a new enumerator fails to compile (-Werror=switch on
// the library target) until it is named here.
const char* kernel_name(KernelKind kind) noexcept {
    switch (kind) {
        case KernelKind::Scalar: return "scalar";
        case KernelKind::Ssse3: return "ssse3";
        case KernelKind::Avx2: return "avx2";
        case KernelKind::Vpclmul: return "vpclmul";
        case KernelKind::Gfni: return "gfni";
    }
    __builtin_unreachable();
}

const guard::Ladder<ByteKernel>& byte_ladder() noexcept {
    // Best first: GFNI does one affine transform where the shuffle kernels
    // do two lookups + XOR.  Our GFNI kernel is the VEX 256-bit form plus
    // AVX2 XORs for addmul, so the raw GFNI bit alone (SSE-only Atom parts)
    // is not enough — those fall back to SSSE3.
    static const guard::Rung<ByteKernel> rungs[] = {
        {"gfni", gfni_byte_kernel(),
         [](const CpuFeatures& f) { return f.gfni && f.avx2; }},
        {"avx2", avx2_byte_kernel(), [](const CpuFeatures& f) { return f.avx2; }},
        {"ssse3", ssse3_byte_kernel(),
         [](const CpuFeatures& f) { return f.ssse3; }},
    };
    static const guard::Ladder<ByteKernel> ladder{"", rungs, &kByteScalar,
                                                  guard::selftest_byte_kernel};
    return ladder;
}

const guard::Ladder<WordKernel>& word_ladder() noexcept {
    // The wide kernel also issues AVX2 integer ops and the 128-bit PCLMULQDQ
    // scalar helper, so it requires the full triple — not just the
    // VPCLMULQDQ bit (detect_cpu couples them today, but this predicate is
    // the policy the tests pin for *any* feature combination).
    static const guard::Rung<WordKernel> rungs[] = {
        {"vpclmul", vpclmul_word_kernel(),
         [](const CpuFeatures& f) { return f.vpclmulqdq && f.avx2 && f.pclmul; }},
    };
    static const guard::Ladder<WordKernel> ladder{"", rungs, nullptr,
                                                  guard::selftest_word_kernel};
    return ladder;
}

bool kernel_supported(KernelKind kind, const CpuFeatures& f) noexcept {
    const auto* byte = guard::find_rung(byte_ladder(), kernel_name(kind));
    const auto* word = guard::find_rung(word_ladder(), kernel_name(kind));
    // Scalar is no rung: the floors run everywhere.
    return byte != nullptr ? byte->supported(f) : word == nullptr || word->supported(f);
}

Dispatch make_dispatch(const CpuFeatures& f, bool force_scalar) noexcept {
    return Dispatch{f, force_scalar, guard::pick(byte_ladder(), f, force_scalar),
                    guard::pick(word_ladder(), f, force_scalar)};
}

const Dispatch& dispatch() {
    // "GFR_BULK_FORCE_SCALAR=0" (or off/false/no, or empty) means unset —
    // scripts can pass the knob through unconditionally.
    static const Dispatch d = guard::record(guard::screen_dispatch(
        make_dispatch(detect_cpu(),
                      guard::env_flag_enabled(std::getenv("GFR_BULK_FORCE_SCALAR"))),
        std::getenv(guard::kGuardFaultEnv)));
    return d;
}

}  // namespace gfr::bulk
