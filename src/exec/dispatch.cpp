// Tape-backend selection: the rung table, the pure policy
// (make_exec_dispatch) that picks from it, and the process-wide singleton
// binding it to the detected CPU and the GFR_EXEC_FORCE_SCALAR environment
// knob, screened through the guard quarantine ladder before first use.

#include "exec/run_kernels.h"

#include "guard/exec_check.h"

#include <cstdlib>

namespace gfr::exec {

// Default-free switch: a new backend fails to compile (-Werror=switch on
// the library target) until it is named here.
const char* backend_name(Backend backend) noexcept {
    switch (backend) {
        case Backend::Scalar: return "scalar";
        case Backend::Avx2: return "avx2";
        case Backend::Avx512: return "avx512";
    }
    __builtin_unreachable();
}

const guard::Ladder<TapeKernel>& tape_ladder() noexcept {
    // Best first: widest registers win.  avx512f already folds in the XCR0
    // opmask+ZMM OS check (detect_cpu), and the kernel issues only
    // Foundation ops — no extra feature bits needed.
    static const guard::Rung<TapeKernel> rungs[] = {
        {"avx512", avx512_tape_kernel(),
         [](const bulk::CpuFeatures& f) { return f.avx512f; }},
        {"avx2", avx2_tape_kernel(),
         [](const bulk::CpuFeatures& f) { return f.avx2; }},
    };
    static const guard::Ladder<TapeKernel> ladder{
        "exec-", rungs, &kTapeScalar, guard::selftest_tape_kernel};
    return ladder;
}

bool backend_supported(Backend backend, const bulk::CpuFeatures& f) noexcept {
    const auto* r = guard::find_rung(tape_ladder(), backend_name(backend));
    return r == nullptr || r->supported(f);  // Scalar: the floor runs everywhere
}

const TapeKernel* tape_kernel(Backend backend) noexcept {
    if (backend == Backend::Scalar) {
        return &kTapeScalar;
    }
    const auto* r = guard::find_rung(tape_ladder(), backend_name(backend));
    return r != nullptr ? r->kernel : nullptr;
}

ExecDispatch make_exec_dispatch(const bulk::CpuFeatures& f,
                                bool force_scalar) noexcept {
    return ExecDispatch{f, force_scalar, guard::pick(tape_ladder(), f, force_scalar)};
}

const ExecDispatch& dispatch() {
    static const ExecDispatch d = guard::record(guard::screen_exec_dispatch(
        make_exec_dispatch(bulk::detect_cpu(),
                           guard::env_flag_enabled(std::getenv(kExecForceScalarEnv))),
        std::getenv(guard::kGuardFaultEnv)));
    return d;
}

}  // namespace gfr::exec
