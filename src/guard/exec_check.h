#ifndef GFR_GUARD_EXEC_CHECK_H
#define GFR_GUARD_EXEC_CHECK_H

// Golden-tape self-tests and the quarantine ladder for the exec backends —
// the tape-execution rung of the guard discipline in kernel_check.h.
//
// Every non-scalar tape executor exec::dispatch() selects is screened ONCE,
// at first dispatch, by running synthetic golden tapes (an AND/XOR netlist
// shaped to exercise every fused instruction form, and a LUT network with
// cones of every width 0..6 including non-parity truth tables) through the
// candidate backend and comparing bit-exactly against the scalar executor at
// every block width 1..kMaxBlocks.  The backend's fused sweep oracle
// (TapeKernel::oracle) is screened on the same rung: synthetic reduction
// structures at full-row, ragged-tail and sub-vector degrees, diffed
// word-exactly against the scalar oracle with true-product, flipped-bit and
// random got-words at every width.  The scalar executor is the reference
// semantics — pinned by the exec differential tests — and is never screened.
//
// A backend that fails is QUARANTINED by the shared ladder (guard/ladder.h)
// walking exec::tape_ladder(), so a faulty vector backend degrades to
// scalar, never to wrong answers; GFR_GUARD_FAULT=exec-avx512 drills it.

#include "exec/run_kernels.h"
#include "guard/ladder.h"
#include "guard/status.h"

#include <vector>

namespace gfr::guard {

/// Screen one tape executor against the scalar reference on the golden
/// tapes, all block widths.  `force_fault` flips one output bit before the
/// first comparison.  The kernel is executed directly — callers must only
/// pass kernels the running CPU supports.
[[nodiscard]] Status selftest_tape_kernel(const exec::TapeKernel& k,
                                          bool force_fault = false);

using ExecScreenResult = Screened<exec::ExecDispatch>;

/// Pure screening policy: self-test `base`'s backend, step down the ladder
/// past any failure, screen the replacement rung too.  No global state —
/// the unit tests drive this with synthetic fault specs.
[[nodiscard]] ExecScreenResult screen_exec_dispatch(
    const exec::ExecDispatch& base, const char* fault_spec = nullptr);

/// Backends quarantined by the process-wide exec dispatch screening (empty
/// in a healthy process).  Forces exec::dispatch() first, so the result is
/// complete and race-free regardless of call order.
[[nodiscard]] const std::vector<Quarantined>& exec_quarantine_report();

}  // namespace gfr::guard

#endif  // GFR_GUARD_EXEC_CHECK_H
