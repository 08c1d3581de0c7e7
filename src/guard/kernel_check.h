#ifndef GFR_GUARD_KERNEL_CHECK_H
#define GFR_GUARD_KERNEL_CHECK_H

// Golden-vector kernel self-tests and the quarantine ladder.
//
// Every non-scalar kernel the runtime dispatch selects is screened ONCE, at
// first dispatch, against an implementation-independent reference:
//
//   - byte kernels against a direct two-nibble-table evaluation (the
//     definition, written out here rather than calling kByteScalar, so the
//     reference shares no code with any kernel under test), over
//     deterministic pseudo-random tables and operands, lengths straddling
//     every vector width / tail / alignment case, plus in-place calls;
//   - the wide carry-less word kernel against a Russian-peasant shift-XOR
//     multiplier over GF(2^64)/(y^64 + y^4 + y^3 + y + 1), with
//     WideParams.folds pinned to kMaxWideFolds so the branch-free vector
//     path (not the scalar residual fallback, which shares its translation
//     unit with the kernel) produces every checked value.
//
// A kernel that fails is QUARANTINED by the shared ladder (guard/ladder.h):
// the dispatch steps down bulk::byte_ladder() / word_ladder().  Since every
// downstream path (RegionEngine, FieldOps region routing) takes its kernels
// from bulk::dispatch(), a quarantined kernel can never touch user data,
// and the scalar fallback is bit-identical by the engine's differential
// tests.  GFR_GUARD_FAULT (a bit flipped in the kernel output before
// comparison) drills this end-to-end in CI.

#include "bulk/kernels.h"
#include "guard/ladder.h"
#include "guard/status.h"

#include <vector>

namespace gfr::guard {

/// Screen one byte kernel against the direct nibble-table reference.
/// `force_fault` flips one output bit before the first comparison.
[[nodiscard]] Status selftest_byte_kernel(const bulk::ByteKernel& k,
                                          bool force_fault = false);

/// Screen one word kernel (mul / addmul / mul_elementwise) against the
/// peasant-multiply reference.  `force_fault` as above.
[[nodiscard]] Status selftest_word_kernel(const bulk::WordKernel& k,
                                          bool force_fault = false);

using ScreenResult = Screened<bulk::Dispatch>;

/// Pure screening policy: self-test `base`'s non-scalar kernels, step down
/// each ladder past any failure, screen the replacement rung too.  No
/// global state — this is the function the unit tests drive with synthetic
/// fault specs.
[[nodiscard]] ScreenResult screen_dispatch(const bulk::Dispatch& base,
                                           const char* fault_spec = nullptr);

/// Kernels quarantined by the process-wide dispatch screening (empty in a
/// healthy process).  Forces bulk::dispatch() first, so the result is
/// complete and race-free regardless of call order.
[[nodiscard]] const std::vector<Quarantined>& quarantine_report();

}  // namespace gfr::guard

#endif  // GFR_GUARD_KERNEL_CHECK_H
