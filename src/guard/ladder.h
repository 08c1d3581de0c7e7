#ifndef GFR_GUARD_LADDER_H
#define GFR_GUARD_LADDER_H

// The dispatch-and-quarantine ladder shared by every SIMD tier.
//
// A tier lists its kernels once, best first, as rungs: a GFR_GUARD_FAULT
// token, the compiled kernel (nullptr when its translation unit was compiled
// out) and a CPU predicate.  Below the rungs sits the floor, the portable
// reference semantics, which is never screened.  The tier's make_* policy
// picks from the table and its screening walks down the same table, so each
// preference order is written once: bulk::byte_ladder() / word_ladder() in
// bulk/dispatch.cpp and exec::tape_ladder() in exec/dispatch.cpp.
//
// Token grammar: tokens are compared case-insensitively after trimming
// spaces and tabs.  GFR_GUARD_FAULT is a comma-separated list of rung names
// (tier prefix included: "gfni", "vpclmul", "exec-avx512") and umbrella
// tokens ("all", "simd", "1", "on", "true", "yes") that hit every rung.

#include "bulk/cpu.h"
#include "guard/status.h"

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfr::guard {

/// Environment variable holding the forced-fault spec, read once by each
/// tier's dispatch().
inline constexpr const char* kGuardFaultEnv = "GFR_GUARD_FAULT";

/// Boolean knobs (GFR_BULK_FORCE_SCALAR, GFR_EXEC_FORCE_SCALAR): enabled iff
/// `value` (a getenv() result) is set and, trimmed, is neither empty nor
/// "0", "off", "false" or "no" (any case).
[[nodiscard]] bool env_flag_enabled(const char* value) noexcept;

/// True when `spec` (a GFR_GUARD_FAULT value; nullptr/empty force nothing)
/// names the rung `name` directly or via an umbrella token.
[[nodiscard]] bool fault_spec_hits(const char* spec, std::string_view name) noexcept;

/// One quarantine event: which rung failed screening and why.
struct Quarantined {
    std::string rung;     ///< the rung's fault token, e.g. "gfni", "exec-avx512"
    bool forced = false;  ///< failure injected via the GFR_GUARD_FAULT spec
    std::string detail;   ///< first mismatch, self-test coordinates included
    [[nodiscard]] std::string to_string() const;
};

/// One entry of a tier's rung table.
template <class Kernel>
struct Rung {
    const char* token = nullptr;     ///< fault token, after the ladder's prefix
    const Kernel* kernel = nullptr;  ///< nullptr when compiled out of this binary
    bool (*supported)(const bulk::CpuFeatures&) = nullptr;  ///< CPU predicate
};

/// A tier's rung table, best first, with its floor and self-test.
template <class Kernel>
struct Ladder {
    const char* prefix = nullptr;  ///< the tier's token prefix ("" or "exec-")
    std::span<const Rung<Kernel>> rungs;
    const Kernel* floor = nullptr;  ///< unscreened reference below the rungs
    Status (*selftest)(const Kernel& k, bool force_fault) = nullptr;
};

/// The rung whose token is `token` (no prefix), or nullptr.
template <class Kernel>
[[nodiscard]] const Rung<Kernel>* find_rung(const Ladder<Kernel>& ladder,
                                            std::string_view token) noexcept {
    for (const Rung<Kernel>& r : ladder.rungs) {
        if (token == r.token) {
            return &r;
        }
    }
    return nullptr;
}

/// Every kernel of `ladder` that `cpu` can run, best first, then the floor
/// when it is not null.
template <class Kernel>
[[nodiscard]] std::vector<const Kernel*> runnable(const Ladder<Kernel>& ladder,
                                                  const bulk::CpuFeatures& cpu) {
    std::vector<const Kernel*> out;
    for (const Rung<Kernel>& r : ladder.rungs) {
        if (r.kernel != nullptr && r.supported(cpu)) {
            out.push_back(r.kernel);
        }
    }
    if (ladder.floor != nullptr) {
        out.push_back(ladder.floor);
    }
    return out;
}

/// The selection: the first rung `cpu` can run, or the floor when there is
/// none or `force_floor` is set.
template <class Kernel>
[[nodiscard]] const Kernel* pick(const Ladder<Kernel>& ladder,
                                 const bulk::CpuFeatures& cpu,
                                 bool force_floor) noexcept {
    if (!force_floor) {
        for (const Rung<Kernel>& r : ladder.rungs) {
            if (r.kernel != nullptr && r.supported(cpu)) {
                return r.kernel;
            }
        }
    }
    return ladder.floor;
}

/// Self-test `start` and, past each failure, the next rung `cpu` can run,
/// until one passes; append every failure to `quarantined` and return the
/// survivor (the floor at worst, and for any `start` that is not a rung).
template <class Kernel>
[[nodiscard]] const Kernel* screen(const Ladder<Kernel>& ladder,
                                   const Kernel* start,
                                   const bulk::CpuFeatures& cpu,
                                   const char* fault_spec,
                                   std::vector<Quarantined>& quarantined) {
    auto it = std::find_if(ladder.rungs.begin(), ladder.rungs.end(),
                           [start](const Rung<Kernel>& r) {
                               return start != nullptr && r.kernel == start;
                           });
    for (; it != ladder.rungs.end(); ++it) {
        if (it->kernel == nullptr || !it->supported(cpu)) {
            continue;
        }
        std::string name = std::string{ladder.prefix} + it->token;
        const bool forced = fault_spec_hits(fault_spec, name);
        Status s = ladder.selftest(*it->kernel, forced);
        if (s.ok()) {
            return it->kernel;
        }
        quarantined.push_back({std::move(name), forced, std::move(s.detail)});
    }
    return ladder.floor;
}

/// A tier's screened selection and the rungs quarantined on the way.
template <class Dispatch>
struct Screened {
    Dispatch dispatch;
    std::vector<Quarantined> quarantined;
};

/// The quarantine list of the process-wide `Dispatch`, written once inside
/// that tier's dispatch() magic-static initializer, read-only afterwards.
template <class Dispatch>
[[nodiscard]] std::vector<Quarantined>& recorded_quarantine() {
    static std::vector<Quarantined> list;
    return list;
}

/// Record `r`'s quarantine list for the process and return its dispatch.
template <class Dispatch>
[[nodiscard]] Dispatch record(Screened<Dispatch> r) {
    recorded_quarantine<Dispatch>() = std::move(r.quarantined);
    return r.dispatch;
}

}  // namespace gfr::guard

#endif  // GFR_GUARD_LADDER_H
