#ifndef GFR_VERIFY_FAULT_CAMPAIGN_H
#define GFR_VERIFY_FAULT_CAMPAIGN_H

// Fault-injection campaign over guarded (CED-augmented) netlists.
//
// The CED pass (guard/parity_ced.h) claims: a single fault at any covered
// gate that corrupts the function outputs also raises ced_alarm.  This
// driver *measures* that claim instead of trusting it: for every requested
// site it builds a verbatim faulty clone (netlist/clone.h, intern = false,
// so the injected fault can never be hash-merged into the checker logic),
// compiles it (exec::Program), and sweeps the input space — exhaustively
// when inputs <= 16, else over seeded random blocks — comparing function
// outputs against the clean program's and watching the alarm bit:
//
//   corrupt lane  = some function output differs from the clean circuit
//   escaped lane  = corrupt && alarm low        (the CED claim violated)
//
// Per-site outcome: Escaped if any lane escaped; else Detected if any lane
// was corrupt (every corruption alarmed); else Benign (the fault never
// reached a function output — possible for TieFanins sites whose local
// error is never excited, e.g. AND(a,a) = a).  An alarm on an uncorrupted
// lane is NOT an escape or a false alarm: the fault is real, merely masked
// on that vector.
//
// Two fault models per site, both single-fault and permanent:
//   FlipGateKind — the gate computes the wrong function (And <-> Xor);
//   TieFanins    — fanin b shorted to a: XOR(a,a) pins the net to 0
//                  (stuck-at-0), AND(a,a) bypasses the gate (wire fault).
//
// The vectors are the shared campaign schedule (verify::BlockSchedule), the
// same blocks the multiplier verifier and the equivalence checker sweep,
// batched by exec::BlockGrouping.  With fewer than six inputs the one block
// repeats real assignments across its 64 lanes, which changes no per-site
// outcome.  The (site x kind) space is sharded through verify::Campaign;
// outcomes land in a per-injection slot array, so the report is
// deterministic at any thread count.

#include "netlist/netlist.h"
#include "verify/campaign.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gfr::verify {

enum class FaultKind : std::uint8_t { FlipGateKind, TieFanins };

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultSite {
    netlist::NodeId node = netlist::kInvalidNode;
    FaultKind kind = FaultKind::FlipGateKind;
    [[nodiscard]] std::string to_string() const;
};

enum class FaultOutcome : std::uint8_t { Benign, Detected, Escaped };

struct FaultCampaignOptions {
    /// Seed of the random-vector regime (inputs > 16); the exhaustive
    /// regime ignores it.  Per-block contents derive from
    /// Campaign::derive_sweep_seed(seed, block), so results replay.
    std::uint64_t seed = 0xFA017ULL;
    /// 64-lane input blocks per site in the random regime.
    std::uint64_t random_blocks = 64;
    /// Sharding of the (site x kind) space across worker threads.
    CampaignOptions campaign{};
};

struct FaultReport {
    std::size_t injected = 0;  ///< sites x fault kinds actually simulated
    std::size_t detected = 0;  ///< corrupted at least one vector, all alarmed
    std::size_t benign = 0;    ///< never corrupted a function output
    std::size_t escaped = 0;   ///< corrupted with the alarm low — CED failure
    std::vector<FaultSite> escapes;  ///< every escaped injection, in order
    [[nodiscard]] bool all_detected() const noexcept { return escaped == 0; }
    [[nodiscard]] std::string to_string() const;
};

/// Inject both fault kinds at every site of `guarded` (a netlist processed
/// by guard::add_parity_ced: outputs [0, n_function) are the function,
/// `alarm_index` is the ced_alarm output) and report the outcomes.  Sites
/// must be And2/Xor2 nodes of the guarded netlist (std::invalid_argument
/// otherwise); the CED pass's CedInfo::covered_sites is the intended input.
[[nodiscard]] FaultReport run_fault_campaign(
    const netlist::Netlist& guarded, std::span<const netlist::NodeId> sites,
    std::size_t n_function, std::size_t alarm_index,
    const FaultCampaignOptions& options = {});

}  // namespace gfr::verify

#endif  // GFR_VERIFY_FAULT_CAMPAIGN_H
