#include "verify/fault_campaign.h"

#include "exec/program.h"
#include "netlist/clone.h"

#include <memory>
#include <span>
#include <stdexcept>

namespace gfr::verify {

using netlist::GateKind;
using netlist::Netlist;
using netlist::NodeId;

const char* fault_kind_name(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::FlipGateKind: return "flip-gate-kind";
        case FaultKind::TieFanins: return "tie-fanins";
    }
    return "?";
}

std::string FaultSite::to_string() const {
    return std::string{fault_kind_name(kind)} + "@node" + std::to_string(node);
}

std::string FaultReport::to_string() const {
    return "fault campaign: " + std::to_string(injected) + " injections: " +
           std::to_string(detected) + " detected, " + std::to_string(benign) +
           " benign, " + std::to_string(escaped) + " escaped";
}

FaultReport run_fault_campaign(const Netlist& guarded,
                               std::span<const NodeId> sites,
                               std::size_t n_function, std::size_t alarm_index,
                               const FaultCampaignOptions& options) {
    if (n_function > guarded.outputs().size() ||
        alarm_index >= guarded.outputs().size()) {
        throw std::invalid_argument{
            "run_fault_campaign: output indices exceed the netlist"};
    }
    for (const NodeId site : sites) {
        if (site >= guarded.node_count()) {
            throw std::invalid_argument{
                "run_fault_campaign: site id out of range"};
        }
        const auto kind = guarded.node(site).kind;
        if (kind != GateKind::And2 && kind != GateKind::Xor2) {
            throw std::invalid_argument{
                "run_fault_campaign: sites must be And2/Xor2 gates"};
        }
    }

    const auto n_inputs = guarded.inputs().size();
    const auto n_outputs = guarded.outputs().size();
    // Every injection sweeps the same blocks of the shared schedule:
    // exhaustive up to 16 inputs (below six, each lane of the one block
    // repeats a real assignment, which moves no per-site outcome), else
    // seeded random blocks.
    const BlockSchedule schedule = BlockSchedule::over(
        static_cast<int>(n_inputs), 16, options.random_blocks, options.seed);
    const exec::BlockGrouping& grouping = schedule.grouping;
    const auto words = [&](std::vector<std::uint64_t>& all, std::size_t width,
                           std::uint64_t sweep) {
        return std::span{all}.subspan(
            grouping.first_block(sweep) * width,
            static_cast<std::size_t>(grouping.blocks_in_sweep(sweep)) * width);
    };

    // The input words and the clean reference outputs, computed once and
    // shared read-only.
    std::vector<std::uint64_t> in(grouping.total_blocks * n_inputs);
    std::vector<std::uint64_t> clean_out(grouping.total_blocks * n_outputs);
    {
        const exec::Program clean = exec::Program::compile(guarded);
        exec::Program::Scratch scratch;
        for (std::uint64_t s = 0; s < grouping.total_sweeps; ++s) {
            const int blocks = grouping.blocks_in_sweep(s);
            schedule.fill(grouping.first_block(s), blocks, words(in, n_inputs, s).data());
            clean.run(words(in, n_inputs, s), words(clean_out, n_outputs, s), scratch,
                      blocks);
        }
    }

    // One campaign sweep per (site, fault kind); outcomes land in per-sweep
    // slots so the report is independent of the sharding.
    const std::uint64_t total = static_cast<std::uint64_t>(sites.size()) * 2;
    std::vector<FaultOutcome> outcomes(total, FaultOutcome::Benign);

    const Campaign campaign{options.campaign};
    campaign.run(total, [&](int) -> Campaign::SweepFn {
        // Per-worker mutable state, owned outright.
        auto scratch = std::make_shared<exec::Program::Scratch>();
        auto fout = std::make_shared<std::vector<std::uint64_t>>(
            static_cast<std::size_t>(grouping.group) * n_outputs);
        return [&, scratch, fout](std::uint64_t sweep) -> bool {
            const NodeId site = sites[static_cast<std::size_t>(sweep / 2)];
            const FaultKind fk = (sweep % 2 == 0) ? FaultKind::FlipGateKind
                                                  : FaultKind::TieFanins;
            const netlist::GateHook hook = [site, fk](NodeId id, GateKind& k,
                                                      NodeId& a, NodeId& b) {
                if (id != site) {
                    return;
                }
                if (fk == FaultKind::FlipGateKind) {
                    k = (k == GateKind::And2) ? GateKind::Xor2 : GateKind::And2;
                } else {
                    b = a;
                }
            };
            const Netlist faulty_nl =
                netlist::clone_netlist(guarded, {.intern = false}, hook);
            const exec::Program faulty = exec::Program::compile(faulty_nl);

            FaultOutcome outcome = FaultOutcome::Benign;
            for (std::uint64_t s = 0;
                 s < grouping.total_sweeps && outcome != FaultOutcome::Escaped; ++s) {
                const int blocks = grouping.blocks_in_sweep(s);
                faulty.run(words(in, n_inputs, s),
                           std::span{*fout}.first(static_cast<std::size_t>(blocks) *
                                                  n_outputs),
                           *scratch, blocks);
                const std::uint64_t* clean_block = words(clean_out, n_outputs, s).data();
                for (int blk = 0; blk < blocks; ++blk) {
                    const std::uint64_t* fo = fout->data() + blk * n_outputs;
                    const std::uint64_t* co = clean_block + blk * n_outputs;
                    std::uint64_t corrupt = 0;
                    for (std::size_t o = 0; o < n_function; ++o) {
                        corrupt |= fo[o] ^ co[o];
                    }
                    if (corrupt == 0) {
                        continue;
                    }
                    if ((corrupt & ~fo[alarm_index]) != 0) {
                        outcome = FaultOutcome::Escaped;
                        break;
                    }
                    outcome = FaultOutcome::Detected;
                }
            }
            outcomes[sweep] = outcome;
            return false;  // record everything; never cancel the campaign
        };
    });

    FaultReport report;
    report.injected = total;
    for (std::uint64_t s = 0; s < total; ++s) {
        switch (outcomes[s]) {
            case FaultOutcome::Benign: ++report.benign; break;
            case FaultOutcome::Detected: ++report.detected; break;
            case FaultOutcome::Escaped:
                ++report.escaped;
                report.escapes.push_back(
                    FaultSite{sites[static_cast<std::size_t>(s / 2)],
                              (s % 2 == 0) ? FaultKind::FlipGateKind
                                           : FaultKind::TieFanins});
                break;
        }
    }
    return report;
}

}  // namespace gfr::verify
