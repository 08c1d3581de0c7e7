#include "fpga/flow.h"

#include <utility>
#include <vector>

namespace gfr::fpga {

namespace {

FlowResult map_and_measure(const netlist::Netlist& prepared, const FlowOptions& options) {
    FlowResult result;
    result.gate_stats = prepared.stats();
    result.network = map_to_luts(prepared, options.mapper);
    result.luts = result.network.lut_count();
    result.lut_depth = result.network.depth();
    result.slices = pack_slices(result.network, options.slices).n_slices;
    result.delay_ns = critical_path_ns(result.network, options.timing);
    result.area_time = result.luts * result.delay_ns;
    return result;
}

}  // namespace

std::span<const netlist::SynthOptions> synthesis_strategies() {
    static const std::vector<netlist::SynthOptions> strategies = {
        {.flatten_anf = false, .group_cones = false, .extract_pairs = false,
         .balance = false},  // as-given
        {.flatten_anf = false, .group_cones = false, .extract_pairs = false,
         .balance = true},   // depth-aware balance
        {.flatten_anf = false, .group_cones = false, .extract_pairs = true,
         .balance = true},   // pair CSE + balance
        {.flatten_anf = false, .group_cones = true, .extract_pairs = false,
         .balance = true},   // signature grouping, LUT-aware trees
        {.flatten_anf = true, .group_cones = false, .extract_pairs = false,
         .balance = true},   // per-output flat ANF, LUT-aware trees
        {.flatten_anf = false, .group_cones = true, .extract_pairs = true,
         .cse_min_count = 3, .balance = true},  // grouping + strongly-shared pairs
    };
    return strategies;
}

FlowResult run_flow(const netlist::Netlist& nl, const FlowOptions& options) {
    if (options.optimize) {
        // Optimize once up front (verified pass by pass), then re-enter the
        // flow with the optimized netlist as the new source structure.
        opt::OptResult optimized = opt::optimize(nl, options.opt);
        FlowOptions rest = options;
        rest.optimize = false;
        return run_flow(optimized.netlist, rest);
    }
    if (!options.synthesis_freedom) {
        // Source structure is authoritative: the netlist is mapped exactly as
        // written.  The tool still chooses whether shared signals stay hard
        // LUT boundaries or may be duplicated into consumers; we grant it the
        // better of the two, but never any restructuring.
        const netlist::Netlist cleaned = netlist::dce(nl);
        FlowOptions bounded = options;
        bounded.mapper.respect_fanout_boundaries = true;
        FlowOptions duplicating = options;
        duplicating.mapper.respect_fanout_boundaries = false;
        FlowResult a = map_and_measure(cleaned, bounded);
        FlowResult b = map_and_measure(cleaned, duplicating);
        return (a.area_time <= b.area_time) ? std::move(a) : std::move(b);
    }
    if (!options.strategy_search) {
        return map_and_measure(netlist::synthesize(nl, options.synth), options);
    }
    // Strategy search: the synthesiser is free, so it evaluates several
    // restructurings and keeps whichever maps best.
    FlowResult best;
    bool first = true;
    for (const auto& synth : synthesis_strategies()) {
        FlowResult candidate =
            map_and_measure(netlist::synthesize(nl, synth), options);
        if (first || candidate.area_time < best.area_time) {
            best = std::move(candidate);
            first = false;
        }
    }
    return best;
}

}  // namespace gfr::fpga
