// The campaign-gated pipeline: strash -> restructure -> rewrite rounds ->
// functional reduction -> final strash.  After every stage the candidate is
// checked for combinational equivalence against the stage's input; a
// failing stage throws VerificationError and its output is discarded, so
// nothing downstream (mappers, emitters, reports, guards) ever consumes an
// unverified netlist.

#include "opt/opt.h"

#include "acv/acv.h"
#include "netlist/clone.h"
#include "netlist/equivalence.h"
#include "netlist/passes.h"

#include <optional>
#include <utility>
#include <vector>

namespace gfr::opt {

using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

namespace {

std::vector<NodeId> compose_maps(const std::vector<NodeId>& first,
                                 const std::vector<NodeId>& second) {
    std::vector<NodeId> out(first.size(), kInvalidNode);
    for (std::size_t i = 0; i < first.size(); ++i) {
        const NodeId mid = first[i];
        if (mid != kInvalidNode && mid < second.size()) {
            out[i] = second[mid];
        }
    }
    return out;
}

}  // namespace

OptResult optimize(const Netlist& nl, const OptOptions& options) {
    OptResult result;
    // Verbatim replica: 1:1 node ids seed the composed map, and guarded
    // inputs must not have their fresh checker gates re-interned here.
    result.netlist = netlist::clone_netlist(nl, {.intern = false});
    result.node_map.resize(nl.node_count());
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        result.node_map[id] = id;
    }
    result.node_map_valid = true;

    // Run one stage: verify candidate against the current netlist, record
    // the report, and commit.  `map` is the stage's old->new map, or empty
    // when the stage cannot produce one (restructure).
    const auto commit = [&](const char* name, Netlist&& candidate,
                            std::vector<NodeId>&& map) {
        PassReport report;
        report.pass = name;
        const auto before = result.netlist.stats();
        const auto after = candidate.stats();
        report.gates_before = before.gates();
        report.gates_after = after.gates();
        report.xor_depth_before = before.xor_depth;
        report.xor_depth_after = after.xor_depth;
        if (options.verify_each_pass) {
            const auto mismatch =
                netlist::check_equivalence(result.netlist, candidate,
                                           options.verify);
            if (mismatch) {
                throw VerificationError(name, mismatch->to_string());
            }
            report.verified = true;
        }
        if (map.empty()) {
            result.node_map_valid = false;
        } else if (result.node_map_valid) {
            result.node_map = compose_maps(result.node_map, map);
        }
        result.netlist = std::move(candidate);
        result.passes.push_back(std::move(report));
    };

    if (options.strash) {
        PassResult r = strash(result.netlist);
        commit("strash", std::move(r.netlist), std::move(r.node_map));
    }

    if (options.restructure && result.netlist.protected_count() == 0) {
        // Global XOR restructuring via the synthesis passes: best-of over
        // two strategies (ANF regrouping by output signature, and plain
        // fast-extract), mirroring the FPGA flow's strategy search.  These
        // rebuild from flattened equations, so no node map survives; they
        // are skipped entirely on guarded netlists (protected gates).
        netlist::SynthOptions grouped;
        grouped.flatten_anf = true;
        grouped.group_cones = true;
        grouped.extract_pairs = true;
        grouped.balance = true;
        netlist::SynthOptions extracted;
        extracted.flatten_anf = false;
        extracted.extract_pairs = true;
        extracted.balance = true;

        Netlist best;
        std::int64_t best_gates = -1;
        for (const auto& synth : {grouped, extracted}) {
            Netlist candidate = netlist::synthesize(result.netlist, synth);
            const std::int64_t gates = candidate.stats().gates();
            if (best_gates < 0 || gates < best_gates) {
                best = std::move(candidate);
                best_gates = gates;
            }
        }
        if (best_gates >= 0 && best_gates < result.netlist.stats().gates()) {
            commit("restructure", std::move(best), {});
        }
    }

    for (int round = 0; round < options.rewrite_rounds; ++round) {
        const std::int64_t before = result.netlist.stats().gates();
        PassResult r = rewrite_cuts(result.netlist, options.rewrite);
        const std::int64_t after = r.netlist.stats().gates();
        // Commit even a non-improving round: the result must still pass
        // through the equivalence gate (this is what catches the
        // unsound_for_test hook, whose "rewrite" never improves anything).
        commit("rewrite", std::move(r.netlist), std::move(r.node_map));
        if (after >= before) {
            break;
        }
    }

    if (options.reduce) {
        PassResult r = reduce_functional(result.netlist, options.reduction);
        commit("reduce", std::move(r.netlist), std::move(r.node_map));
    }

    if (options.strash) {
        PassResult r = strash(result.netlist);
        commit("sweep", std::move(r.netlist), std::move(r.node_map));
    }

    if (options.algebraic_spec != nullptr) {
        // End-to-end algebraic gate: prove the PIPELINE OUTPUT computes
        // A*B mod f, independent of the pass-by-pass equivalence chain.  A
        // chain of equivalences anchors to the input netlist; this anchors
        // to the spec itself, so it also catches a wrong netlist fed in.
        PassReport report;
        report.pass = "algebraic";
        const auto stats = result.netlist.stats();
        report.gates_before = report.gates_after = stats.gates();
        report.xor_depth_before = report.xor_depth_after = stats.xor_depth;
        if (const auto failure = acv::prove_multiplier(
                result.netlist, *options.algebraic_spec,
                {.threads = options.verify.threads})) {
            throw VerificationError("algebraic", failure->to_string());
        }
        report.verified = true;
        result.passes.push_back(std::move(report));
    }

    return result;
}

}  // namespace gfr::opt
