// Workload opt_prove: opt::optimize with per-pass equivalence gates on
// Table V netlists, each result proved by acv::prove_multiplier, then
// algebraic proofs of the flat multiplier at the NIST ECDSA degrees.
//
// Threads are pinned to one everywhere the public API allows it
// (OptOptions::verify, ProveOptions).  OptOptions::algebraic_spec is left
// unset: that gate calls prove_multiplier with default options, which
// spawns one worker per hardware thread, so the benchmark applies the same
// proof itself, single-threaded, to every optimize result.
//
// The traced run rebuilds the optimize pipeline from opt::strash /
// rewrite_cuts / reduce_functional, netlist::synthesize and
// netlist::check_equivalence, and counts a netlist whose recomposed gate
// count differs from optimize's as a failure.

#include "harness.h"

#include "acv/acv.h"
#include "field/gf2m.h"
#include "gf2/pentanomial.h"
#include "multipliers/generator.h"
#include "netlist/clone.h"
#include "netlist/equivalence.h"
#include "netlist/passes.h"
#include "opt/opt.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using namespace gfr;

struct Input {
    mult::Method method;
    mult::Elaboration elaboration;
};

/// Optimized at every opt field: the flat family as literally written,
/// plus two other Table V families in their prescribed (shared) form — the
/// matrix-shared [2] and the parenthesised [7].
const std::vector<Input>& opt_inputs() {
    static const std::vector<Input> list = {
        {mult::Method::Date2018Flat, mult::Elaboration::Literal},
        {mult::Method::PaarMastrovito, mult::Elaboration::Shared},
        {mult::Method::Imana2016Paren, mult::Elaboration::Shared},
    };
    return list;
}

/// optimize() rebuilt from its public passes with a span per call; returns
/// the final gate count, or nullopt when a stage fails its equivalence gate.
std::optional<std::int64_t> recompose(const netlist::Netlist& nl, const opt::OptOptions& options,
                                      Trace& trace) {
    netlist::Netlist current = netlist::clone_netlist(nl, {.intern = false});
    bool ok = true;
    const auto commit = [&](netlist::Netlist&& candidate) {
        Trace::Span span{trace, "netlist.equivalence"};
        if (netlist::check_equivalence(current, candidate, options.verify)) {
            ok = false;
        }
        current = std::move(candidate);
    };
    const auto strash = [&] {
        netlist::Netlist next;
        {
            Trace::Span span{trace, "opt.strash"};
            next = opt::strash(current).netlist;
        }
        commit(std::move(next));
    };

    strash();
    if (current.protected_count() == 0) {
        netlist::SynthOptions grouped;
        grouped.flatten_anf = true;
        grouped.group_cones = true;
        grouped.extract_pairs = true;
        grouped.balance = true;
        netlist::SynthOptions extracted;
        extracted.flatten_anf = false;
        extracted.extract_pairs = true;
        extracted.balance = true;
        netlist::Netlist best;
        std::int64_t best_gates = -1;
        {
            Trace::Span span{trace, "opt.restructure"};
            for (const auto& synth : {grouped, extracted}) {
                netlist::Netlist candidate = netlist::synthesize(current, synth);
                const std::int64_t gates = candidate.stats().gates();
                if (best_gates < 0 || gates < best_gates) {
                    best = std::move(candidate);
                    best_gates = gates;
                }
            }
        }
        if (best_gates >= 0 && best_gates < current.stats().gates()) {
            commit(std::move(best));
        }
    }
    for (int round = 0; round < options.rewrite_rounds; ++round) {
        const std::int64_t before = current.stats().gates();
        netlist::Netlist next;
        {
            Trace::Span span{trace, "opt.rewrite"};
            next = opt::rewrite_cuts(current, options.rewrite).netlist;
        }
        const std::int64_t after = next.stats().gates();
        commit(std::move(next));
        if (after >= before) {
            break;
        }
    }
    {
        netlist::Netlist next;
        {
            Trace::Span span{trace, "opt.reduce"};
            next = opt::reduce_functional(current, options.reduction).netlist;
        }
        commit(std::move(next));
    }
    strash();
    if (!ok) {
        return std::nullopt;
    }
    return current.stats().gates();
}

class OptProve final : public Workload {
public:
    explicit OptProve(const Config& config) : config_{config} {
        // Six optimize runs and three NIST proofs keep a pass near 1.5 s on
        // one core, so every call is timed several times on each CPU of a
        // run (see CpuRotation in main.cpp); optimize at m = 163 and the
        // m = 571 proof would take 0.6-0.8 s a call.
        opt_specs_ = {{64, 23}, {113, 34}};
        // NIST ECDSA degrees with their first irreducible type II n.
        for (const int m : {233, 283, 409}) {
            nist_specs_.emplace_back(m, gf2::first_type2_irreducible(m)->n);
        }
        if (config.small) {
            opt_specs_.resize(1);
            nist_specs_.resize(1);
        }
        options_.verify.threads = 1;
        options_.verify.seed = mix_seed(config.seed, 1);
    }

    void setup(Trace& trace) override {
        std::vector<field::Field> opt_fields;
        std::vector<field::Field> nist_fields;
        {
            Trace::Span span{trace, "field.construct"};
            for (const auto& [m, n] : opt_specs_) {
                opt_fields.push_back(field::Field::type2(m, n));
            }
            for (const auto& [m, n] : nist_specs_) {
                nist_fields.push_back(field::Field::type2(m, n));
            }
        }
        opt_fields_ = std::move(opt_fields);
        nist_fields_ = std::move(nist_fields);
        screen_dispatch_ladders(trace);
    }

    void pass(Trace& trace, Tally& tally) override {
        double gates_total = 0;
        bool injected = false;
        for (const field::Field& f : opt_fields_) {
            for (const Input& input : opt_inputs()) {
                netlist::Netlist nl;
                {
                    WorkTimer work{tally};
                    Trace::Span span{trace, "multipliers.build"};
                    nl = mult::build_multiplier(input.method, f, input.elaboration);
                }
                trace.count("multipliers.gates", static_cast<double>(nl.stats().gates()));
                if (config_.inject == Inject::Netlist && !injected) {
                    injected = true;
                    nl = mutant(nl);
                }

                opt::OptResult result;
                try {
                    WorkTimer work{tally};
                    Trace::Span black_box{trace, "trace.black_box"};
                    result = opt::optimize(nl, options_);
                } catch (const opt::VerificationError&) {
                    tally.check(false);
                    continue;
                }
                tally.check(true);
                gates_total += static_cast<double>(result.gates_after());
                trace.count("opt.gates_removed",
                            static_cast<double>(result.gates_before() - result.gates_after()));

                if (trace.enabled()) {
                    std::optional<std::int64_t> gates;
                    {
                        Trace::Span span{trace, "trace.recomposed"};
                        gates = recompose(nl, options_, trace);
                    }
                    tally.check(gates && *gates == result.gates_after());
                }
                tally.check(prove(result.netlist, f, trace, tally));
            }
        }
        for (const field::Field& f : nist_fields_) {
            netlist::Netlist nl;
            {
                WorkTimer work{tally};
                Trace::Span span{trace, "multipliers.build"};
                nl = mult::build_multiplier(mult::Method::Date2018Flat, f);
            }
            trace.count("multipliers.gates", static_cast<double>(nl.stats().gates()));
            tally.check(prove(nl, f, trace, tally));
        }
        tally.circuit_size = gates_total;
        tally.figures["opt_gates_total"] = gates_total;
    }

private:
    static bool prove(const netlist::Netlist& nl, const field::Field& f, Trace& trace,
                      Tally& tally) {
        acv::ProofStats stats;
        std::optional<acv::ProofFailure> failure;
        {
            WorkTimer work{tally};
            Trace::Span span{trace, "acv.prove"};
            failure = acv::prove_multiplier(nl, f, {.threads = 1}, &stats);
        }
        trace.count("acv.expansion_events", static_cast<double>(stats.expansion_events));
        trace.peak("acv.peak_monomials", static_cast<double>(stats.peak_column_monomials));
        return !failure;
    }

    Config config_;
    std::vector<std::pair<int, int>> opt_specs_;
    std::vector<std::pair<int, int>> nist_specs_;
    opt::OptOptions options_;
    std::vector<field::Field> opt_fields_;
    std::vector<field::Field> nist_fields_;
};

}  // namespace

std::unique_ptr<Workload> make_opt_prove(const Config& config) {
    return std::make_unique<OptProve>(config);
}

}  // namespace perfbench
