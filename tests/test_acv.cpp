// Algebraic verification tier: backward rewriting proves every multiplier
// family for every Table V field with zero simulation, synthesizes real
// counterexamples for faulty netlists, keeps its verdict bit-identical at
// any thread count, and plugs into the verifier and optimizer seams.

#include "acv/acv.h"

#include "field/field_catalog.h"
#include "guard/parity_ced.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/simulate.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace gfr::acv {
namespace {

netlist::Netlist faulty_gf256_netlist(const field::Field& fld) {
    const auto good = mult::build_multiplier(mult::Method::Imana2012, fld);
    // Flip one reachable XOR to AND: a classic single-gate transcription
    // fault (also the mutation tier's bread and butter).
    bool flipped = false;
    return testutil::clone_netlist(
        good, [&](netlist::NodeId, netlist::GateKind& kind, netlist::NodeId&,
                  netlist::NodeId&) {
            if (!flipped && kind == netlist::GateKind::Xor2) {
                kind = netlist::GateKind::And2;
                flipped = true;
            }
        });
}

TEST(AcvProve, ProvesEveryFamilyOnPaperField) {
    const field::Field fld = field::gf256_paper_field();
    for (const auto& info : mult::all_methods()) {
        const auto nl = mult::build_multiplier(info.method, fld);
        ProofStats stats;
        const auto failure = prove_multiplier(nl, fld, {}, &stats);
        EXPECT_FALSE(failure.has_value())
            << info.display << ": " << failure->to_string();
        EXPECT_EQ(stats.columns, 8);
        // On success the extracted ANF IS the spec signature.
        EXPECT_EQ(stats.netlist_monomials, stats.spec_monomials);
        EXPECT_GT(stats.expansion_events, 0U);
    }
}

TEST(AcvProve, ProvesAllTableVFlatCells) {
    testutil::for_each_table5_field([&](const field::FieldSpec& spec,
                                        const field::Field& fld) {
        for (const auto& info : mult::all_methods()) {
            if (!info.in_table5) {
                continue;
            }
            const auto nl = mult::build_multiplier(info.method, fld);
            const auto failure = prove_multiplier(nl, fld);
            EXPECT_FALSE(failure.has_value())
                << spec.label() << " " << info.display << ": "
                << failure->to_string();
        }
        const auto literal = mult::build_multiplier(
            mult::Method::Date2018Flat, fld, mult::Elaboration::Literal);
        EXPECT_FALSE(prove_multiplier(literal, fld).has_value())
            << spec.label() << " date2018-raw";
    });
}

TEST(AcvProve, ProvesOptimizedNetlists) {
    const field::Field gf256 = field::gf256_paper_field();
    for (const auto& info : mult::all_methods()) {
        const auto nl = mult::build_multiplier(info.method, gf256);
        const auto optimized = opt::optimize(nl);
        EXPECT_FALSE(prove_multiplier(optimized.netlist, gf256).has_value())
            << info.display << " (optimized)";
    }
    const field::Field gf64 = field::Field::type2(64, 23);
    const auto literal = mult::build_multiplier(
        mult::Method::Date2018Flat, gf64, mult::Elaboration::Literal);
    const auto optimized = opt::optimize(literal);
    EXPECT_FALSE(prove_multiplier(optimized.netlist, gf64).has_value());
}

TEST(AcvProve, ProvesGuardedNetlistWithCheckerExcluded) {
    // CED-guarded netlists carry extra ced_err*/ced_alarm outputs, which the
    // simulation verifier rejects outright; the algebraic prover resolves
    // ports by name and simply never expands the checker lanes.
    for (const int m : {8, 64}) {
        const field::Field fld = m == 8 ? field::gf256_paper_field()
                                        : field::Field::type2(64, 23);
        auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
        guard::add_parity_ced(nl, fld);
        ASSERT_GT(nl.outputs().size(), static_cast<std::size_t>(m));
        EXPECT_THROW(static_cast<void>(mult::verify_multiplier(nl, fld)),
                     std::invalid_argument);
        EXPECT_FALSE(prove_multiplier(nl, fld).has_value());
    }
}

TEST(AcvProve, CatchesInjectedFaultWithValidWitness) {
    const field::Field fld = field::gf256_paper_field();
    const auto bad = faulty_gf256_netlist(fld);
    const auto failure = prove_multiplier(bad, fld);
    ASSERT_TRUE(failure.has_value());
    EXPECT_FALSE(failure->blowup);
    EXPECT_GT(failure->residual_monomials, 0U);

    // The witness was SYNTHESIZED from a residual monomial, never simulated.
    // Check it against both ground truths: the netlist disagrees with the
    // field engine on exactly the reported coefficient.
    std::vector<std::uint64_t> in(bad.inputs().size(), 0);
    for (int i = 0; i < 8; ++i) {
        if (failure->witness_a.coeff(i)) {
            in[static_cast<std::size_t>(bad.input_index("a" + std::to_string(i)))] = 1;
        }
        if (failure->witness_b.coeff(i)) {
            in[static_cast<std::size_t>(bad.input_index("b" + std::to_string(i)))] = 1;
        }
    }
    const auto out = netlist::simulate(bad, in);
    const bool simulated_bit =
        (out[static_cast<std::size_t>(failure->column)] & 1U) != 0;
    EXPECT_EQ(simulated_bit, failure->netlist_bit);
    EXPECT_EQ(fld.mul(failure->witness_a, failure->witness_b)
                  .coeff(failure->column),
              failure->reference_bit);
    EXPECT_NE(failure->netlist_bit, failure->reference_bit);
}

TEST(AcvProve, VerdictBitIdenticalAtAnyThreadCount) {
    const field::Field fld = field::Field::type2(64, 23);
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    bool flipped = false;
    const auto bad = testutil::clone_netlist(
        good, [&](netlist::NodeId, netlist::GateKind& kind, netlist::NodeId&,
                  netlist::NodeId&) {
            if (!flipped && kind == netlist::GateKind::Xor2) {
                kind = netlist::GateKind::And2;
                flipped = true;
            }
        });
    std::optional<std::string> baseline;
    for (const int threads : {1, 2, 4}) {
        ProveOptions options;
        options.threads = threads;
        const auto failure = prove_multiplier(bad, fld, options);
        ASSERT_TRUE(failure.has_value()) << "threads=" << threads;
        if (!baseline.has_value()) {
            baseline = failure->to_string();
        } else {
            EXPECT_EQ(*baseline, failure->to_string()) << "threads=" << threads;
        }
        EXPECT_FALSE(prove_multiplier(good, fld, options).has_value());
    }
}

TEST(AcvProve, PinnedFailureFormat) {
    ProofFailure mismatch;
    mismatch.column = 3;
    mismatch.residual_monomials = 2;
    mismatch.witness_a.set_coeff(2, true);
    mismatch.witness_b.set_coeff(1, true);
    mismatch.netlist_bit = false;
    mismatch.reference_bit = true;
    EXPECT_EQ(mismatch.to_string(),
              "c3 algebraic mismatch: residual=2 monomials, netlist=0 "
              "reference=1 for A=y^2, B=y [repro: algebraic column=3]");

    ProofFailure blowup;
    blowup.column = 0;
    blowup.blowup = true;
    blowup.residual_monomials = 4194305;
    blowup.monomial_cap = 4194304;
    EXPECT_EQ(blowup.to_string(),
              "c0 algebraic blowup: 4194305 monomials in flight "
              "[repro: algebraic column=0 cap=4194304]");
}

TEST(AcvProve, BlowupCapIsARejectionNeverAnAcceptance) {
    const field::Field fld = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    ProveOptions tiny;
    tiny.max_monomials = 64;  // far below what any m=64 column needs
    const auto failure = prove_multiplier(nl, fld, tiny);
    ASSERT_TRUE(failure.has_value());
    EXPECT_TRUE(failure->blowup);
    EXPECT_EQ(failure->monomial_cap, 64U);
    EXPECT_EQ(failure->column, 0);  // lowest column reported, like mismatches
}

TEST(AcvProve, WrongModulusIsAMismatchNotAThrow) {
    // A correct multiplier for the paper field, proved against the AES
    // modulus: same m, different f — the proof must reject it with a
    // counterexample, not error out.
    const field::Field paper = field::gf256_paper_field();
    const field::Field aes{gf2::Poly::from_exponents({8, 4, 3, 1, 0})};
    const auto nl = mult::build_multiplier(mult::Method::Imana2012, paper);
    const auto failure = prove_multiplier(nl, aes);
    ASSERT_TRUE(failure.has_value());
    EXPECT_FALSE(failure->blowup);
    EXPECT_EQ(aes.mul(failure->witness_a, failure->witness_b)
                  .coeff(failure->column),
              failure->reference_bit);
}

TEST(AcvProve, RejectsWrongInterface) {
    const field::Field gf256 = field::gf256_paper_field();
    const field::Field gf64 = field::Field::type2(64, 23);
    const auto nl = mult::build_multiplier(mult::Method::Imana2012, gf256);
    EXPECT_THROW(static_cast<void>(prove_multiplier(nl, gf64)),
                 std::invalid_argument);
}

TEST(AcvProve, AgreesWithTheSimulationCampaign) {
    // The proof and the exhaustive campaign are independent checks of the
    // same claim: both accept the correct netlist, both reject the faulty
    // one, and each counterexample disagrees with the field engine on the
    // coefficient it names.
    const field::Field fld = field::gf256_paper_field();
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    const auto bad = faulty_gf256_netlist(fld);

    EXPECT_FALSE(prove_multiplier(good, fld).has_value());
    EXPECT_FALSE(mult::verify_multiplier(good, fld).has_value());
    const auto proof = prove_multiplier(bad, fld);
    const auto campaign = mult::verify_multiplier(bad, fld);
    ASSERT_TRUE(proof.has_value());
    ASSERT_TRUE(campaign.has_value());
    EXPECT_NE(campaign->netlist_bit, campaign->reference_bit);
    EXPECT_EQ(fld.mul(campaign->a, campaign->b).coeff(campaign->coefficient),
              campaign->reference_bit);
}

TEST(AcvOptGate, AlgebraicPostGateReportsAndThrows) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);

    opt::OptOptions with_gate;
    with_gate.algebraic_spec = &fld;
    const auto result = opt::optimize(nl, with_gate);
    ASSERT_FALSE(result.passes.empty());
    EXPECT_EQ(result.passes.back().pass, "algebraic");
    EXPECT_TRUE(result.passes.back().verified);
    EXPECT_EQ(result.passes.back().gates_before,
              result.passes.back().gates_after);

    // The unsound rewrite with the per-pass equivalence campaign disabled:
    // only the algebraic post-gate stands between it and the caller.
    opt::OptOptions unsound;
    unsound.verify_each_pass = false;
    unsound.restructure = false;
    unsound.reduce = false;
    unsound.rewrite_rounds = 1;
    unsound.rewrite.unsound_for_test = true;
    unsound.algebraic_spec = &fld;
    try {
        static_cast<void>(opt::optimize(nl, unsound));
        FAIL() << "unsound rewrite escaped the algebraic gate";
    } catch (const opt::VerificationError& e) {
        EXPECT_EQ(e.pass(), "algebraic");
    }
}

TEST(AcvOptGate, AlgebraicPostGateFollowsTheVerifyThreadCount) {
    // The post-gate runs its column proofs on OptOptions::verify.threads
    // workers; verdicts and messages do not depend on the count.
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_date2018_flat(fld, mult::Elaboration::Literal);
    std::string message;
    for (const int threads : {1, 3}) {
        opt::OptOptions options;
        options.verify.threads = threads;
        options.algebraic_spec = &fld;
        const auto result = opt::optimize(nl, options);
        ASSERT_FALSE(result.passes.empty());
        EXPECT_EQ(result.passes.back().pass, "algebraic");
        EXPECT_TRUE(result.passes.back().verified);

        options.verify_each_pass = false;
        options.rewrite.unsound_for_test = true;
        try {
            static_cast<void>(opt::optimize(nl, options));
            FAIL() << "unsound rewrite escaped the algebraic gate at threads=" << threads;
        } catch (const opt::VerificationError& e) {
            EXPECT_EQ(e.pass(), "algebraic");
            if (message.empty()) {
                message = e.what();
            }
            EXPECT_EQ(message, e.what()) << "threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace gfr::acv
