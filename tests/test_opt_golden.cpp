// Pinned quality of results for the optimizer and the algebraic prover.
// The cut rewriter, the functional reduction and the backward-rewriting
// prover may only get faster: no decision of theirs may change.  So any
// drift here (one gate, one node id, one node_map entry, one expansion
// event) is a regression, not noise.

#include "acv/acv.h"
#include "field/gf2m.h"
#include "gf2/pentanomial.h"
#include "multipliers/generator.h"
#include "opt/opt.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gfr::opt {
namespace {

using mult::Elaboration;
using mult::Method;
using netlist::Netlist;
using netlist::NodeId;

/// FNV-1a over every node (kind, fanins, protected mark), every output
/// (name, driver) and the old-id -> new-id map, in order.
std::uint64_t fingerprint(const Netlist& nl, const std::vector<NodeId>& node_map) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xFFU;
            h *= 0x100000001b3ULL;
        }
    };
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        const auto& node = nl.node(id);
        mix(static_cast<std::uint8_t>(node.kind), 1);
        mix(node.a, 4);
        mix(node.b, 4);
        mix(nl.is_protected(id) ? 1 : 0, 1);
    }
    for (const auto& port : nl.outputs()) {
        for (const char c : port.name) {
            mix(static_cast<unsigned char>(c), 1);
        }
        mix(port.node, 4);
    }
    for (const NodeId v : node_map) {
        mix(v, 4);
    }
    return h;
}

struct Input {
    const char* name;
    int m;
    int n;
    Method method;
    Elaboration elaboration;
    bool strashed;  ///< fed through opt::strash before the pinned passes
};

constexpr Input kInputs[] = {
    {"date2018-raw", 64, 23, Method::Date2018Flat, Elaboration::Literal, false},
    {"date2018-raw", 64, 23, Method::Date2018Flat, Elaboration::Literal, true},
    {"paar", 64, 23, Method::PaarMastrovito, Elaboration::Shared, false},
    {"paar", 64, 23, Method::PaarMastrovito, Elaboration::Shared, true},
    {"imana2016", 64, 23, Method::Imana2016Paren, Elaboration::Shared, false},
    {"imana2016", 64, 23, Method::Imana2016Paren, Elaboration::Shared, true},
    {"date2018-raw", 113, 34, Method::Date2018Flat, Elaboration::Literal, false},
    {"date2018-raw", 113, 34, Method::Date2018Flat, Elaboration::Literal, true},
    {"paar", 113, 34, Method::PaarMastrovito, Elaboration::Shared, false},
    {"paar", 113, 34, Method::PaarMastrovito, Elaboration::Shared, true},
    {"imana2016", 113, 34, Method::Imana2016Paren, Elaboration::Shared, false},
    {"imana2016", 113, 34, Method::Imana2016Paren, Elaboration::Shared, true},
};
constexpr std::size_t kInputCount = sizeof(kInputs) / sizeof(kInputs[0]);

Netlist build(const Input& in) {
    const field::Field fld = field::Field::type2(in.m, in.n);
    Netlist nl = mult::build_multiplier(in.method, fld, in.elaboration);
    return in.strashed ? strash(nl).netlist : nl;
}

std::string label(const Input& in) {
    return std::string{in.name} + " (" + std::to_string(in.m) + "," +
           std::to_string(in.n) + ")" + (in.strashed ? " strashed" : " raw");
}

/// optimize()'s per-pass record as "pass:gates_after" joined by spaces,
/// led by the input gate count.
constexpr const char* kOptimizeGolden[kInputCount] = {
    "15053 strash:8655 restructure:8322 rewrite:8322 reduce:8322 sweep:8322",
    "8655 strash:8655 restructure:8322 rewrite:8322 reduce:8322 sweep:8322",
    "8584 strash:8584 rewrite:8558 rewrite:8558 reduce:8558 sweep:8558",
    "8584 strash:8584 rewrite:8558 rewrite:8558 reduce:8558 sweep:8558",
    "8806 strash:8806 restructure:8322 rewrite:8322 reduce:8322 sweep:8322",
    "8806 strash:8806 restructure:8322 rewrite:8322 reduce:8322 sweep:8322",
    "46265 strash:26351 restructure:25757 rewrite:25757 reduce:25757 sweep:25757",
    "26351 strash:26351 restructure:25757 rewrite:25757 reduce:25757 sweep:25757",
    "26176 strash:26176 rewrite:26139 rewrite:26139 reduce:26139 sweep:26139",
    "26176 strash:26176 rewrite:26139 rewrite:26139 reduce:26139 sweep:26139",
    "26734 strash:26734 restructure:25757 rewrite:25757 reduce:25757 sweep:25757",
    "26734 strash:26734 restructure:25757 rewrite:25757 reduce:25757 sweep:25757",
};

TEST(OptGolden, OptimizePassGateCountsArePinned) {
    for (std::size_t i = 0; i < kInputCount; ++i) {
        const Netlist nl = build(kInputs[i]);
        const OptResult r = optimize(nl);
        std::string got = std::to_string(r.gates_before());
        for (const auto& pass : r.passes) {
            EXPECT_TRUE(pass.verified) << label(kInputs[i]) << " " << pass.pass;
            got += " " + pass.pass + ":" + std::to_string(pass.gates_after);
        }
        EXPECT_EQ(got, kOptimizeGolden[i]) << label(kInputs[i]);
    }
}

/// Fingerprints of rewrite_cuts on the input, rewrite_cuts on that result,
/// and reduce_functional on the second round's result.
struct PassGolden {
    std::uint64_t rewrite1;
    std::uint64_t rewrite2;
    std::uint64_t reduce;
};

constexpr PassGolden kPassGolden[kInputCount] = {
    {0x7cabebeb1b9f91e7ULL, 0x401601e653dd7acdULL, 0xc8509ed751a7a396ULL},
    {0xceb0ceffc9e84bb0ULL, 0x4caf9fdc0fe299e0ULL, 0x4caf9fdc0fe299e0ULL},
    {0x6a9ecb6fa7e04679ULL, 0x1afebf7cd5821199ULL, 0x1afebf7cd5821199ULL},
    {0x6a9ecb6fa7e04679ULL, 0x1afebf7cd5821199ULL, 0x1afebf7cd5821199ULL},
    {0xc5616dcf4cb6094bULL, 0xc5616dcf4cb6094bULL, 0xc5616dcf4cb6094bULL},
    {0xc5616dcf4cb6094bULL, 0xc5616dcf4cb6094bULL, 0xc5616dcf4cb6094bULL},
    {0xe06f31fc1aa9ef31ULL, 0x5cfce11a3b08fa43ULL, 0xfda3bdd2ea63620bULL},
    {0x1517e174ee43df72ULL, 0x3bdb45017116b94dULL, 0x3bdb45017116b94dULL},
    {0xca9db20dedce2c26ULL, 0xe38bb174f0f91302ULL, 0xe38bb174f0f91302ULL},
    {0xca9db20dedce2c26ULL, 0xe38bb174f0f91302ULL, 0xe38bb174f0f91302ULL},
    {0x8c08c21139e86094ULL, 0x8c08c21139e86094ULL, 0x8c08c21139e86094ULL},
    {0x8c08c21139e86094ULL, 0x8c08c21139e86094ULL, 0x8c08c21139e86094ULL},
};

TEST(OptGolden, RewriteAndReduceOutputsArePinned) {
    for (std::size_t i = 0; i < kInputCount; ++i) {
        const Netlist nl = build(kInputs[i]);
        const PassResult r1 = rewrite_cuts(nl);
        const PassResult r2 = rewrite_cuts(r1.netlist);
        const PassResult r3 = reduce_functional(r2.netlist);
        EXPECT_EQ(fingerprint(r1.netlist, r1.node_map), kPassGolden[i].rewrite1)
            << label(kInputs[i]) << " rewrite round 1";
        EXPECT_EQ(fingerprint(r2.netlist, r2.node_map), kPassGolden[i].rewrite2)
            << label(kInputs[i]) << " rewrite round 2";
        EXPECT_EQ(fingerprint(r3.netlist, r3.node_map), kPassGolden[i].reduce)
            << label(kInputs[i]) << " reduce";
    }
}

void expect_proof_stats(const Netlist& nl, const field::Field& fld,
                        std::size_t expansion_events, std::size_t peak_column_monomials,
                        std::size_t netlist_monomials, const std::string& what) {
    acv::ProofStats stats;
    EXPECT_FALSE(acv::prove_multiplier(nl, fld, {}, &stats)) << what;
    EXPECT_EQ(stats.expansion_events, expansion_events) << what;
    EXPECT_EQ(stats.peak_column_monomials, peak_column_monomials) << what;
    EXPECT_EQ(stats.netlist_monomials, netlist_monomials) << what;
    EXPECT_EQ(stats.netlist_monomials, stats.spec_monomials) << what;
}

TEST(AcvGolden, ProofStatsArePinned) {
    const int m = 233;
    const field::Field nist = field::Field::type2(m, gf2::first_type2_irreducible(m)->n);
    expect_proof_stats(mult::build_multiplier(Method::Date2018Flat, nist), nist, 280319, 1091, 140276,
                       "flat NIST m=233");

    const field::Field secg = field::Field::type2(113, 34);
    const OptResult opt = optimize(
        mult::build_multiplier(Method::Date2018Flat, secg, Elaboration::Literal));
    expect_proof_stats(opt.netlist, secg, 67105, 545, 33609, "optimized date2018-raw (113,34)");
}

}  // namespace
}  // namespace gfr::opt
