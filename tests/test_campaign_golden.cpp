// Byte-for-byte pins of every simulation campaign's reported result.
//
// The multiplier verifier, the equivalence checker and the fault campaign
// all promise the same thing: the inputs of 64-lane block b are a pure
// function of (seed, b), and a failure is reported at its width-1 block
// index.  These cases pin the exact failure strings and fault reports of
// each campaign in each regime, at one and at four worker threads, so any
// change to how sweeps are scheduled, filled or collected that moves a
// counterexample, a repro coordinate or a per-site outcome fails here.

#include "field/field_catalog.h"
#include "guard/parity_ced.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/equivalence.h"
#include "verify/fault_campaign.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace gfr {
namespace {

using netlist::Netlist;
using netlist::NodeId;

constexpr int kThreadCounts[] = {1, 4};

/// AND of the inputs at `indices` (input order), built in `nl`.
NodeId conjunction(Netlist& nl, const std::vector<int>& indices) {
    NodeId acc = nl.inputs()[static_cast<std::size_t>(indices[0])].node;
    for (std::size_t k = 1; k < indices.size(); ++k) {
        acc = nl.make_and(acc, nl.inputs()[static_cast<std::size_t>(indices[k])].node);
    }
    return acc;
}

/// `good` with the AND of the inputs at `indices` XORed into output m/2:
/// wrong exactly on the assignments that set all of them, so the first
/// failure sits at a nonzero block and lane.
Netlist mutant(const Netlist& good, const std::vector<int>& indices) {
    const std::size_t target = good.outputs().size() / 2;
    return testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const NodeId> mapped, Netlist& dst) {
            return index == target ? dst.make_xor(mapped[index], conjunction(dst, indices))
                                   : mapped[index];
        });
}

/// Outputs y = XOR of x0..x(n-1) and z = x0 AND x(n-1), inputs declared in
/// `order`; a non-empty `flip` XORs the AND of those inputs (by name
/// index) into y.
Netlist parity(int n, const std::vector<int>& order, const std::vector<int>& flip = {}) {
    Netlist nl;
    std::vector<NodeId> by_name(static_cast<std::size_t>(n));
    for (const int i : order) {
        by_name[static_cast<std::size_t>(i)] = nl.add_input("x" + std::to_string(i));
    }
    NodeId y = nl.make_xor_tree(by_name, netlist::TreeShape::Chain);
    if (!flip.empty()) {
        NodeId acc = by_name[static_cast<std::size_t>(flip[0])];
        for (std::size_t k = 1; k < flip.size(); ++k) {
            acc = nl.make_and(acc, by_name[static_cast<std::size_t>(flip[k])]);
        }
        y = nl.make_xor(y, acc);
    }
    nl.add_output("y", y);
    nl.add_output("z", nl.make_and(by_name[0], by_name[static_cast<std::size_t>(n - 1)]));
    return nl;
}

std::vector<int> ascending(int n) {
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        order[static_cast<std::size_t>(i)] = i;
    }
    return order;
}

std::vector<int> descending(int n) {
    std::vector<int> order = ascending(n);
    std::reverse(order.begin(), order.end());
    return order;
}

std::string verify_string(const Netlist& nl, const field::Field& f, int threads) {
    mult::VerifyOptions options;
    options.threads = threads;
    const auto failure = mult::verify_multiplier(nl, f, options);
    return failure.has_value() ? failure->to_string() : "pass";
}

std::string equivalence_string(const Netlist& lhs, const Netlist& rhs, int threads) {
    netlist::EquivalenceOptions options;
    options.threads = threads;
    const auto mm = netlist::check_equivalence(lhs, rhs, options);
    return mm.has_value() ? mm->to_string() : "equivalent";
}

std::string fault_string(const Netlist& nl, std::span<const NodeId> sites,
                         std::size_t n_function, std::size_t alarm,
                         verify::FaultCampaignOptions options, int threads) {
    options.campaign.threads = threads;
    options.campaign.min_sweeps_per_worker = 1;
    const auto report = verify::run_fault_campaign(nl, sites, n_function, alarm, options);
    std::string out = report.to_string() + ";";
    for (const auto& e : report.escapes) {
        out += " " + e.to_string();
    }
    return out;
}

/// Every And2/Xor2 node: guarded designs include the checker and, for
/// conditional families, gates the CED does not cover — so escapes occur.
std::vector<NodeId> every_gate(const Netlist& nl) {
    std::vector<NodeId> sites;
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        const auto kind = nl.node(id).kind;
        if (kind == netlist::GateKind::And2 || kind == netlist::GateKind::Xor2) {
            sites.push_back(id);
        }
    }
    return sites;
}

std::size_t alarm_of(const Netlist& nl) {
    return static_cast<std::size_t>(nl.output_index(guard::kCedAlarmOutput));
}

TEST(CampaignGolden, VerifyExhaustiveGf256Mutant) {
    const field::Field f = field::gf256_paper_field();
    // a5 AND a7 AND b7: lane 32 of block 514.
    const Netlist bad =
        mutant(mult::build_multiplier(mult::Method::Imana2012, f), {5, 7, 15});
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(verify_string(bad, f, threads),
                  "c4 mismatch: netlist=0 reference=1 for A=y^7 + y^5, B=y^7 [repro:"
                  " exhaustive sweep=514]")
            << threads << " threads";
    }
}

TEST(CampaignGolden, VerifyRandomGf2163Mutant) {
    const field::Field f = field::Field::type2(163, 68);
    // Ten operand bits must all be set: about one lane in 1024.
    const Netlist bad = mutant(mult::build_multiplier(mult::Method::Date2018Flat, f),
                               {1, 20, 40, 60, 80, 100, 170, 200, 250, 300});
    const std::string expected =
        "c81 mismatch: netlist=1 reference=0 for A=y^162 + y^161 + y^160 +"
        " y^157 + y^156 + y^155 + y^152 + y^149 + y^148 + y^147 + y^142 + y^139"
        " + y^135 + y^132 + y^131 + y^125 + y^124 + y^123 + y^122 + y^120 +"
        " y^117 + y^116 + y^115 + y^114 + y^112 + y^111 + y^106 + y^104 + y^102"
        " + y^100 + y^98 + y^95 + y^94 + y^93 + y^91 + y^89 + y^88 + y^84 +"
        " y^80 + y^79 + y^73 + y^71 + y^69 + y^63 + y^62 + y^61 + y^60 + y^59 +"
        " y^57 + y^55 + y^52 + y^51 + y^50 + y^44 + y^41 + y^40 + y^35 + y^30 +"
        " y^29 + y^26 + y^25 + y^24 + y^23 + y^20 + y^19 + y^18 + y^17 + y^15 +"
        " y^11 + y^9 + y^6 + y^4 + y^3 + y, B=y^162 + y^159 + y^157 + y^150 +"
        " y^149 + y^145 + y^141 + y^139 + y^137 + y^135 + y^134 + y^129 + y^128"
        " + y^127 + y^126 + y^123 + y^121 + y^119 + y^117 + y^116 + y^115 +"
        " y^113 + y^112 + y^111 + y^109 + y^103 + y^102 + y^100 + y^99 + y^98 +"
        " y^97 + y^92 + y^90 + y^89 + y^87 + y^82 + y^81 + y^80 + y^76 + y^75 +"
        " y^74 + y^70 + y^67 + y^66 + y^62 + y^60 + y^59 + y^57 + y^54 + y^53 +"
        " y^51 + y^49 + y^48 + y^40 + y^39 + y^37 + y^36 + y^35 + y^34 + y^32 +"
        " y^30 + y^29 + y^27 + y^25 + y^24 + y^23 + y^22 + y^15 + y^14 + y^13 +"
        " y^12 + y^8 + y^7 + y^6 + 1 [repro: seed=0xd1ce sweep=13"
        " sweep_seed=0x8c989ff79a557f0a]";
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(verify_string(bad, f, threads), expected) << threads << " threads";
    }
}

TEST(CampaignGolden, EquivalenceExhaustiveMismatch) {
    const field::Field f = field::gf256_paper_field();
    const Netlist good = mult::build_multiplier(mult::Method::Imana2016Paren, f);
    const Netlist bad = mutant(good, {3, 9, 14});
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(equivalence_string(good, bad, threads),
                  "output 'c4': lhs=0 rhs=1 inputs=a0=0 a1=0 a2=0 a3=1 a4=0 a5=0 a6=0"
                  " a7=0 b0=0 b1=1 b2=0 b3=0 b4=0 b5=0 b6=1 b7=0 [repro: exhaustive"
                  " sweep=264]")
            << threads << " threads";
    }
}

TEST(CampaignGolden, EquivalenceRandomMismatch) {
    // 30 inputs: past the exhaustive limit.  The sides differ on one
    // assignment in 1024.
    const Netlist lhs = parity(30, ascending(30));
    const Netlist rhs = parity(30, ascending(30), {2, 5, 8, 11, 14, 17, 20, 23, 26, 29});
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(equivalence_string(lhs, rhs, threads),
                  "output 'y': lhs=1 rhs=0 inputs=x0=0 x1=0 x2=1 x3=0 x4=1 x5=1 x6=0 x7=0"
                  " x8=1 x9=1 x10=0 x11=1 x12=1 x13=0 x14=1 x15=0 x16=1 x17=1 x18=0 x19=0"
                  " x20=1 x21=1 x22=0 x23=1 x24=1 x25=1 x26=1 x27=0 x28=0 x29=1 [repro:"
                  " seed=0x5eed5eed sweep=3 sweep_seed=0x4c3ccdd91b0a09ce]")
            << threads << " threads";
    }
}

TEST(CampaignGolden, EquivalencePermutedPortsMismatch) {
    // rhs declares its inputs in reverse order, so every block is filled
    // through the name-matched port map — exhaustive and random regimes.
    for (const int n : {10, 28}) {
        const Netlist lhs = parity(n, ascending(n));
        const Netlist rhs =
            parity(n, descending(n), {1, n - 1, n - 2, n - 3, n - 5, n - 8, n - 9});
        const std::string expected =
            n == 10 ? "output 'y': lhs=0 rhs=1 inputs=x0=0 x1=1 x2=1 x3=0 x4=0 x5=1 x6=0 x7=1"
                      " x8=1 x9=1 [repro: exhaustive sweep=14]"
                    : "output 'y': lhs=0 rhs=1 inputs=x0=1 x1=1 x2=0 x3=1 x4=0 x5=1 x6=1 x7=0"
                      " x8=1 x9=0 x10=0 x11=1 x12=1 x13=0 x14=0 x15=0 x16=1 x17=0 x18=0 x19=1"
                      " x20=1 x21=0 x22=1 x23=1 x24=0 x25=1 x26=1 x27=1 [repro:"
                      " seed=0x5eed5eed sweep=4 sweep_seed=0xfeb64a88e7f3d88]";
        for (const int threads : kThreadCounts) {
            EXPECT_EQ(equivalence_string(lhs, rhs, threads), expected)
                << n << " inputs, " << threads << " threads";
        }
    }
}

TEST(CampaignGolden, FaultCampaignGuardedGf256Exhaustive) {
    const field::Field f = field::table5_fields()[0].make();
    Netlist flat = mult::build_date2018_flat(f);
    const auto info = guard::add_parity_ced(flat, f);
    Netlist reyhani = mult::build_reyhani_hasan(f);
    static_cast<void>(guard::add_parity_ced(reyhani, f));
    const std::vector<NodeId> reyhani_sites = every_gate(reyhani);
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(fault_string(flat, info.covered_sites, 8, alarm_of(flat), {}, threads),
                  "fault campaign: 304 injections: 304 detected, 0 benign, 0 escaped;")
            << threads << " threads";
        EXPECT_EQ(fault_string(reyhani, reyhani_sites, 8, alarm_of(reyhani), {}, threads),
                  "fault campaign: 392 injections: 246 detected, 110 benign, 36 escaped;"
                  " flip-gate-kind@node25 tie-fanins@node25 flip-gate-kind@node26"
                  " tie-fanins@node26 flip-gate-kind@node27 tie-fanins@node27"
                  " flip-gate-kind@node36 tie-fanins@node36 flip-gate-kind@node37"
                  " tie-fanins@node37 flip-gate-kind@node38 tie-fanins@node38"
                  " flip-gate-kind@node47 tie-fanins@node47 flip-gate-kind@node48"
                  " tie-fanins@node48 flip-gate-kind@node49 tie-fanins@node49"
                  " flip-gate-kind@node58 tie-fanins@node58 flip-gate-kind@node59"
                  " tie-fanins@node59 flip-gate-kind@node60 tie-fanins@node60"
                  " flip-gate-kind@node69 tie-fanins@node69 flip-gate-kind@node70"
                  " tie-fanins@node70 flip-gate-kind@node71 tie-fanins@node71"
                  " flip-gate-kind@node80 tie-fanins@node80 flip-gate-kind@node81"
                  " tie-fanins@node81 flip-gate-kind@node82 tie-fanins@node82")
            << threads << " threads";
    }
}

TEST(CampaignGolden, FaultCampaignBelowOneBlock) {
    // Four inputs: 16 assignments, fewer than the 64 lanes of one block.
    // The GF(2^2) multiplier guarded by the CED pass, and a hand-made cell
    // whose "alarm" watches only one of its two outputs, so faults escape.
    const field::Field f{gf2::Poly::from_exponents({2, 1, 0})};
    Netlist guarded = mult::build_multiplier(mult::Method::SchoolReduce, f);
    static_cast<void>(guard::add_parity_ced(guarded, f));
    ASSERT_EQ(guarded.inputs().size(), 4U);

    // alarm = y0 XOR ((a AND b) XOR c) XOR d shares the AND with y0 and
    // ignores y1: faults there escape, faults in c XOR d or y0 are caught,
    // faults in the predictor only alarm (benign).
    Netlist cell;
    const NodeId a = cell.add_input("a");
    const NodeId b = cell.add_input("b");
    const NodeId c = cell.add_input("c");
    const NodeId d = cell.add_input("d");
    const NodeId ab = cell.make_and(a, b);
    const NodeId cd = cell.make_xor(c, d);
    const NodeId y0 = cell.make_xor(ab, cd);
    cell.add_output("y0", y0);
    cell.add_output("y1", cell.make_and(cd, a));
    cell.add_output("alarm",
                    cell.make_xor(y0, cell.make_xor(cell.make_xor(ab, c), d)));
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(fault_string(guarded, every_gate(guarded), 2, alarm_of(guarded), {},
                               threads),
                  "fault campaign: 40 injections: 14 detected, 26 benign, 0 escaped;")
            << threads << " threads";
        EXPECT_EQ(fault_string(cell, every_gate(cell), 2, 2, {}, threads),
                  "fault campaign: 14 injections: 4 detected, 6 benign, 4 escaped;"
                  " flip-gate-kind@node4 tie-fanins@node4 flip-gate-kind@node7"
                  " tie-fanins@node7")
            << threads << " threads";
    }
}

TEST(CampaignGolden, FaultCampaignRandomRegimeGf64) {
    const field::Field f = field::table5_fields()[1].make();
    Netlist nl = mult::build_date2018_flat(f);
    static_cast<void>(guard::add_parity_ced(nl, f));
    const std::vector<NodeId> all = every_gate(nl);
    std::vector<NodeId> sites;
    for (std::size_t i = 0; i < all.size(); i += all.size() / 16) {
        sites.push_back(all[i]);
    }
    verify::FaultCampaignOptions options;
    options.random_blocks = 8;
    for (const int threads : kThreadCounts) {
        EXPECT_EQ(fault_string(nl, sites, 64, alarm_of(nl), options, threads),
                  "fault campaign: 34 injections: 16 detected, 18 benign, 0 escaped;")
            << threads << " threads";
    }
}

}  // namespace
}  // namespace gfr
