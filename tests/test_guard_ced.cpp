// Parity-predicted CED netlists (guard/add_parity_ced): clean circuits
// never alarm, and the fault-injection campaign (verify/fault_campaign)
// detects 100% of single gate faults at every covered site.

#include "exec/program.h"
#include "field/field_catalog.h"
#include "guard/parity_ced.h"
#include "multipliers/generator.h"
#include "netlist/clone.h"
#include "netlist/equivalence.h"
#include "verify/campaign.h"
#include "verify/fault_campaign.h"

#include <gtest/gtest.h>

#include <vector>

namespace gfr {
namespace {

using netlist::Netlist;

/// Simulate `guarded` over exhaustive (2m <= 16) or seeded random vectors
/// and require every CED output (index >= n_function) to be zero on all of
/// them — the zero-false-alarm property.  The blocks come from the same
/// verify::BlockSchedule every campaign draws its inputs from.
void expect_no_false_alarms(const Netlist& guarded, int n_function,
                            std::uint64_t random_blocks = 32) {
    const int n_in = static_cast<int>(guarded.inputs().size());
    const int n_out = static_cast<int>(guarded.outputs().size());
    const exec::Program prog = exec::Program::compile(guarded);
    exec::Program::Scratch scratch;
    const auto schedule = verify::BlockSchedule::over(n_in, 16, random_blocks, 0xC1EA4ULL, 1);
    std::vector<std::uint64_t> in(static_cast<std::size_t>(n_in));
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n_out));
    for (std::uint64_t b = 0; b < schedule.grouping.total_blocks; ++b) {
        schedule.fill(b, 1, in.data());
        prog.run(in, out, scratch);
        for (int o = n_function; o < n_out; ++o) {
            ASSERT_EQ(out[static_cast<std::size_t>(o)], 0U)
                << "CED output " << guarded.outputs()[static_cast<std::size_t>(o)].name
                << " raised on a clean circuit (block " << b << ")";
        }
    }
}

TEST(GuardCed, FalseAlarmSweepCoversEveryAssignment) {
    // expect_no_false_alarms' schedule at 2m <= 16 visits every input
    // assignment (exactly once from six inputs up; below six the one
    // block's 64 lanes repeat them), and samples above that.
    for (const int n_in : {3, 6, 9, 16}) {
        const auto schedule = verify::BlockSchedule::over(n_in, 16, 32, 0xC1EA4ULL, 1);
        ASSERT_TRUE(schedule.exhaustive) << n_in;
        std::vector<int> seen(std::size_t{1} << n_in, 0);
        std::vector<std::uint64_t> in(static_cast<std::size_t>(n_in));
        for (std::uint64_t b = 0; b < schedule.grouping.total_blocks; ++b) {
            schedule.fill(b, 1, in.data());
            for (int lane = 0; lane < 64; ++lane) {
                std::size_t assignment = 0;
                for (int i = 0; i < n_in; ++i) {
                    assignment |= ((in[static_cast<std::size_t>(i)] >> lane) & 1U) << i;
                }
                ++seen[assignment];
            }
        }
        for (const int count : seen) {
            ASSERT_EQ(count, n_in >= 6 ? 1 : 64 >> n_in) << n_in;
        }
    }
    const auto sampled = verify::BlockSchedule::over(17, 16, 32, 0xC1EA4ULL, 1);
    EXPECT_FALSE(sampled.exhaustive);
    EXPECT_EQ(sampled.grouping.total_blocks, 32U);
}

TEST(GuardCed, InfoAndOutputLayout) {
    const field::Field f = field::table5_fields()[0].make();  // (8,2)
    Netlist nl = mult::build_date2018_flat(f);
    const std::size_t before = nl.outputs().size();
    const auto info = guard::add_parity_ced(nl, f);
    ASSERT_GE(info.groups, 1);
    // Group 0 is the classic all-ones parity.
    ASSERT_EQ(info.masks.size(), static_cast<std::size_t>(info.groups));
    for (const auto bit : info.masks[0]) {
        EXPECT_EQ(bit, 1);
    }
    EXPECT_FALSE(info.covered_sites.empty());
    EXPECT_EQ(info.original_nodes + info.added_gates, nl.node_count());
    EXPECT_FALSE(info.to_string().empty());
    // Function outputs keep their slots; ced_err0.. and ced_alarm follow.
    ASSERT_EQ(nl.outputs().size(),
              before + static_cast<std::size_t>(info.groups) + 1);
    for (int t = 0; t < info.groups; ++t) {
        EXPECT_EQ(nl.output_index(guard::ced_error_output(t)),
                  static_cast<int>(before) + t);
    }
    EXPECT_EQ(nl.output_index(guard::kCedAlarmOutput),
              static_cast<int>(nl.outputs().size()) - 1);
    // Covered sites are original multiplier gates, never checker gates.
    for (const auto site : info.covered_sites) {
        EXPECT_LT(site, info.original_nodes);
    }
}

TEST(GuardCed, RejectsForeignInterface) {
    const field::Field f8 = field::table5_fields()[0].make();
    const field::Field f64 = field::table5_fields()[1].make();
    Netlist nl = mult::build_date2018_flat(f8);
    EXPECT_THROW(static_cast<void>(guard::add_parity_ced(nl, f64)),
                 std::invalid_argument);
}

TEST(GuardCed, AugmentationPreservesFunction) {
    // The CED pass appends outputs; the function outputs must stay
    // bit-identical to the unguarded multiplier over the whole input space.
    // (No output-removal API exists — netlists are write-once — so compare
    // by simulation rather than check_equivalence, whose output name sets
    // would differ.)
    const field::Field f = field::table5_fields()[0].make();
    const Netlist plain = mult::build_date2018_flat(f);
    Netlist guarded = mult::build_date2018_flat(f);
    static_cast<void>(guard::add_parity_ced(guarded, f));
    const exec::Program pg = exec::Program::compile(guarded);
    const exec::Program pp = exec::Program::compile(plain);
    exec::Program::Scratch sg, sp;
    const int n_in = static_cast<int>(plain.inputs().size());
    const int m = static_cast<int>(plain.outputs().size());
    std::vector<std::uint64_t> in(static_cast<std::size_t>(n_in));
    std::vector<std::uint64_t> og(guarded.outputs().size());
    std::vector<std::uint64_t> op(static_cast<std::size_t>(m));
    const std::uint64_t blocks = (std::uint64_t{1} << n_in) / 64;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        for (int i = 0; i < n_in; ++i) {
            std::uint64_t w = 0;
            for (int l = 0; l < 64; ++l) {
                if (((b * 64 + static_cast<std::uint64_t>(l)) >> i) & 1U) {
                    w |= std::uint64_t{1} << l;
                }
            }
            in[static_cast<std::size_t>(i)] = w;
        }
        pg.run(in, og, sg);
        pp.run(in, op, sp);
        for (int o = 0; o < m; ++o) {
            ASSERT_EQ(og[static_cast<std::size_t>(o)],
                      op[static_cast<std::size_t>(o)])
                << "function output c" << o << " changed, block " << b;
        }
    }
}

TEST(GuardCed, CleanNeverAlarmsAllFamiliesGf256) {
    const field::Field f = field::table5_fields()[0].make();
    for (const auto& mi : mult::all_methods()) {
        Netlist nl = mult::build_multiplier(mi.method, f);
        const auto info = guard::add_parity_ced(nl, f);
        ASSERT_GE(info.groups, 1) << mi.key;
        expect_no_false_alarms(nl, f.degree());
    }
}

TEST(GuardCed, CleanNeverAlarmsTable5Sweep) {
    // The full Table V sweep on the paper's own generator: exhaustive at
    // (8,2), seeded random vectors beyond.
    for (const auto& spec : field::table5_fields()) {
        const field::Field f = spec.make();
        Netlist nl = mult::build_date2018_flat(f);
        const auto info = guard::add_parity_ced(nl, f);
        ASSERT_GE(info.groups, 1) << spec.label();
        // Every gate of a product-layer family has a constant error
        // pattern: ANDs are fed by primary inputs only.
        EXPECT_EQ(info.conditional_gates, 0U) << spec.label();
        expect_no_false_alarms(nl, f.degree(), /*random_blocks=*/16);
    }
}

TEST(GuardCed, FaultCampaignDetectsEveryCoveredSiteGf256) {
    const field::Field f = field::table5_fields()[0].make();
    Netlist nl = mult::build_date2018_flat(f);
    const auto info = guard::add_parity_ced(nl, f);
    const auto report = verify::run_fault_campaign(
        nl, info.covered_sites, static_cast<std::size_t>(f.degree()),
        static_cast<std::size_t>(nl.output_index(guard::kCedAlarmOutput)));
    EXPECT_EQ(report.injected, info.covered_sites.size() * 2);
    EXPECT_TRUE(report.all_detected()) << report.to_string();
    EXPECT_EQ(report.escaped, 0U);
    for (const auto& e : report.escapes) {
        ADD_FAILURE() << "escaped: " << e.to_string();
    }
    // The campaign must have exercised real corruptions, not just benign
    // injections — flipping an AND to XOR is excited by (1,1) somewhere in
    // the exhaustive sweep for virtually every gate.
    EXPECT_GT(report.detected, report.injected / 2) << report.to_string();
}

TEST(GuardCed, FaultCampaignHandlesConditionalFamilies) {
    // ReyhaniHasan routes b through an iterated w-network feeding AND
    // inputs: those gates are conditional (excluded from covered_sites),
    // but every *covered* site must still hold the 100% guarantee.
    const field::Field f = field::table5_fields()[0].make();
    Netlist nl = mult::build_reyhani_hasan(f);
    const auto info = guard::add_parity_ced(nl, f);
    EXPECT_GT(info.conditional_gates, 0U);
    const auto report = verify::run_fault_campaign(
        nl, info.covered_sites, static_cast<std::size_t>(f.degree()),
        static_cast<std::size_t>(nl.output_index(guard::kCedAlarmOutput)));
    EXPECT_TRUE(report.all_detected()) << report.to_string();
}

TEST(GuardCed, FaultCampaignRandomRegimeGf64) {
    // (64,23): 128 input bits force the random-vector regime.  A slice of
    // sites keeps the per-test compile load bounded; determinism of the
    // campaign makes the slice reproducible.
    const field::Field f = field::table5_fields()[1].make();
    Netlist nl = mult::build_date2018_flat(f);
    const auto info = guard::add_parity_ced(nl, f);
    ASSERT_GT(info.covered_sites.size(), 24U);
    std::vector<netlist::NodeId> sites;
    const std::size_t stride = info.covered_sites.size() / 12;
    for (std::size_t i = 0; i < info.covered_sites.size(); i += stride) {
        sites.push_back(info.covered_sites[i]);
    }
    verify::FaultCampaignOptions opt;
    opt.random_blocks = 8;
    const auto report = verify::run_fault_campaign(
        nl, sites, static_cast<std::size_t>(f.degree()),
        static_cast<std::size_t>(nl.output_index(guard::kCedAlarmOutput)), opt);
    EXPECT_TRUE(report.all_detected()) << report.to_string();
    EXPECT_GT(report.detected, 0U);
}

TEST(GuardCed, CampaignRejectsBadSites) {
    const field::Field f = field::table5_fields()[0].make();
    Netlist nl = mult::build_date2018_flat(f);
    static_cast<void>(guard::add_parity_ced(nl, f));
    const std::size_t alarm =
        static_cast<std::size_t>(nl.output_index(guard::kCedAlarmOutput));
    // An input node is not an injectable gate.
    const netlist::NodeId input_node = nl.inputs()[0].node;
    const std::vector<netlist::NodeId> bad{input_node};
    EXPECT_THROW(static_cast<void>(verify::run_fault_campaign(
                     nl, bad, static_cast<std::size_t>(f.degree()), alarm)),
                 std::invalid_argument);
    const std::vector<netlist::NodeId> oob{
        static_cast<netlist::NodeId>(nl.node_count())};
    EXPECT_THROW(static_cast<void>(verify::run_fault_campaign(
                     nl, oob, static_cast<std::size_t>(f.degree()), alarm)),
                 std::invalid_argument);
}

TEST(GuardCed, VerbatimCloneIsNodeForNode) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist src = mult::build_paar_mastrovito(f);
    const Netlist copy = netlist::clone_netlist(src, {.intern = false});
    ASSERT_EQ(copy.node_count(), src.node_count());
    for (netlist::NodeId id = 0; id < src.node_count(); ++id) {
        EXPECT_EQ(static_cast<int>(copy.node(id).kind),
                  static_cast<int>(src.node(id).kind));
        EXPECT_EQ(copy.node(id).a, src.node(id).a);
        EXPECT_EQ(copy.node(id).b, src.node(id).b);
    }
    EXPECT_FALSE(netlist::check_equivalence(src, copy).has_value());
}

TEST(GuardCed, FreshGatesAreNotInterned) {
    Netlist nl;
    const auto a = nl.add_input("a0");
    const auto b = nl.add_input("b0");
    const auto x1 = nl.make_xor(a, b);
    // Fresh gates never join the structural-hash table: an identical fresh
    // gate gets a new id, and XOR(a,a)/AND(a,a) stay live.
    const auto x2 = nl.make_xor_fresh(a, b);
    EXPECT_NE(x1, x2);
    const auto x3 = nl.make_xor(a, b);  // interned: finds the original
    EXPECT_EQ(x1, x3);
    const auto z = nl.make_xor_fresh(a, a);
    const auto w = nl.make_and_fresh(a, a);
    EXPECT_NE(z, w);
    EXPECT_THROW(static_cast<void>(
                     nl.make_xor_fresh(static_cast<netlist::NodeId>(999), a)),
                 std::out_of_range);
    nl.add_output("c0", x1);
    EXPECT_EQ(nl.output_index("c0"), 0);
    EXPECT_EQ(nl.output_index("missing"), -1);
}

}  // namespace
}  // namespace gfr
