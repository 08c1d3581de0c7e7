// Pinned quality of results for the Table V flow.  The synthesis builders
// and the LUT mapper may only get faster: no decision of theirs may change.
// So any drift here (a LUT count, a slice count, a delay, one truth-table
// bit, one fanin, or a synthesized gate count) is a regression, not noise.

#include "field/gf2m.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

namespace gfr::fpga {
namespace {

using mult::Method;

/// FNV-1a over every LUT's fanin count, fanin refs and truth table, in
/// network order.
std::uint64_t fingerprint(const LutNetwork& net) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xFFU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto& lut : net.luts) {
        mix(lut.fanins.size(), 1);
        for (const auto f : lut.fanins) {
            mix(static_cast<std::uint32_t>(f), 4);
        }
        mix(lut.truth, 8);
    }
    return h;
}

struct FlowGolden {
    int m;
    int n;
    Method method;
    int luts;
    int slices;
    double delay_ns;
    std::uint64_t fingerprint;
};

constexpr FlowGolden kFlowGolden[] = {
    {8, 2, Method::PaarMastrovito, 43, 17, 10.220055796945481, 0x1fc35042b4190532ULL},
    {8, 2, Method::RashidiDirect, 53, 27, 10.404148001132601, 0xb3f736597c86ffc7ULL},
    {8, 2, Method::ReyhaniHasan, 44, 16, 10.37060955191447, 0x8d45ab16561c441aULL},
    {8, 2, Method::Imana2012, 37, 19, 9.8430036638612588, 0x09eeef298cf55399ULL},
    {8, 2, Method::Imana2016Paren, 46, 16, 10.984405447145082, 0x39a7893b3110af0aULL},
    {8, 2, Method::Date2018Flat, 38, 20, 9.9478067070417175, 0x7b0860dec7ba5aeeULL},
    {64, 23, Method::PaarMastrovito, 2444, 1012, 20.569012860684541, 0x71ff373d05e7ba07ULL},
    {64, 23, Method::RashidiDirect, 3210, 1353, 21.767133689316488, 0x4730a4d33f9a8702ULL},
    {64, 23, Method::ReyhaniHasan, 2330, 911, 23.794333109038682, 0xf3e107d1ea97e493ULL},
    {64, 23, Method::Imana2012, 2416, 1119, 18.901330894507396, 0x9459b4a8c02ed626ULL},
    {64, 23, Method::Imana2016Paren, 2477, 1033, 20.649957343414776, 0xea1df38efe7dc2ffULL},
    {64, 23, Method::Date2018Flat, 1804, 1036, 18.51979193818655, 0xff8acc7a7d775abeULL},
};

TEST(FlowGolden, TableVCellsArePinned) {
    for (const auto& g : kFlowGolden) {
        const field::Field fld = field::Field::type2(g.m, g.n);
        const auto& info = mult::method_info(g.method);
        FlowOptions opts;
        opts.synthesis_freedom = info.synthesis_freedom;
        const FlowResult r = run_flow(mult::build_multiplier(g.method, fld), opts);
        const std::string cell =
            std::string{info.key} + " at (" + std::to_string(g.m) + "," + std::to_string(g.n) + ")";
        EXPECT_EQ(r.luts, g.luts) << cell;
        EXPECT_EQ(r.slices, g.slices) << cell;
        EXPECT_DOUBLE_EQ(r.delay_ns, g.delay_ns) << cell;
        EXPECT_EQ(fingerprint(r.network), g.fingerprint) << cell;
    }
}

/// Gates after each of synthesis_strategies(), in list order, at (64,23).
struct SynthGolden {
    Method method;
    std::array<std::int64_t, 6> gates;
};

constexpr SynthGolden kSynthGolden[] = {
    {Method::PaarMastrovito, {8584, 8584, 8584, 8584, 8584, 8584}},
    {Method::RashidiDirect, {10021, 9628, 9149, 8376, 14784, 8338}},
    {Method::ReyhaniHasan, {8317, 8317, 8317, 8317, 8317, 8317}},
    {Method::Imana2012, {8386, 8376, 8312, 8376, 14739, 8338}},
    {Method::Imana2016Paren, {8806, 8776, 8464, 8376, 14804, 8338}},
    {Method::Date2018Flat, {8655, 8647, 8473, 8376, 14812, 8338}},
};

TEST(FlowGolden, SynthesisStrategyGateCountsArePinned) {
    const field::Field fld = field::Field::type2(64, 23);
    const auto strategies = synthesis_strategies();
    ASSERT_EQ(strategies.size(), 6U);
    for (const auto& g : kSynthGolden) {
        const auto nl = mult::build_multiplier(g.method, fld);
        for (std::size_t s = 0; s < strategies.size(); ++s) {
            EXPECT_EQ(netlist::synthesize(nl, strategies[s]).stats().gates(), g.gates[s])
                << mult::method_info(g.method).key << " strategy " << s;
        }
    }
}

}  // namespace
}  // namespace gfr::fpga
