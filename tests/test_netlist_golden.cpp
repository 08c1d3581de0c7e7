// Pinned node ids of every netlist the builders and rebuild passes emit.
//
// make_and/make_xor hash-cons through Netlist's structural hash, so the
// id each call returns depends on exactly which gates the hash holds: a
// fresh or literal gate must stay invisible, and a hit must return the
// first node built for that (kind, a, b).  The hash may change how it
// stores and probes its entries, never which id comes back.  These cases
// pin a digest of the full (kind, a, b) node sequence and of the ports for
// the multiplier builders, the literal flat elaboration, every synthesis
// strategy and opt::strash, so one moved id fails here.

#include "field/gf2m.h"
#include "fpga/flow.h"
#include "gf2/pentanomial.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"
#include "opt/opt.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace gfr::netlist {
namespace {

/// "nodes=<count> digest=<FNV-1a>" over every node (kind, a, b), then every
/// input and output port (name, node), in order.
std::string digest(const Netlist& nl) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xFFU;
            h *= 0x100000001b3ULL;
        }
    };
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        const Node& n = nl.node(id);
        mix(static_cast<std::uint8_t>(n.kind), 1);
        mix(n.a, 4);
        mix(n.b, 4);
    }
    for (const auto* ports : {&nl.inputs(), &nl.outputs()}) {
        for (const Port& port : *ports) {
            for (const char c : port.name) {
                mix(static_cast<unsigned char>(c), 1);
            }
            mix(port.node, 4);
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
    return "nodes=" + std::to_string(nl.node_count()) + " digest=" + hex;
}

struct Pin {
    const char* label;
    const char* digest;
};

/// build_multiplier of every Table V method, in all_methods() order, at
/// (64,23) then (113,34).
constexpr Pin kBuilderGolden[] = {
    {"paar (64,23)", "nodes=8712 digest=995cc6b27500b5ff"},
    {"rashidi (64,23)", "nodes=10149 digest=2acf09d30e148782"},
    {"reyhani (64,23)", "nodes=8446 digest=1fdd60b06cf74bcc"},
    {"imana2012 (64,23)", "nodes=8514 digest=f3cc16457947478c"},
    {"imana2016 (64,23)", "nodes=8934 digest=aefd5cd705354e92"},
    {"date2018 (64,23)", "nodes=8783 digest=c52ff0b95497081a"},
    {"paar (113,34)", "nodes=26402 digest=09ff4dfea1a47b91"},
    {"rashidi (113,34)", "nodes=31106 digest=ee502878b1b14920"},
    {"reyhani (113,34)", "nodes=25988 digest=7831f088c2870c91"},
    {"imana2012 (113,34)", "nodes=26089 digest=ac7d5f45188957c1"},
    {"imana2016 (113,34)", "nodes=26960 digest=f77e60b1c680b3ba"},
    {"date2018 (113,34)", "nodes=26577 digest=bde5c1a6c05dc3de"},
};

TEST(NetlistGolden, Table5BuildersArePinned) {
    std::vector<std::string> got;
    for (const auto& [m, n] : {std::pair{64, 23}, std::pair{113, 34}}) {
        const field::Field fld = field::Field::type2(m, n);
        for (const auto& info : mult::all_methods()) {
            if (info.in_table5) {
                got.push_back(std::string{info.key} + " (" + std::to_string(m) + "," +
                              std::to_string(n) + ") " +
                              digest(mult::build_multiplier(info.method, fld)));
            }
        }
    }
    ASSERT_EQ(got.size(), std::size(kBuilderGolden));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], std::string{kBuilderGolden[i].label} + " " + kBuilderGolden[i].digest);
    }
}

TEST(NetlistGolden, NistFlatElaborationsArePinned) {
    const auto f233 = gf2::first_type2_irreducible(233);
    ASSERT_TRUE(f233.has_value());
    const field::Field fld = field::Field::type2(233, f233->n);
    EXPECT_EQ(digest(mult::build_multiplier(mult::Method::Date2018Flat, fld,
                                            mult::Elaboration::Literal)),
              "nodes=194798 digest=664915e8228a6f60");
    EXPECT_EQ(digest(mult::build_multiplier(mult::Method::Date2018Flat, fld,
                                            mult::Elaboration::Shared)),
              "nodes=110898 digest=91fa8d8b8a2729c1");
}

/// netlist::synthesize under each fpga::synthesis_strategies() entry, in
/// order, then opt::strash, all applied to the (113,34) date2018 netlist;
/// last, opt::strash of its literal elaboration, which re-interns every
/// gate through the hash.
constexpr const char* kRebuildGolden[] = {
    "nodes=26577 digest=78c0b8534e451e21", "nodes=26559 digest=908856e8d5e1f2af",
    "nodes=26265 digest=f82f5a98d5b513d1", "nodes=26073 digest=7372ab5c4e9873db",
    "nodes=45823 digest=5b182eb4fe1a810f", "nodes=26025 digest=03e1519a45958c8b",
    "nodes=26577 digest=bde5c1a6c05dc3de", "nodes=26577 digest=bde5c1a6c05dc3de",
};

TEST(NetlistGolden, SynthesisAndStrashRebuildsArePinned) {
    const Netlist nl =
        mult::build_multiplier(mult::Method::Date2018Flat, field::Field::type2(113, 34));
    std::vector<std::string> got;
    for (const SynthOptions& strategy : fpga::synthesis_strategies()) {
        got.push_back(digest(synthesize(nl, strategy)));
    }
    got.push_back(digest(opt::strash(nl).netlist));
    got.push_back(digest(opt::strash(mult::build_multiplier(mult::Method::Date2018Flat,
                                                            field::Field::type2(113, 34),
                                                            mult::Elaboration::Literal))
                             .netlist));
    ASSERT_EQ(got.size(), std::size(kRebuildGolden));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], kRebuildGolden[i]) << "rebuild " << i;
    }
}

}  // namespace
}  // namespace gfr::netlist
