// Netlist IR: construction, simplification rules, structural hashing, stats,
// and the O(1) input-name index — property cases run on the shared harness
// (tests/testutil.h).

#include "netlist/netlist.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace gfr::netlist {
namespace {

using testutil::Xorshift64Star;

TEST(Netlist, InputsAndOutputs) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.make_and(a, b));
    EXPECT_EQ(nl.inputs().size(), 2U);
    EXPECT_EQ(nl.outputs().size(), 1U);
    EXPECT_EQ(nl.input_index("a"), 0);
    EXPECT_EQ(nl.input_index("b"), 1);
    EXPECT_EQ(nl.input_index("zzz"), -1);
}

TEST(Netlist, DuplicateInputNameThrows) {
    Netlist nl;
    nl.add_input("a");
    EXPECT_THROW(nl.add_input("a"), std::invalid_argument);
}

TEST(Netlist, InputIndexMapMatchesPortOrderAtMultiplierScale) {
    // input_index is served by a hash map since PR 4 (the linear scan made
    // add_input's uniqueness check quadratic on m=571 builds).  Build an
    // m=571-sized interface in a PRNG-shuffled insertion order and check
    // the map agrees with the ports vector for every name, plus misses and
    // late duplicates.
    Xorshift64Star rng{0x1DBDULL};
    std::vector<std::string> names;
    for (int i = 0; i < 571; ++i) {
        names.push_back("a" + std::to_string(i));
        names.push_back("b" + std::to_string(i));
    }
    for (std::size_t i = names.size(); i > 1; --i) {
        std::swap(names[i - 1], names[rng.next() % i]);
    }
    Netlist nl;
    for (const auto& name : names) {
        nl.add_input(name);
    }
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        ASSERT_EQ(nl.input_index(nl.inputs()[i].name), static_cast<int>(i));
    }
    EXPECT_EQ(nl.input_index("c0"), -1);
    EXPECT_THROW(nl.add_input(names.back()), std::invalid_argument);
}

TEST(Netlist, StructuralHashingDeduplicates) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    EXPECT_EQ(nl.make_and(a, b), nl.make_and(a, b));
    EXPECT_EQ(nl.make_and(a, b), nl.make_and(b, a));  // commutative canonicalisation
    EXPECT_EQ(nl.make_xor(a, b), nl.make_xor(b, a));
    EXPECT_NE(nl.make_and(a, b), nl.make_xor(a, b));
}

TEST(Netlist, StructuralHashFindsEveryGateAcrossRehashes) {
    // 450 inputs give 101025 AND pairs: the table grows from its first 64
    // slots through a dozen rehashes, and every gate must stay findable.
    Netlist nl;
    std::vector<NodeId> x;
    for (int i = 0; i < 450; ++i) {
        x.push_back(nl.add_input("x" + std::to_string(i)));
    }
    std::vector<NodeId> ands;
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = i + 1; j < x.size(); ++j) {
            ands.push_back(nl.make_and(x[i], x[j]));
        }
    }
    ASSERT_GE(ands.size(), 100000U);
    ASSERT_EQ(nl.node_count(), x.size() + ands.size());
    std::size_t k = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = i + 1; j < x.size(); ++j, ++k) {
            ASSERT_EQ(nl.find_gate(GateKind::And2, x[j], x[i]), ands[k]);
            ASSERT_EQ(nl.find_gate(GateKind::Xor2, x[i], x[j]), kInvalidNode);
            ASSERT_EQ(nl.make_and(x[i], x[j]), ands[k]);
        }
    }
    EXPECT_EQ(nl.node_count(), x.size() + ands.size());
}

TEST(Netlist, CopyFindsOriginalGatesAndKeepsItsOwn) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto c = nl.add_input("c");
    const auto ab = nl.make_and(a, b);
    const auto abc = nl.make_xor(ab, c);

    Netlist copy = nl;
    EXPECT_EQ(copy.find_gate(GateKind::And2, b, a), ab);
    EXPECT_EQ(copy.find_gate(GateKind::Xor2, c, ab), abc);
    EXPECT_EQ(copy.make_xor(ab, c), abc);
    // Enough new gates to rehash the copy's table, none visible in nl.
    std::vector<NodeId> added{copy.make_and(a, c)};
    for (int i = 0; i < 200; ++i) {
        added.push_back(copy.make_xor(added.back(), i % 2 == 0 ? a : b));
    }
    for (const NodeId id : added) {
        const Node& n = copy.node(id);
        EXPECT_EQ(copy.find_gate(n.kind, n.a, n.b), id);
        EXPECT_EQ(nl.find_gate(n.kind, n.a, n.b), kInvalidNode);
    }
    EXPECT_EQ(nl.node_count(), 5U);
    EXPECT_EQ(nl.find_gate(GateKind::And2, a, b), ab);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, ab, c), abc);
}

TEST(Netlist, LiteralGatesStayInvisibleAfterSharingIsTurnedOn) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.set_structural_sharing(false);
    const auto lit1 = nl.make_xor(a, b);
    const auto lit2 = nl.make_xor(b, a);
    EXPECT_NE(lit1, lit2);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, a, b), kInvalidNode);

    nl.set_structural_sharing(true);
    const auto shared = nl.make_xor(a, b);
    EXPECT_NE(shared, lit1);
    EXPECT_NE(shared, lit2);
    EXPECT_EQ(nl.make_xor(b, a), shared);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, b, a), shared);
    EXPECT_EQ(nl.node_count(), 5U);
}

TEST(Netlist, ReserveChangesNoId) {
    // The same seeded mix of shared, literal and fresh gates, built with and
    // without reserve() (up front and part way through), is node-for-node
    // identical and returns the same ids.
    const auto build = [](bool reserve) {
        Netlist nl;
        if (reserve) {
            nl.reserve(3000);
        }
        std::vector<NodeId> pool;
        for (int i = 0; i < 24; ++i) {
            pool.push_back(nl.add_input("x" + std::to_string(i)));
        }
        Xorshift64Star rng{0x5EEDULL};
        std::vector<NodeId> returned;
        for (int step = 0; step < 4000; ++step) {
            if (reserve && step == 2000) {
                nl.reserve(20000);
            }
            nl.set_structural_sharing(step % 500 >= 50);
            const NodeId p = pool[rng.next() % pool.size()];
            const NodeId q = pool[rng.next() % pool.size()];
            const auto pick = rng.next() % 8;
            const NodeId id = pick == 0   ? nl.make_and_fresh(p, q)
                              : pick < 4 ? nl.make_and(p, q)
                                         : nl.make_xor(p, q);
            returned.push_back(id);
            pool.push_back(id);
        }
        return std::pair{std::move(nl), std::move(returned)};
    };
    const auto [plain, plain_ids] = build(false);
    const auto [reserved, reserved_ids] = build(true);
    EXPECT_EQ(plain_ids, reserved_ids);
    ASSERT_EQ(plain.node_count(), reserved.node_count());
    for (NodeId id = 0; id < plain.node_count(); ++id) {
        const Node& p = plain.node(id);
        const Node& r = reserved.node(id);
        ASSERT_EQ(p.kind, r.kind) << id;
        ASSERT_EQ(p.a, r.a) << id;
        ASSERT_EQ(p.b, r.b) << id;
        ASSERT_EQ(plain.find_gate(p.kind, p.a, p.b), reserved.find_gate(r.kind, r.a, r.b)) << id;
    }
}

TEST(Netlist, FindGateWithoutInternedGatesIsInvalid) {
    Netlist empty;
    EXPECT_EQ(empty.find_gate(GateKind::And2, 0, 1), kInvalidNode);

    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, a, b), kInvalidNode);
    nl.make_xor_fresh(a, b);
    nl.set_structural_sharing(false);
    nl.make_and(a, b);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, a, b), kInvalidNode);
    EXPECT_EQ(nl.find_gate(GateKind::And2, a, b), kInvalidNode);
}

TEST(Netlist, SimplificationRules) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto zero = nl.const0();
    EXPECT_EQ(nl.make_xor(a, a), zero);   // x ^ x = 0
    EXPECT_EQ(nl.make_xor(a, zero), a);   // x ^ 0 = x
    EXPECT_EQ(nl.make_and(a, a), a);      // x & x = x
    EXPECT_EQ(nl.make_and(a, zero), zero);// x & 0 = 0
    EXPECT_EQ(nl.make_and(b, zero), zero);
}

TEST(Netlist, Const0IsSingleton) {
    Netlist nl;
    EXPECT_EQ(nl.const0(), nl.const0());
}

TEST(Netlist, XorTreeShapes) {
    Netlist nl;
    std::vector<NodeId> leaves;
    for (int i = 0; i < 8; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("bal", nl.make_xor_tree(leaves, TreeShape::Balanced));
    const auto stats_bal = nl.stats();
    EXPECT_EQ(stats_bal.xor_depth, 3);  // complete tree over 8 leaves
    EXPECT_EQ(stats_bal.n_xor, 7);

    Netlist nl2;
    std::vector<NodeId> leaves2;
    for (int i = 0; i < 8; ++i) {
        leaves2.push_back(nl2.add_input("i" + std::to_string(i)));
    }
    nl2.add_output("chain", nl2.make_xor_tree(leaves2, TreeShape::Chain));
    const auto stats_chain = nl2.stats();
    EXPECT_EQ(stats_chain.xor_depth, 7);  // left-leaning chain
    EXPECT_EQ(stats_chain.n_xor, 7);
}

TEST(Netlist, XorTreeDepthIsCeilLog2) {
    for (int n = 1; n <= 33; ++n) {
        Netlist nl;
        std::vector<NodeId> leaves;
        for (int i = 0; i < n; ++i) {
            leaves.push_back(nl.add_input("i" + std::to_string(i)));
        }
        nl.add_output("o", nl.make_xor_tree(leaves, TreeShape::Balanced));
        int expected = 0;
        while ((1 << expected) < n) {
            ++expected;
        }
        EXPECT_EQ(nl.stats().xor_depth, expected) << "n=" << n;
    }
}

TEST(Netlist, EmptyXorTreeIsConst0) {
    Netlist nl;
    nl.add_input("a");
    const auto node = nl.make_xor_tree({}, TreeShape::Balanced);
    EXPECT_EQ(nl.node(node).kind, GateKind::Const0);
}

TEST(Netlist, StatsCountReachableOnly) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto used = nl.make_and(a, b);
    nl.make_xor(a, b);  // dead gate
    nl.add_output("y", used);
    const auto stats = nl.stats();
    EXPECT_EQ(stats.n_and, 1);
    EXPECT_EQ(stats.n_xor, 0);  // the dead XOR is not counted
}

TEST(Netlist, DepthProfileSeparatesAndXor) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto c = nl.add_input("c");
    const auto d = nl.add_input("d");
    // (a&b) ^ (c&d): one AND level below one XOR level.
    nl.add_output("y", nl.make_xor(nl.make_and(a, b), nl.make_and(c, d)));
    const auto stats = nl.stats();
    EXPECT_EQ(stats.and_depth, 1);
    EXPECT_EQ(stats.xor_depth, 1);
    EXPECT_EQ(stats.delay_string(), "T_A + T_X");
}

TEST(Netlist, DelayStringRendering) {
    NetlistStats s;
    s.and_depth = 1;
    s.xor_depth = 5;
    EXPECT_EQ(s.delay_string(), "T_A + 5T_X");
    s.and_depth = 0;
    EXPECT_EQ(s.delay_string(), "5T_X");
    s.xor_depth = 0;
    EXPECT_EQ(s.delay_string(), "0");
    s.and_depth = 2;
    s.xor_depth = 1;
    EXPECT_EQ(s.delay_string(), "2T_A + T_X");
}

TEST(Netlist, FanoutCounts) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto p = nl.make_and(a, b);
    const auto q = nl.make_xor(p, a);
    nl.add_output("y1", q);
    nl.add_output("y2", p);  // p drives the XOR and an output
    const auto fanout = nl.fanout_counts();
    EXPECT_EQ(fanout[p], 2);
    EXPECT_EQ(fanout[q], 1);
    EXPECT_EQ(fanout[a], 2);  // AND + XOR
    EXPECT_EQ(fanout[b], 1);
}

TEST(Netlist, OutputMayAliasInput) {
    Netlist nl;
    const auto a = nl.add_input("a");
    nl.add_output("y", a);
    EXPECT_EQ(nl.stats().n_and + nl.stats().n_xor, 0);
    EXPECT_EQ(nl.stats().xor_depth, 0);
}

TEST(Netlist, InvalidFaninThrows) {
    Netlist nl;
    const auto a = nl.add_input("a");
    EXPECT_THROW(nl.make_and(a, 999), std::out_of_range);
    EXPECT_THROW(nl.make_xor(999, a), std::out_of_range);
    EXPECT_THROW(nl.add_output("y", 999), std::out_of_range);
}

TEST(Netlist, TopologicalInvariant) {
    // Every gate's fanins have smaller ids — passes and simulation rely on it.
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto c = nl.add_input("c");
    auto t = nl.make_xor(nl.make_and(a, b), c);
    t = nl.make_xor(t, nl.make_and(b, c));
    nl.add_output("y", t);
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        const auto& n = nl.node(id);
        if (n.kind == GateKind::And2 || n.kind == GateKind::Xor2) {
            EXPECT_LT(n.a, id);
            EXPECT_LT(n.b, id);
        }
    }
}

}  // namespace
}  // namespace gfr::netlist
