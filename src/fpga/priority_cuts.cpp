#include "fpga/priority_cuts.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace gfr::fpga {

using netlist::GateKind;
using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr int kInfinity = std::numeric_limits<int>::max() / 2;

/// The classic 6-variable minterm masks: variable v of a <= 6-input cone.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Per-node mapping state.  The node's priority cuts are `count` contiguous
/// cuts in a CutStore, trivial cut last.
struct NodeState {
    Cut* cuts = nullptr;
    std::uint32_t count = 0;
    int best_depth = 0;
    double area_flow = 0;
    int est_refs = 1;
};

/// Append-only storage for every node's cuts.  A node's cuts are contiguous
/// and never move once taken, and storage grows in equal fixed-size blocks,
/// so no allocation scales with the netlist and successive mappings reuse
/// freed blocks instead of growing the heap.
class CutStore {
public:
    /// Room for `n` contiguous cuts.
    Cut* take(std::size_t n) {
        if (blocks_.empty() || blocks_.back().size() + n > blocks_.back().capacity()) {
            blocks_.emplace_back().reserve(std::max(n, kBlockCuts));
        }
        auto& block = blocks_.back();
        block.resize(block.size() + n);  // within capacity: nothing moves
        return block.data() + block.size() - n;
    }

private:
    static constexpr std::size_t kBlockCuts = 2048;
    std::vector<std::vector<Cut>> blocks_;
};

/// Truth tables of cones over their cut leaves, by recursive evaluation on
/// the 6-variable minterm masks.  Values live in a dense NodeId-indexed
/// scratch; an epoch stamp per call invalidates the previous cone's values.
class ConeEvaluator {
public:
    explicit ConeEvaluator(const Netlist& nl)
        : nl_{&nl}, value_(nl.node_count()), stamp_(nl.node_count(), 0) {}

    std::uint64_t truth(NodeId root, const Cut& cut) {
        ++epoch_;
        for (int i = 0; i < cut.size; ++i) {
            set(cut.leaves[static_cast<std::size_t>(i)], kVarMask[i]);
        }
        return eval(root);
    }

private:
    void set(NodeId id, std::uint64_t v) {
        value_[id] = v;
        stamp_[id] = epoch_;
    }

    std::uint64_t eval(NodeId id) {
        if (stamp_[id] == epoch_) {
            return value_[id];
        }
        const auto& n = nl_->node(id);
        std::uint64_t v = 0;
        switch (n.kind) {
            case GateKind::Const0:
                v = 0;
                break;
            case GateKind::Input:
                throw std::logic_error{"map_to_luts: a cone reached an input that is not a leaf"};
            case GateKind::And2:
                v = eval(n.a) & eval(n.b);
                break;
            case GateKind::Xor2:
                v = eval(n.a) ^ eval(n.b);
                break;
        }
        set(id, v);
        return v;
    }

    const Netlist* nl_;
    std::vector<std::uint64_t> value_;
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;
};

}  // namespace

LutNetwork map_to_luts(const Netlist& nl, const MapperOptions& options) {
    if (options.lut_inputs < 2 || options.lut_inputs > Cut::kMaxLeaves) {
        throw std::invalid_argument{"map_to_luts: lut_inputs must be in [2,6]"};
    }
    if (options.cuts_per_node < 1) {
        throw std::invalid_argument{"map_to_luts: cuts_per_node must be >= 1"};
    }
    const int k = options.lut_inputs;
    // fanout_counts() covers exactly the reachable subgraph, and every
    // reachable node drives an output or a reachable gate: reachable <=>
    // fanout > 0, so one traversal serves both.
    const auto fanout = nl.fanout_counts();
    const auto reachable = [&fanout](NodeId id) { return fanout[id] > 0; };

    std::vector<NodeState> state(nl.node_count());
    CutStore store;
    const auto cuts_of = [&](NodeId id) { return std::span{state[id].cuts, state[id].count}; };

    // ---- Forward pass: priority cuts, depth-first ordering. ----
    std::vector<Cut> candidates;
    std::vector<const Cut*> kept;
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (!reachable(id)) {
            continue;
        }
        auto& st = state[id];
        st.est_refs = std::max(1, fanout[id]);
        const auto& n = nl.node(id);
        if (n.kind == GateKind::Input || n.kind == GateKind::Const0) {
            st.best_depth = 0;
            st.area_flow = 0;
            st.cuts = store.take(1);
            st.cuts[0] = Cut::trivial(id);
            st.count = 1;
            continue;
        }

        // With hard boundaries, a multi-fanout gate fanin is only visible as
        // a leaf: its logic is instantiated once and never duplicated.
        const Cut trivial_a = Cut::trivial(n.a);
        const Cut trivial_b = Cut::trivial(n.b);
        auto fanin_cuts = [&](NodeId fanin,
                              const Cut& trivial) -> std::span<const Cut> {
            const auto& fn = nl.node(fanin);
            const bool boundary = options.respect_fanout_boundaries &&
                                  fanout[fanin] > 1 &&
                                  (fn.kind == GateKind::And2 || fn.kind == GateKind::Xor2);
            if (boundary) {
                return {&trivial, 1};
            }
            return cuts_of(fanin);
        };

        candidates.clear();
        for (const auto& ca : fanin_cuts(n.a, trivial_a)) {
            for (const auto& cb : fanin_cuts(n.b, trivial_b)) {
                auto merged = Cut::merge(ca, cb, k);
                if (!merged) {
                    continue;
                }
                auto& cut = *merged;
                cut.depth = 0;
                cut.area_flow = 1.0;  // this LUT
                for (int i = 0; i < cut.size; ++i) {
                    const NodeId leaf = cut.leaves[static_cast<std::size_t>(i)];
                    cut.depth = std::max(cut.depth, state[leaf].best_depth);
                    cut.area_flow += state[leaf].area_flow;
                }
                cut.depth += 1;
                candidates.push_back(cut);
            }
        }
        // Dedupe identical leaf sets and drop dominated cuts.
        std::sort(candidates.begin(), candidates.end(), [](const Cut& x, const Cut& y) {
            if (x.depth != y.depth) {
                return x.depth < y.depth;
            }
            if (x.area_flow != y.area_flow) {
                return x.area_flow < y.area_flow;
            }
            return x.size < y.size;
        });
        // A kept cut precedes c in that order, so its depth is never worse:
        // c is redundant exactly when some kept cut's leaves are a subset
        // of c's (identical leaf sets included).
        kept.clear();
        for (const auto& c : candidates) {
            const bool redundant = std::any_of(kept.begin(), kept.end(),
                                               [&](const Cut* kc) { return kc->subset_of(c); });
            if (!redundant) {
                kept.push_back(&c);
                if (static_cast<int>(kept.size()) >= options.cuts_per_node) {
                    break;
                }
            }
        }
        if (kept.empty()) {
            throw std::logic_error{"map_to_luts: node has no feasible cut"};
        }
        // Guarantee an area-cheap alternative survives the depth-first prune,
        // so area recovery has something to pick on non-critical paths.
        const Cut* cheapest = &candidates.front();
        for (const auto& c : candidates) {
            if (c.area_flow < cheapest->area_flow) {
                cheapest = &c;
            }
        }
        if (std::none_of(kept.begin(), kept.end(),
                         [&](const Cut* kc) { return kc->same_leaves(*cheapest); })) {
            kept.back() = cheapest;
        }
        st.best_depth = kept.front()->depth;
        st.area_flow = kept.front()->area_flow / st.est_refs;
        st.count = static_cast<std::uint32_t>(kept.size() + 1);
        st.cuts = store.take(st.count);
        for (std::size_t i = 0; i < kept.size(); ++i) {
            st.cuts[i] = *kept[i];
        }
        st.cuts[kept.size()] = Cut::trivial(id);  // visible to fanouts as a leaf
    }

    // ---- Required times. ----
    int global_depth = 0;
    for (const auto& out : nl.outputs()) {
        global_depth = std::max(global_depth, state[out.node].best_depth);
    }

    // ---- Backward covering with iterated area recovery. ----
    // Each round chooses, per required node, the min-area cut still meeting
    // its required time; leaf "area" is an area-flow estimate whose reference
    // counts come from the previous round's actual cover (classic if-mapper
    // area iteration).  Depth never degrades: the depth-best cut always
    // satisfies the required time.  The refresh writes each cut's area flow
    // under the round's estimates onto the cut; the covering reads it back.
    std::vector<bool> used(nl.node_count(), false);
    std::vector<const Cut*> chosen(nl.node_count(), nullptr);
    std::vector<double> area_est(nl.node_count(), 0.0);
    std::vector<int> required(nl.node_count());
    std::vector<int> refs;
    const int rounds = options.area_recovery ? 3 : 1;

    for (int round = 0; round < rounds; ++round) {
        // Refresh per-node area estimates with current est_refs.
        for (NodeId id = 0; id < nl.node_count(); ++id) {
            if (!reachable(id)) {
                continue;
            }
            const auto& n = nl.node(id);
            if (n.kind == GateKind::Input || n.kind == GateKind::Const0) {
                area_est[id] = 0.0;
                continue;
            }
            double best = 0.0;
            bool first = true;
            for (Cut& c : cuts_of(id)) {
                if (c.size == 1 && c.leaves[0] == id) {
                    continue;
                }
                double af = 1.0;
                for (int i = 0; i < c.size; ++i) {
                    af += area_est[c.leaves[static_cast<std::size_t>(i)]];
                }
                c.area_flow = af;
                if (first || af < best) {
                    best = af;
                    first = false;
                }
            }
            area_est[id] = best / state[id].est_refs;
        }

        std::fill(required.begin(), required.end(), kInfinity);
        std::fill(used.begin(), used.end(), false);
        for (const auto& out : nl.outputs()) {
            required[out.node] = global_depth;
            const auto& n = nl.node(out.node);
            if (n.kind != GateKind::Input && n.kind != GateKind::Const0) {
                used[out.node] = true;
            }
        }
        for (NodeId idp = static_cast<NodeId>(nl.node_count()); idp-- > 0;) {
            if (!used[idp]) {
                continue;
            }
            const Cut* pick = nullptr;
            for (const Cut& c : cuts_of(idp)) {
                if (c.size == 1 && c.leaves[0] == idp) {
                    continue;  // trivial cut cannot implement its own node
                }
                if (!options.area_recovery) {
                    pick = &c;  // cuts are depth-sorted; first is depth-best
                    break;
                }
                if (c.depth > required[idp]) {
                    continue;
                }
                if (pick == nullptr || c.area_flow < pick->area_flow ||
                    (c.area_flow == pick->area_flow && c.depth < pick->depth)) {
                    pick = &c;
                }
            }
            if (pick == nullptr) {
                pick = state[idp].cuts;  // depth-best always meets required
            }
            chosen[idp] = pick;
            for (int i = 0; i < pick->size; ++i) {
                const NodeId leaf = pick->leaves[static_cast<std::size_t>(i)];
                const auto& ln = nl.node(leaf);
                if (ln.kind != GateKind::Input && ln.kind != GateKind::Const0) {
                    used[leaf] = true;
                }
                required[leaf] = std::min(required[leaf], required[idp] - 1);
            }
        }

        if (round + 1 < rounds) {
            // Re-estimate reference counts from the actual cover.
            refs.assign(nl.node_count(), 0);
            for (NodeId id = 0; id < nl.node_count(); ++id) {
                if (!used[id] || chosen[id] == nullptr) {
                    continue;
                }
                for (int i = 0; i < chosen[id]->size; ++i) {
                    ++refs[chosen[id]->leaves[static_cast<std::size_t>(i)]];
                }
            }
            for (const auto& out : nl.outputs()) {
                ++refs[out.node];
            }
            for (NodeId id = 0; id < nl.node_count(); ++id) {
                if (reachable(id)) {
                    state[id].est_refs = std::max(1, refs[id]);
                }
            }
        }
    }

    // ---- Emit the LUT network. ----
    LutNetwork net;
    net.input_names.reserve(nl.inputs().size());
    std::vector<std::int32_t> ref(nl.node_count(), LutNetwork::kConst0Ref);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        net.input_names.push_back(nl.inputs()[i].name);
        ref[nl.inputs()[i].node] = static_cast<std::int32_t>(i);
    }
    ConeEvaluator cones{nl};
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (!used[id]) {
            continue;
        }
        const Cut& cut = *chosen[id];
        LutNetwork::Lut lut;
        lut.fanins.reserve(static_cast<std::size_t>(cut.size));
        for (int i = 0; i < cut.size; ++i) {
            lut.fanins.push_back(ref[cut.leaves[static_cast<std::size_t>(i)]]);
        }
        lut.truth = cones.truth(id, cut);
        ref[id] = static_cast<std::int32_t>(net.input_names.size() + net.luts.size());
        net.luts.push_back(std::move(lut));
    }
    for (const auto& out : nl.outputs()) {
        net.outputs.emplace_back(out.name, ref[out.node]);
    }
    return net;
}

}  // namespace gfr::fpga
