// DAG-aware <=4-input cut rewriting (mockturtle-style, adapted to the
// inverter-free AND/XOR basis).
//
// For every non-frozen gate, processed in topological order while the
// destination netlist is rebuilt bottom-up, the pass enumerates up to
// cuts_per_node cuts of at most four leaves (truth tables stitched during
// the merge), looks each cut function up in the optimal-subcircuit
// database, and prices the candidate implementation by *dry-running* it
// against the destination's structural hash: a candidate gate that already
// exists (built by another cone, or by an earlier rewrite) costs nothing.
// The benefit side counts the gate the default rebuild would add plus the
// cut's MFFC — interior cone nodes whose every fanout lies inside the cone
// and whose destination image serves no other source node; those become
// dead the moment the root stops referencing them and the final sweep
// collects them.  A candidate is committed only when benefit exceeds cost,
// so a round can only shrink the reachable gate count.
//
// Data layout: every node's cuts sit in one append-only pool, node v owning
// the range [cut_begin[v], cut_end[v]).  Nodes are visited in id order and
// fanins precede their gates, so a merge only reads finished ranges.  Leaf
// lists merge as sorted unions; truth tables move to the merged leaf
// positions by variable swaps.  Fanouts are one CSR array.  The merge
// candidates, the dry-run and build memos (a linear list: a database
// structure has at most seven gates) and the MFFC walk's stack and cone are
// scratch reused across nodes, so the pass makes no allocation per node or
// per cut once that scratch has grown.

#include "opt/internal.h"
#include "opt/opt.h"
#include "opt/xag_db.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gfr::opt {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr int kMaxLeaves = 4;
constexpr std::size_t kMaxConeNodes = 64;  ///< skip cuts with larger cones

struct Cut {
    std::uint8_t size = 0;
    std::uint16_t tt = 0;  ///< function over leaves in 4-var space
    std::array<NodeId, kMaxLeaves> leaves{};  ///< ascending, zero-padded
};

Cut trivial_cut(NodeId id) {
    Cut c;
    c.size = 1;
    c.leaves[0] = id;
    c.tt = internal::kLeafTruth[0];
    return c;
}

/// Union of two ascending leaf lists into `out`; false when it holds more
/// than four leaves.
bool merge_leaves(const Cut& x, const Cut& y, Cut& out) {
    int i = 0;
    int j = 0;
    int k = 0;
    while (i < x.size || j < y.size) {
        const NodeId xv = i < x.size ? x.leaves[static_cast<std::size_t>(i)] : kInvalidNode;
        const NodeId yv = j < y.size ? y.leaves[static_cast<std::size_t>(j)] : kInvalidNode;
        if (k == kMaxLeaves) {
            return false;
        }
        out.leaves[static_cast<std::size_t>(k++)] = std::min(xv, yv);
        i += xv <= yv ? 1 : 0;
        j += yv <= xv ? 1 : 0;
    }
    out.size = static_cast<std::uint8_t>(k);
    return true;
}

/// kSwapMask[i][j] (i < j): the truth-table rows with x_i = 1 and x_j = 0.
constexpr auto kSwapMask = [] {
    std::array<std::array<std::uint16_t, kMaxLeaves>, kMaxLeaves> masks{};
    for (std::size_t i = 0; i < kMaxLeaves; ++i) {
        for (std::size_t j = i + 1; j < kMaxLeaves; ++j) {
            for (unsigned row = 0; row < 16; ++row) {
                if (((row >> i) & 1U) != 0 && ((row >> j) & 1U) == 0) {
                    masks[i][j] = static_cast<std::uint16_t>(masks[i][j] | (1U << row));
                }
            }
        }
    }
    return masks;
}();

/// Re-express a cut's truth table over a merged leaf list that contains
/// its leaves (both ascending): cut leaf i moves from variable i to its
/// merged position.  A cut function never depends on variables at or past
/// its size, so walking from the top leaf down, every move swaps a variable
/// with one the function ignores.
std::uint16_t expand_truth(const Cut& cut, const Cut& merged) {
    unsigned tt = cut.tt;
    int j = merged.size - 1;
    for (int i = cut.size - 1; i >= 0; --i, --j) {
        while (merged.leaves[static_cast<std::size_t>(j)] !=
               cut.leaves[static_cast<std::size_t>(i)]) {
            --j;
        }
        if (j != i) {
            const unsigned mask =
                kSwapMask[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            const unsigned shift = (1U << j) - (1U << i);
            tt = (tt & ~(mask | (mask << shift))) | ((tt & mask) << shift) |
                 ((tt >> shift) & mask);
        }
    }
    return static_cast<std::uint16_t>(tt);
}

struct DryResult {
    NodeId node = kInvalidNode;  ///< resolved existing dst node, if any
    int new_gates = 0;
};

/// Per-structure memo keyed by truth table.  A database structure has at
/// most max_database_gates (<= 7) gates, so a linear scan over a reused
/// vector beats any hash table.
template <typename Value>
class TruthMemo {
public:
    void clear() { entries_.clear(); }
    const Value* find(std::uint16_t tt) const {
        for (const auto& [key, value] : entries_) {
            if (key == tt) {
                return &value;
            }
        }
        return nullptr;
    }
    void add(std::uint16_t tt, const Value& value) { entries_.emplace_back(tt, value); }

private:
    std::vector<std::pair<std::uint16_t, Value>> entries_;
};

/// Price a database structure against the destination netlist without
/// building anything.  `leaf_node[j]` is the dst image of merged leaf j;
/// `resolved` collects every existing dst node the candidate would reuse
/// (so the MFFC estimate can exclude them from "freed").
DryResult dry_run(std::uint16_t tt, const internal::XagDatabase& db,
                  const std::array<NodeId, kMaxLeaves>& leaf_node,
                  NodeId dst_zero, const Netlist& dst,
                  TruthMemo<DryResult>& memo, std::vector<NodeId>& resolved) {
    if (tt == 0) {
        return DryResult{dst_zero, 0};
    }
    for (int j = 0; j < kMaxLeaves; ++j) {
        if (tt == internal::kLeafTruth[static_cast<std::size_t>(j)]) {
            return DryResult{leaf_node[static_cast<std::size_t>(j)], 0};
        }
    }
    if (const DryResult* hit = memo.find(tt)) {
        return *hit;
    }
    const auto& e = db.entry(tt);
    DryResult r;
    const DryResult la =
        dry_run(e.fa, db, leaf_node, dst_zero, dst, memo, resolved);
    const DryResult lb =
        dry_run(e.fb, db, leaf_node, dst_zero, dst, memo, resolved);
    r.new_gates = la.new_gates + lb.new_gates;
    if (la.node != kInvalidNode && lb.node != kInvalidNode) {
        const NodeId hit = dst.find_gate(e.is_and ? GateKind::And2 : GateKind::Xor2,
                                         la.node, lb.node);
        if (hit != kInvalidNode) {
            r.node = hit;
            resolved.push_back(hit);
        } else {
            ++r.new_gates;
        }
    } else {
        ++r.new_gates;
    }
    memo.add(tt, r);
    return r;
}

/// Build a database structure for real (memoized per call, interned).
NodeId build_structure(std::uint16_t tt, const internal::XagDatabase& db,
                       const std::array<NodeId, kMaxLeaves>& leaf_node,
                       Netlist& dst, TruthMemo<NodeId>& memo) {
    if (tt == 0) {
        return dst.const0();
    }
    for (int j = 0; j < kMaxLeaves; ++j) {
        if (tt == internal::kLeafTruth[static_cast<std::size_t>(j)]) {
            return leaf_node[static_cast<std::size_t>(j)];
        }
    }
    if (const NodeId* hit = memo.find(tt)) {
        return *hit;
    }
    const auto& e = db.entry(tt);
    const NodeId a = build_structure(e.fa, db, leaf_node, dst, memo);
    const NodeId b = build_structure(e.fb, db, leaf_node, dst, memo);
    const NodeId out = e.is_and ? dst.make_and(a, b) : dst.make_xor(a, b);
    memo.add(tt, out);
    return out;
}

}  // namespace

PassResult rewrite_cuts(const Netlist& nl, const RewriteOptions& options) {
    if (options.cuts_per_node < 1) {
        throw std::invalid_argument{"rewrite_cuts: cuts_per_node must be >= 1"};
    }
    const std::size_t n = nl.node_count();
    const auto reachable = nl.reachable_from_outputs();
    const auto frozen = internal::frozen_nodes(nl);
    const auto& db = internal::XagDatabase::instance(options.max_database_gates);
    const auto cuts_cap = static_cast<std::size_t>(options.cuts_per_node);

    // Source-side fanout adjacency over the reachable subgraph, in CSR
    // form (fanout_begin[v] .. fanout_begin[v + 1]); output ports count as
    // one extra (non-removable) fanout.
    std::vector<std::uint32_t> fanout_begin(n + 1, 0);
    std::vector<std::uint32_t> output_refs(n, 0);
    const auto is_gate = [](const netlist::Node& node) {
        return node.kind == GateKind::And2 || node.kind == GateKind::Xor2;
    };
    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        if (reachable[id] && is_gate(node)) {
            ++fanout_begin[node.a + 1];
            ++fanout_begin[node.b + 1];
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        fanout_begin[v + 1] += fanout_begin[v];
    }
    std::vector<NodeId> fanouts(fanout_begin[n]);
    {
        std::vector<std::uint32_t> fill(fanout_begin.begin(), fanout_begin.end() - 1);
        for (NodeId id = 0; id < n; ++id) {
            const auto& node = nl.node(id);
            if (reachable[id] && is_gate(node)) {
                fanouts[fill[node.a]++] = id;
                fanouts[fill[node.b]++] = id;
            }
        }
    }
    for (const auto& port : nl.outputs()) {
        ++output_refs[port.node];
    }

    Netlist dst;
    dst.reserve(n);
    const NodeId dst_zero = dst.const0();
    std::vector<NodeId> memo(n, kInvalidNode);
    std::vector<std::uint32_t> dst_src_count{1};  // const0 counts as shared
    dst_src_count.reserve(n + 1);
    const auto note_mapping = [&](NodeId dst_id) {
        if (dst_id >= dst_src_count.size()) {
            dst_src_count.resize(static_cast<std::size_t>(dst_id) + 1, 0);
        }
        ++dst_src_count[dst_id];
    };

    // The cut pool (see the header); the reserve covers the default cap, so
    // the pool does not move then.
    std::vector<Cut> pool;
    pool.reserve(n * (std::min<std::size_t>(cuts_cap, 8) + 1));
    std::vector<std::uint32_t> cut_begin(n, 0);
    std::vector<std::uint32_t> cut_end(n, 0);
    const auto close_cuts = [&](NodeId id, std::size_t begin) {
        pool.push_back(trivial_cut(id));
        cut_begin[id] = static_cast<std::uint32_t>(begin);
        cut_end[id] = static_cast<std::uint32_t>(pool.size());
    };

    std::vector<std::string> input_name(n);
    for (const auto& port : nl.inputs()) {
        input_name[port.node] = port.name;
    }

    // Scratch reused across nodes and cuts.
    std::vector<Cut> merged_cuts;
    std::vector<NodeId> cone;
    std::vector<NodeId> stack;
    std::vector<NodeId> resolved;
    TruthMemo<DryResult> dry_memo;
    TruthMemo<NodeId> build_memo;
    std::vector<std::uint8_t> in_cone(n, 0);
    std::vector<std::uint8_t> in_mffc(n, 0);

    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        if (node.kind == GateKind::Input) {
            memo[id] = dst.add_input(input_name[id]);
            note_mapping(memo[id]);
            if (nl.is_protected(id)) {
                dst.set_protected(memo[id]);
            }
            close_cuts(id, pool.size());
            continue;
        }
        if (node.kind == GateKind::Const0) {
            if (reachable[id] || frozen[id]) {
                memo[id] = dst_zero;
                note_mapping(dst_zero);
            }
            continue;  // const0 never appears as a cut leaf (tt handles it)
        }
        if (!reachable[id] && !frozen[id]) {
            continue;  // dead
        }
        const NodeId fa = memo[node.a];
        const NodeId fb = memo[node.b];
        if (frozen[id]) {
            // Verbatim rebuild; cuts stop here so no cone ever crosses
            // frozen logic.
            memo[id] = (node.kind == GateKind::And2) ? dst.make_and_fresh(fa, fb)
                                                     : dst.make_xor_fresh(fa, fb);
            note_mapping(memo[id]);
            if (nl.is_protected(id)) {
                dst.set_protected(memo[id]);
            }
            close_cuts(id, pool.size());
            continue;
        }
        // A fanin may be a dead Const0 sibling only when unreachable; both
        // fanins of a reachable gate are mapped here.

        // --- Cut enumeration (source side) -------------------------------
        const GateKind kind = node.kind;
        merged_cuts.clear();
        for (std::uint32_t ia = cut_begin[node.a]; ia < cut_end[node.a]; ++ia) {
            const Cut& ca = pool[ia];
            for (std::uint32_t ib = cut_begin[node.b]; ib < cut_end[node.b]; ++ib) {
                const Cut& cb = pool[ib];
                Cut c;
                if (!merge_leaves(ca, cb, c)) {
                    continue;
                }
                // Dedupe on the leaf set.
                bool dup = false;
                for (const Cut& seen : merged_cuts) {
                    if (seen.size == c.size && seen.leaves == c.leaves) {
                        dup = true;
                        break;
                    }
                }
                if (dup) {
                    continue;
                }
                const std::uint16_t ta = expand_truth(ca, c);
                const std::uint16_t tb = expand_truth(cb, c);
                c.tt = (kind == GateKind::And2) ? static_cast<std::uint16_t>(ta & tb)
                                                : static_cast<std::uint16_t>(ta ^ tb);
                merged_cuts.push_back(c);
            }
        }
        // Keep the cuts_cap smallest, stably by size (enumeration order
        // breaks ties), straight into the pool.
        const std::size_t begin = pool.size();
        for (std::uint8_t size = 1; size <= kMaxLeaves; ++size) {
            for (const Cut& c : merged_cuts) {
                if (c.size == size && pool.size() - begin < cuts_cap) {
                    pool.push_back(c);
                }
            }
        }
        const std::size_t end = pool.size();

        // --- Default rebuild price ---------------------------------------
        NodeId default_node = kInvalidNode;
        if (fa == fb) {
            default_node = (kind == GateKind::And2) ? fa : dst_zero;
        } else if (fa == dst_zero || fb == dst_zero) {
            default_node =
                (kind == GateKind::And2) ? dst_zero : (fa == dst_zero ? fb : fa);
        } else {
            default_node = dst.find_gate(kind, fa, fb);
        }
        if (default_node != kInvalidNode) {
            // Sharing or simplification makes the default free; no
            // candidate can beat cost zero plus an intact cone.
            memo[id] = default_node;
            note_mapping(default_node);
            close_cuts(id, begin);
            continue;
        }

        // --- Candidate evaluation ----------------------------------------
        // Every enumerated cut's leaves precede id, so none is the trivial
        // self-cut.
        int best_gain = 0;
        std::uint16_t best_tt = 0;
        std::array<NodeId, kMaxLeaves> best_leaf_node{};
        for (std::size_t ci = begin; ci < end; ++ci) {
            const Cut& c = pool[ci];
            const auto& entry = db.entry(c.tt);
            if (entry.cost < 0) {
                continue;  // function beyond the database bound
            }
            const auto is_leaf = [&c](NodeId v) {
                for (int j = 0; j < c.size; ++j) {
                    if (c.leaves[static_cast<std::size_t>(j)] == v) {
                        return true;
                    }
                }
                return false;
            };
            std::array<NodeId, kMaxLeaves> leaf_node{};
            leaf_node.fill(kInvalidNode);
            for (int j = 0; j < c.size; ++j) {
                leaf_node[static_cast<std::size_t>(j)] =
                    memo[c.leaves[static_cast<std::size_t>(j)]];
            }
            dry_memo.clear();
            resolved.clear();
            const DryResult priced = dry_run(c.tt, db, leaf_node, dst_zero, dst,
                                             dry_memo, resolved);

            // MFFC of id w.r.t. this cut: interior cone nodes every one of
            // whose fanouts stays inside the cone (output-driving, frozen
            // and candidate-reused nodes excluded) — dead after rewrite.
            cone.clear();
            stack.clear();
            bool cone_ok = true;
            stack.push_back(id);
            in_cone[id] = 1;
            while (!stack.empty()) {
                const NodeId v = stack.back();
                stack.pop_back();
                cone.push_back(v);
                if (cone.size() > kMaxConeNodes) {
                    cone_ok = false;
                    break;
                }
                if (is_leaf(v) || v == kInvalidNode) {
                    continue;
                }
                const auto& vn = nl.node(v);
                if (!is_gate(vn)) {
                    continue;
                }
                for (const NodeId f : {vn.a, vn.b}) {
                    if (!in_cone[f]) {
                        in_cone[f] = 1;
                        stack.push_back(f);
                    }
                }
            }
            int freed = 0;
            if (cone_ok) {
                // Descending id order: fanouts have larger ids, so their
                // MFFC status is known before their fanins are visited.
                std::sort(cone.begin(), cone.end(),
                          [](NodeId x, NodeId y) { return x > y; });
                for (const NodeId v : cone) {
                    if (v == id) {
                        in_mffc[v] = 1;
                        continue;
                    }
                    if (is_leaf(v) || !is_gate(nl.node(v)) || frozen[v] ||
                        output_refs[v] > 0) {
                        in_mffc[v] = 0;
                        continue;
                    }
                    bool all_inside = true;
                    for (std::uint32_t k = fanout_begin[v]; k < fanout_begin[v + 1]; ++k) {
                        const NodeId f = fanouts[k];
                        if (!in_cone[f] || !in_mffc[f]) {
                            all_inside = false;
                            break;
                        }
                    }
                    in_mffc[v] = all_inside ? 1 : 0;
                    if (all_inside && memo[v] != kInvalidNode &&
                        dst_src_count[memo[v]] == 1 &&
                        std::find(resolved.begin(), resolved.end(), memo[v]) ==
                            resolved.end()) {
                        ++freed;
                    }
                }
            }
            for (const NodeId v : cone) {
                in_cone[v] = 0;
                in_mffc[v] = 0;
            }
            // An oversized cone stops the walk with nodes still queued; their
            // marks must not leak into later walks as phantom cone members.
            for (const NodeId v : stack) {
                in_cone[v] = 0;
            }
            if (!cone_ok) {
                continue;
            }

            const int gain = 1 + freed - priced.new_gates;
            if (gain > best_gain) {
                best_gain = gain;
                best_tt = c.tt;
                best_leaf_node = leaf_node;
            }
        }

        if (best_gain > 0) {
            build_memo.clear();
            memo[id] =
                build_structure(best_tt, db, best_leaf_node, dst, build_memo);
        } else {
            memo[id] = (kind == GateKind::And2) ? dst.make_and(fa, fb)
                                                : dst.make_xor(fa, fb);
        }
        note_mapping(memo[id]);
        close_cuts(id, begin);
    }

    for (const auto& port : nl.outputs()) {
        NodeId driver = memo[port.node];
        if (options.unsound_for_test && &port == &nl.outputs().front() &&
            !nl.inputs().empty()) {
            // Mutation-tier hook: a deliberately wrong rewrite the
            // post-pass campaign must catch (flips output 0 whenever
            // input 0 is 1).
            driver = dst.make_xor(driver, memo[nl.inputs().front().node]);
        }
        dst.add_output(port.name, driver);
    }

    // Sweep the garbage the rewrites orphaned (and the eager const0 when
    // unused) and compose the maps.
    PassResult swept = strash(dst);
    PassResult out;
    out.netlist = std::move(swept.netlist);
    out.node_map.assign(n, kInvalidNode);
    for (NodeId id = 0; id < n; ++id) {
        if (memo[id] != kInvalidNode) {
            out.node_map[id] = swept.node_map[memo[id]];
        }
    }
    return out;
}

}  // namespace gfr::opt
