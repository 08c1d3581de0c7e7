#include "netlist/passes.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace gfr::netlist {

namespace {

/// Copies all inputs of `src` into `dst` (same order) and returns the
/// old-id -> new-id map seeded with those inputs.  `dst` is sized for a
/// rebuild of about the source's size.
std::vector<NodeId> seed_inputs(const Netlist& src, Netlist& dst) {
    dst.reserve(src.node_count());
    std::vector<NodeId> memo(src.node_count(), kInvalidNode);
    for (const auto& port : src.inputs()) {
        memo[port.node] = dst.add_input(port.name);
    }
    return memo;
}

/// Plain structural rebuild (no restructuring) of `id` into `dst`.
NodeId rebuild_plain(const Netlist& src, Netlist& dst, std::vector<NodeId>& memo,
                     NodeId id) {
    if (memo[id] != kInvalidNode) {
        return memo[id];
    }
    const Node& n = src.node(id);
    NodeId result = kInvalidNode;
    switch (n.kind) {
        case GateKind::Input:
            result = memo[id];  // seeded; unreachable here
            break;
        case GateKind::Const0:
            result = dst.const0();
            break;
        case GateKind::And2:
            result = dst.make_and(rebuild_plain(src, dst, memo, n.a),
                                  rebuild_plain(src, dst, memo, n.b));
            break;
        case GateKind::Xor2:
            result = dst.make_xor(rebuild_plain(src, dst, memo, n.a),
                                  rebuild_plain(src, dst, memo, n.b));
            break;
    }
    memo[id] = result;
    return result;
}

/// Collect the leaves of the XOR tree rooted at `root`, flattening through
/// XOR nodes that satisfy `expand(id)`; the root itself is always expanded
/// if it is an XOR.  Duplicate leaves cancel pairwise (x ^ x = 0).
template <typename ExpandPred>
std::vector<NodeId> xor_leaves(const Netlist& src, NodeId root, ExpandPred expand) {
    std::vector<NodeId> leaves;
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const Node& n = src.node(id);
        const bool is_xor = n.kind == GateKind::Xor2;
        if (is_xor && (id == root || expand(id))) {
            stack.push_back(n.a);
            stack.push_back(n.b);
        } else {
            leaves.push_back(id);
        }
    }
    std::sort(leaves.begin(), leaves.end());
    // Cancel equal pairs mod 2.
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < leaves.size();) {
        std::size_t j = i;
        while (j < leaves.size() && leaves[j] == leaves[i]) {
            ++j;
        }
        if ((j - i) % 2 == 1) {
            out.push_back(leaves[i]);
        }
        i = j;
    }
    return out;
}

std::uint64_t pair_key(NodeId u, NodeId v) {
    if (u > v) {
        std::swap(u, v);
    }
    return (static_cast<std::uint64_t>(u) << 32U) | v;
}

/// Builds XOR trees of minimum depth over leaves of mixed heights: Huffman
/// on (xor-depth, insertion order).  Tracks xor-depths of the growing output
/// netlist lazily so repeated calls stay linear overall.
class MinDepthXorBuilder {
public:
    explicit MinDepthXorBuilder(Netlist& nl) : nl_{&nl} {}

    NodeId build(const std::vector<NodeId>& leaves) {
        if (leaves.empty()) {
            return nl_->const0();
        }
        sync();
        // Min-heap on (depth, tiebreak) over storage reused across calls.
        const auto later = [](const Item& a, const Item& b) {
            return std::tie(a.depth, a.seq) > std::tie(b.depth, b.seq);
        };
        heap_.clear();
        int seq = 0;
        for (const NodeId leaf : leaves) {
            heap_.push_back({depth_[leaf], seq++, leaf});
            std::push_heap(heap_.begin(), heap_.end(), later);
        }
        while (heap_.size() > 1) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const Item x = heap_.back();
            heap_.pop_back();
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const Item y = heap_.back();
            heap_.pop_back();
            const NodeId combined = nl_->make_xor(x.node, y.node);
            heap_.push_back({std::max(x.depth, y.depth) + 1, seq++, combined});
            std::push_heap(heap_.begin(), heap_.end(), later);
        }
        const NodeId root = heap_.front().node;
        sync();
        return root;
    }

private:
    struct Item {
        int depth;
        int seq;
        NodeId node;
    };

    void sync() {
        for (NodeId id = static_cast<NodeId>(depth_.size()); id < nl_->node_count();
             ++id) {
            const Node& n = nl_->node(id);
            int d = 0;
            switch (n.kind) {
                case GateKind::Input:
                case GateKind::Const0:
                    break;
                case GateKind::And2:
                    d = std::max(depth_[n.a], depth_[n.b]);
                    break;
                case GateKind::Xor2:
                    d = 1 + std::max(depth_[n.a], depth_[n.b]);
                    break;
            }
            depth_.push_back(d);
        }
    }

    Netlist* nl_;
    std::vector<int> depth_;
    std::vector<Item> heap_;
};

/// The rebuild shared by balance_xor_trees and extract_common_xor_pairs:
/// copies `src` into `dst` node by node, flattening each XOR root through
/// its single-fanout XOR children and rebuilding it depth-optimally over the
/// (possibly deep) units.  Multi-fanout XOR nodes stay shared units.
class BalancedRebuild {
public:
    BalancedRebuild(const Netlist& src, Netlist& dst)
        : src_{&src},
          dst_{&dst},
          memo_{seed_inputs(src, dst)},
          fanout_{src.fanout_counts()},
          builder_{dst} {}

    /// True when `id` is an XOR child the flattening may expand through.
    [[nodiscard]] bool single_fanout(NodeId id) const { return fanout_[id] <= 1; }

    MinDepthXorBuilder& builder() { return builder_; }

    /// The new id of `src` node `id`, rebuilding its cone on first use.
    NodeId operator()(NodeId id) {
        if (memo_[id] != kInvalidNode) {
            return memo_[id];
        }
        const Node& n = src_->node(id);
        NodeId result = kInvalidNode;
        switch (n.kind) {
            case GateKind::Input:
                result = memo_[id];
                break;
            case GateKind::Const0:
                result = dst_->const0();
                break;
            case GateKind::And2:
                result = dst_->make_and((*this)(n.a), (*this)(n.b));
                break;
            case GateKind::Xor2: {
                const auto leaves = xor_leaves(
                    *src_, id, [this](NodeId x) { return single_fanout(x); });
                std::vector<NodeId> new_leaves;
                new_leaves.reserve(leaves.size());
                for (const NodeId leaf : leaves) {
                    new_leaves.push_back((*this)(leaf));
                }
                result = builder_.build(new_leaves);
                break;
            }
        }
        memo_[id] = result;
        return result;
    }

private:
    const Netlist* src_;
    Netlist* dst_;
    std::vector<NodeId> memo_;
    std::vector<int> fanout_;
    MinDepthXorBuilder builder_;
};

/// Builds XOR trees that map *perfectly* onto K-input LUTs: leaves are
/// greedily packed into chunks whose combined input support stays within 6
/// wires (one LUT), then chunk roots are packed 6-at-a-time, 6-ary-Huffman
/// style (lowest LUT level first).  This is technology-aware tree
/// construction — the restructuring a LUT-oriented synthesis tool performs
/// on flat XOR equations.
///
/// Allocation-free in steady state: supports are fixed arrays of <= 6 ids
/// with a 64-bit signature, memoized in dense NodeId-indexed caches, and the
/// work list is kept sorted by (level, insertion order) across rounds.
class LutAwareXorBuilder {
public:
    explicit LutAwareXorBuilder(Netlist& nl) : nl_{&nl} {}

    static constexpr int kLutInputs = 6;

    NodeId build(const std::vector<NodeId>& leaves) {
        if (leaves.empty()) {
            return nl_->const0();
        }
        items_.clear();
        int seq = 0;
        for (const NodeId leaf : leaves) {
            const int level = level_of(leaf);
            items_.push_back(Item{level, seq++, leaf, false, effective_support(leaf)});
        }
        // (level, seq) keys are unique, so this order is fully determined;
        // each round below keeps it by compaction plus one in-order insert.
        std::sort(items_.begin(), items_.end(), [](const Item& x, const Item& y) {
            return std::tie(x.level, x.seq) < std::tie(y.level, y.seq);
        });
        while (items_.size() > 1) {
            // Seed the chunk with the shallowest item, then repeatedly absorb
            // the remaining item sharing the most wires with the chunk (e.g.
            // several partial products over the same few a/b wires land in
            // one LUT), while the union support fits.  Ties go to the
            // earliest item.
            chunk_.assign(1, items_[0].node);
            Support support = items_[0].support;
            int chunk_level = items_[0].level;
            items_[0].taken = true;
            while (support.size < kLutInputs) {
                std::size_t best = items_.size();
                int best_overlap = -1;
                for (std::size_t i = 1; i < items_.size(); ++i) {
                    const Item& item = items_[i];
                    if (item.taken) {
                        continue;
                    }
                    const int overlap = fitting_overlap(support, item.support);
                    if (overlap > best_overlap) {
                        best_overlap = overlap;
                        best = i;
                    }
                }
                if (best == items_.size()) {
                    break;  // nothing else fits
                }
                Item& absorbed = items_[best];
                absorbed.taken = true;
                support = merge_supports(support, absorbed.support);
                chunk_.push_back(absorbed.node);
                chunk_level = std::max(chunk_level, absorbed.level);
            }
            NodeId root = kInvalidNode;
            int root_level = 0;
            if (chunk_.size() == 1) {
                // Nothing fits beside it (an already-wide wire): pair the two
                // shallowest wires instead so the loop always progresses.
                root = nl_->make_xor(items_[0].node, items_[1].node);
                root_level = std::max(items_[0].level, items_[1].level) + 1;
                items_[1].taken = true;
            } else {
                root = nl_->make_xor_tree(chunk_, TreeShape::Balanced);
                root_level = chunk_level + 1;
            }
            grow_caches();
            if (chunk_.size() > 1) {
                support_[root] = support;  // chunk root cone fits one LUT
            }
            level_[root] = root_level;
            std::erase_if(items_, [](const Item& item) { return item.taken; });
            const auto at = std::upper_bound(
                items_.begin(), items_.end(), root_level,
                [](int level, const Item& item) { return level < item.level; });
            items_.insert(at, Item{root_level, seq++, root, false, effective_support(root)});
        }
        return items_[0].node;
    }

private:
    /// Support size meaning "none": not computed yet in the cache, or
    /// wider than one LUT as a merge result.
    static constexpr std::uint8_t kNoSupport = 0xFF;

    /// Sorted input wires of a cone (at most kLutInputs) plus a 64-bit
    /// signature: one hashed bit per id, so popcount(sig) <= size.
    struct Support {
        std::array<NodeId, kLutInputs> ids{};
        std::uint8_t size = kNoSupport;
        std::uint64_t sig = 0;
    };

    /// A work-list entry.  The support is copied in once: a node's support
    /// never changes (the value stored at a chunk root is the union its
    /// fanins give anyway).
    struct Item {
        int level;
        int seq;
        NodeId node;
        bool taken;  ///< absorbed into this round's chunk
        Support support;
    };

    static Support singleton(NodeId id) {
        Support s;
        s.ids[0] = id;
        s.size = 1;
        s.sig = std::uint64_t{1} << ((id * 0x9E3779B97F4A7C15ULL) >> 58U);
        return s;
    }

    /// |a & b| when |a | b| fits one LUT, -1 otherwise.  The signature
    /// union's popcount never exceeds the union's size, so a popcount over
    /// kLutInputs rejects exactly.
    static int fitting_overlap(const Support& a, const Support& b) {
        if ((a.sig & b.sig) == 0) {
            return a.size + b.size <= kLutInputs ? 0 : -1;  // no common id
        }
        if (std::popcount(a.sig | b.sig) > kLutInputs) {
            return -1;
        }
        std::array<NodeId, kLutInputs> common{};
        const auto overlap = static_cast<int>(
            std::set_intersection(a.ids.begin(), a.ids.begin() + a.size, b.ids.begin(),
                                  b.ids.begin() + b.size, common.begin()) -
            common.begin());
        return a.size + b.size - overlap <= kLutInputs ? overlap : -1;
    }

    /// Sorted union of two supports; size kNoSupport when it exceeds one LUT.
    static Support merge_supports(const Support& a, const Support& b) {
        std::array<NodeId, 2 * kLutInputs> both{};
        const auto size = static_cast<int>(
            std::set_union(a.ids.begin(), a.ids.begin() + a.size, b.ids.begin(),
                           b.ids.begin() + b.size, both.begin()) -
            both.begin());
        Support out;
        if (size <= kLutInputs) {
            std::copy_n(both.begin(), size, out.ids.begin());
            out.size = static_cast<std::uint8_t>(size);
            out.sig = a.sig | b.sig;
        }
        return out;
    }

    void grow_caches() {
        if (support_.size() < nl_->node_count()) {
            support_.resize(nl_->node_count());
            level_.resize(nl_->node_count(), -1);
        }
    }

    /// Input wires a cone needs if absorbed into a LUT; {self} when the cone
    /// is already wider than one LUT (it becomes a LUT output wire).
    Support effective_support(NodeId id) {
        grow_caches();
        if (support_[id].size != kNoSupport) {
            return support_[id];
        }
        const Node& n = nl_->node(id);
        Support result;
        switch (n.kind) {
            case GateKind::Input:
                result = singleton(id);
                break;
            case GateKind::Const0:
                result.size = 0;
                break;
            case GateKind::And2:
            case GateKind::Xor2: {
                result = merge_supports(effective_support(n.a), effective_support(n.b));
                if (result.size == kNoSupport) {
                    result = singleton(id);  // too wide: a LUT boundary forms here
                }
                break;
            }
        }
        support_[id] = result;
        return result;
    }

    /// LUT levels this cone needs (0 = wire/input, 1 = fits one LUT, ...).
    int level_of(NodeId id) {
        grow_caches();
        if (level_[id] >= 0) {
            return level_[id];
        }
        const Node& n = nl_->node(id);
        int level = 0;
        if (n.kind == GateKind::And2 || n.kind == GateKind::Xor2) {
            const Support support = effective_support(id);
            if (!(support.size == 1 && support.ids[0] == id)) {
                level = 1;  // whole cone absorbable into one LUT
            } else {
                level = 1 + std::max(level_of(n.a), level_of(n.b));
            }
        }
        level_[id] = level;
        return level;
    }

    Netlist* nl_;
    std::vector<Support> support_;  ///< by NodeId; size kNoSupport = not computed yet
    std::vector<int> level_;        ///< by NodeId; -1 = not yet computed
    std::vector<Item> items_;       ///< work list, sorted by (level, seq)
    std::vector<NodeId> chunk_;
};

}  // namespace

Netlist dce(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    for (const auto& port : nl.outputs()) {
        out.add_output(port.name, rebuild_plain(nl, out, memo, port.node));
    }
    return out;
}

Netlist balance_xor_trees(const Netlist& nl) {
    Netlist out;
    BalancedRebuild rebuild{nl, out};
    for (const auto& port : nl.outputs()) {
        out.add_output(port.name, rebuild(port.node));
    }
    return out;
}

Netlist flatten_to_anf(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    LutAwareXorBuilder builder{out};

    for (const auto& port : nl.outputs()) {
        const Node& n = nl.node(port.node);
        if (n.kind != GateKind::Xor2) {
            out.add_output(port.name, rebuild_plain(nl, out, memo, port.node));
            continue;
        }
        // Expand through EVERY XOR node (shared or not): only the AND-level
        // leaves of the reduced ANF survive.
        const auto leaves = xor_leaves(nl, port.node, [](NodeId) { return true; });
        std::vector<NodeId> new_leaves;
        new_leaves.reserve(leaves.size());
        for (const NodeId leaf : leaves) {
            new_leaves.push_back(rebuild_plain(nl, out, memo, leaf));
        }
        // Id order == creation order: products created together (e.g. the two
        // halves of a z term) stay adjacent, so identical subtrees reappear
        // across outputs and unify in the structural hash.
        std::sort(new_leaves.begin(), new_leaves.end());
        out.add_output(port.name, builder.build(new_leaves));
    }
    return out;
}

Netlist group_common_cones(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    LutAwareXorBuilder builder{out};

    // 1. Full ANF leaf lists per output (old ids), duplicates cancelled.
    const int n_outputs = static_cast<int>(nl.outputs().size());
    std::vector<std::vector<NodeId>> old_lists(static_cast<std::size_t>(n_outputs));
    std::vector<NodeId> plain_outputs(static_cast<std::size_t>(n_outputs), kInvalidNode);
    for (int oi = 0; oi < n_outputs; ++oi) {
        const NodeId root = nl.outputs()[static_cast<std::size_t>(oi)].node;
        if (nl.node(root).kind == GateKind::Xor2) {
            old_lists[static_cast<std::size_t>(oi)] =
                xor_leaves(nl, root, [](NodeId) { return true; });
        } else {
            plain_outputs[static_cast<std::size_t>(oi)] =
                rebuild_plain(nl, out, memo, root);
        }
    }

    // 2. Output signature per leaf.
    std::unordered_map<NodeId, std::vector<int>> signature;
    for (int oi = 0; oi < n_outputs; ++oi) {
        for (const NodeId leaf : old_lists[static_cast<std::size_t>(oi)]) {
            signature[leaf].push_back(oi);
        }
    }

    // 3. Leaves sharing a signature become one group, built once.
    std::map<std::vector<int>, std::vector<NodeId>> groups;
    for (auto& [leaf, sig] : signature) {
        groups[sig].push_back(leaf);
    }
    std::vector<std::vector<NodeId>> final_lists(static_cast<std::size_t>(n_outputs));
    for (auto& [sig, leaves] : groups) {
        std::sort(leaves.begin(), leaves.end());  // old-id order: pairs stay adjacent
        std::vector<NodeId> new_leaves;
        new_leaves.reserve(leaves.size());
        for (const NodeId leaf : leaves) {
            new_leaves.push_back(rebuild_plain(nl, out, memo, leaf));
        }
        std::sort(new_leaves.begin(), new_leaves.end());
        const NodeId unit = builder.build(new_leaves);
        for (const int oi : sig) {
            final_lists[static_cast<std::size_t>(oi)].push_back(unit);
        }
    }

    // 4. Rebuild each output over its group units.
    for (int oi = 0; oi < n_outputs; ++oi) {
        const auto& port = nl.outputs()[static_cast<std::size_t>(oi)];
        if (plain_outputs[static_cast<std::size_t>(oi)] != kInvalidNode) {
            out.add_output(port.name, plain_outputs[static_cast<std::size_t>(oi)]);
        } else {
            out.add_output(port.name,
                           builder.build(final_lists[static_cast<std::size_t>(oi)]));
        }
    }
    return out;
}

Netlist extract_common_xor_pairs(const Netlist& nl, int min_count) {
    Netlist out;
    BalancedRebuild rebuild{nl, out};

    // 1. Flatten every output into a list of leaves in the *new* netlist.
    //    Expansion stops at non-XOR nodes and at shared (multi-fanout) XOR
    //    subterms, which are rebuilt as units via balance-style recursion.
    std::vector<std::vector<NodeId>> lists;   // sorted leaf lists, new ids
    lists.reserve(nl.outputs().size());
    for (const auto& port : nl.outputs()) {
        const Node& n = nl.node(port.node);
        std::vector<NodeId> new_leaves;
        if (n.kind == GateKind::Xor2) {
            const auto leaves = xor_leaves(
                nl, port.node, [&](NodeId x) { return rebuild.single_fanout(x); });
            for (const NodeId leaf : leaves) {
                new_leaves.push_back(rebuild(leaf));
            }
        } else {
            new_leaves.push_back(rebuild(port.node));
        }
        std::sort(new_leaves.begin(), new_leaves.end());
        lists.push_back(std::move(new_leaves));
    }

    // 2. Greedy fast-extract.  Only leaves appearing in >= 2 lists can form a
    //    pair with count >= 2, so everything else is skipped when counting.
    std::unordered_map<NodeId, std::vector<int>> occ;  // leaf -> list indices
    for (int li = 0; li < static_cast<int>(lists.size()); ++li) {
        for (const NodeId leaf : lists[li]) {
            occ[leaf].push_back(li);
        }
    }
    auto is_shared = [&](NodeId leaf) {
        const auto it = occ.find(leaf);
        return it != occ.end() && it->second.size() >= 2;
    };
    auto list_contains = [&](int li, NodeId leaf) {
        return std::binary_search(lists[li].begin(), lists[li].end(), leaf);
    };

    std::unordered_map<std::uint64_t, int> pair_count;
    for (const auto& list : lists) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (!is_shared(list[i])) {
                continue;
            }
            for (std::size_t j = i + 1; j < list.size(); ++j) {
                if (is_shared(list[j])) {
                    ++pair_count[pair_key(list[i], list[j])];
                }
            }
        }
    }

    using HeapItem = std::pair<int, std::uint64_t>;  // (count, pair key)
    std::priority_queue<HeapItem> heap;
    for (const auto& [key, count] : pair_count) {
        if (count >= 2) {
            heap.emplace(count, key);
        }
    }

    auto erase_from_list = [](std::vector<NodeId>& list, NodeId leaf) {
        const auto it = std::lower_bound(list.begin(), list.end(), leaf);
        if (it != list.end() && *it == leaf) {
            list.erase(it);
        }
    };
    auto insert_into_list = [](std::vector<NodeId>& list, NodeId leaf) {
        list.insert(std::lower_bound(list.begin(), list.end(), leaf), leaf);
    };

    constexpr int kMaxExtractions = 1 << 18;  // safety valve
    for (int round = 0; round < kMaxExtractions && !heap.empty();) {
        const auto [count, key] = heap.top();
        heap.pop();
        const auto it = pair_count.find(key);
        if (it == pair_count.end()) {
            continue;
        }
        if (it->second != count) {
            if (it->second >= 2) {
                heap.emplace(it->second, key);  // re-queue with current count
            }
            continue;
        }
        if (count < min_count) {
            break;
        }
        const NodeId u = static_cast<NodeId>(key >> 32U);
        const NodeId v = static_cast<NodeId>(key & 0xFFFFFFFFU);

        // Lists containing both u and v.
        std::vector<int> hits;
        for (const int li : occ[u]) {
            if (list_contains(li, u) && list_contains(li, v)) {
                hits.push_back(li);
            }
        }
        std::sort(hits.begin(), hits.end());
        hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
        if (static_cast<int>(hits.size()) < min_count) {
            pair_count.erase(key);
            continue;  // counts went stale; re-derive lazily
        }

        const NodeId w = out.make_xor(u, v);
        for (const int li : hits) {
            auto& list = lists[li];
            // Remove stale pair contributions of u and v with this list.
            for (const NodeId x : list) {
                if (x == u || x == v || !is_shared(x)) {
                    continue;
                }
                for (const NodeId y : {u, v}) {
                    const auto pit = pair_count.find(pair_key(x, y));
                    if (pit != pair_count.end()) {
                        --pit->second;
                    }
                }
            }
            const auto uv = pair_count.find(pair_key(u, v));
            if (uv != pair_count.end()) {
                --uv->second;
            }
            erase_from_list(list, u);
            erase_from_list(list, v);
            // New pairs with w.
            for (const NodeId x : list) {
                if (is_shared(x) || x == w) {
                    const int c = ++pair_count[pair_key(x, w)];
                    if (c >= 2) {
                        heap.emplace(c, pair_key(x, w));
                    }
                }
            }
            insert_into_list(list, w);
            occ[w].push_back(li);
        }
        ++round;
    }

    // 3. Depth-aware rebuild of every output over its final leaf list.
    for (std::size_t oi = 0; oi < nl.outputs().size(); ++oi) {
        out.add_output(nl.outputs()[oi].name, rebuild.builder().build(lists[oi]));
    }
    return out;
}

Netlist synthesize(const Netlist& nl, const SynthOptions& options) {
    Netlist current = dce(nl);
    if (options.group_cones) {
        current = group_common_cones(current);
    } else if (options.flatten_anf) {
        current = flatten_to_anf(current);
    }
    if (options.extract_pairs) {
        current = extract_common_xor_pairs(current, options.cse_min_count);
    }
    if (options.balance && !(options.flatten_anf || options.group_cones)) {
        current = balance_xor_trees(current);  // the rebuilds above are min-depth
    }
    return current;
}

}  // namespace gfr::netlist
