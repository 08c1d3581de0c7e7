#ifndef GFR_FPGA_CUT_H
#define GFR_FPGA_CUT_H

// Cuts for K-LUT technology mapping.  A cut of node v is a set of <= K nodes
// ("leaves") such that every path from the primary inputs to v passes through
// a leaf; the cone between leaves and v can then be implemented by one K-LUT.
// Cuts are built bottom-up by merging fanin cuts (Cong & Ding / ABC style).

#include "netlist/netlist.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>

namespace gfr::fpga {

struct Cut {
    static constexpr int kMaxLeaves = 6;

    std::array<netlist::NodeId, kMaxLeaves> leaves{};  // sorted, first `size`
    std::uint8_t size = 0;
    int depth = 0;          ///< LUT levels when this cut implements the node
    double area_flow = 0;   ///< estimated area share (lower = cheaper)
    std::uint64_t signature = 0;  ///< bloom filter of leaves for fast rejects

    /// Single-leaf cut {node} — the node seen as a leaf by its fanouts.
    static Cut trivial(netlist::NodeId node) {
        Cut c;
        c.leaves[0] = node;
        c.size = 1;
        c.signature = std::uint64_t{1} << (node % 64);
        return c;
    }

    /// Union of two cuts if it fits in `k` leaves; nullopt otherwise.
    static std::optional<Cut> merge(const Cut& a, const Cut& b, int k) {
        if (std::popcount(a.signature | b.signature) > k) {
            return std::nullopt;  // at least popcount distinct leaves
        }
        Cut out;
        int ia = 0;
        int ib = 0;
        while (ia < a.size || ib < b.size) {
            netlist::NodeId next = 0;
            if (ib == b.size || (ia < a.size && a.at(ia) < b.at(ib))) {
                next = a.at(ia++);
            } else if (ia == a.size || b.at(ib) < a.at(ia)) {
                next = b.at(ib++);
            } else {
                next = a.at(ia++);
                ++ib;
            }
            if (out.size == k) {
                return std::nullopt;
            }
            out.leaves[out.size++] = next;
        }
        out.signature = a.signature | b.signature;
        return out;
    }

    [[nodiscard]] bool same_leaves(const Cut& other) const {
        return size == other.size && signature == other.signature &&
               std::equal(leaves.begin(), leaves.begin() + size, other.leaves.begin());
    }

    /// True iff every leaf of *this is also a leaf of `other` (dominance:
    /// a smaller cut dominates a larger one with equal quality).
    [[nodiscard]] bool subset_of(const Cut& other) const {
        if (size > other.size || (signature & ~other.signature) != 0) {
            return false;
        }
        int j = 0;
        for (int i = 0; i < size; ++i) {
            while (j < other.size && other.at(j) < at(i)) {
                ++j;
            }
            if (j == other.size || other.at(j) != at(i)) {
                return false;
            }
        }
        return true;
    }

private:
    [[nodiscard]] netlist::NodeId at(int i) const {
        return leaves[static_cast<std::size_t>(i)];
    }
};

}  // namespace gfr::fpga

#endif  // GFR_FPGA_CUT_H
