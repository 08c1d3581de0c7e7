#include "netlist/equivalence.h"

#include "exec/program.h"
#include "verify/campaign.h"

#include <bit>
#include <optional>
#include <span>
#include <stdexcept>

namespace gfr::netlist {

std::string Mismatch::to_string() const {
    std::string out = "output '" + output_name + "': lhs=" +
                      std::to_string(static_cast<int>(lhs_value)) + " rhs=" +
                      std::to_string(static_cast<int>(rhs_value)) + " inputs=";
    if (input_names.size() == input_bits.size()) {
        for (std::size_t i = 0; i < input_bits.size(); ++i) {
            if (i != 0) {
                out += ' ';
            }
            out += input_names[i];
            out += '=';
            out += static_cast<char>('0' + input_bits[i]);
        }
    } else {
        for (const auto bit : input_bits) {
            out += static_cast<char>('0' + bit);
        }
    }
    out += verify::repro_suffix(campaign_seed, sweep_index, random_regime);
    return out;
}

namespace {

/// rhs input index for each lhs input, matched by name.
std::vector<int> match_ports(const std::vector<Port>& lhs, const std::vector<Port>& rhs,
                             const char* what) {
    if (lhs.size() != rhs.size()) {
        throw std::invalid_argument{std::string{"check_equivalence: "} + what +
                                    " count differs"};
    }
    std::vector<int> map(lhs.size(), -1);
    for (std::size_t i = 0; i < lhs.size(); ++i) {
        for (std::size_t j = 0; j < rhs.size(); ++j) {
            if (lhs[i].name == rhs[j].name) {
                map[i] = static_cast<int>(j);
                break;
            }
        }
        if (map[i] < 0) {
            throw std::invalid_argument{std::string{"check_equivalence: "} + what +
                                        " '" + lhs[i].name + "' missing on rhs"};
        }
    }
    return map;
}

/// One campaign worker's private buffers, sized for up to `blocks` blocks
/// of 64 lanes: execution scratch for the two shared compiled tapes, the rhs
/// input words (the lhs words permuted by port name) and both outputs.  The
/// Programs themselves are immutable and shared by every worker — the same
/// explicit-scratch discipline the field engine follows.
struct SweepBuffers {
    SweepBuffers(std::size_t n, std::size_t n_out, int blocks)
        : rhs_in(n * static_cast<std::size_t>(blocks), 0),
          lhs_out(n_out * static_cast<std::size_t>(blocks), 0),
          rhs_out(n_out * static_cast<std::size_t>(blocks), 0) {}

    exec::Program::Scratch lhs_scratch;
    exec::Program::Scratch rhs_scratch;
    std::vector<std::uint64_t> rhs_in;
    std::vector<std::uint64_t> lhs_out;
    std::vector<std::uint64_t> rhs_out;
};

}  // namespace

std::optional<Mismatch> check_equivalence(const Netlist& lhs, const Netlist& rhs,
                                          const EquivalenceOptions& options) {
    const auto in_map = match_ports(lhs.inputs(), rhs.inputs(), "input");
    const auto out_map = match_ports(lhs.outputs(), rhs.outputs(), "output");

    // Both netlists compile once into liveness-scheduled tapes; the campaign
    // workers share the immutable Programs and own only execution scratch.
    const exec::Program lhs_prog = exec::Program::compile(lhs);
    const exec::Program rhs_prog = exec::Program::compile(rhs);

    const std::size_t n = lhs.inputs().size();
    const std::size_t n_out = lhs.outputs().size();
    const auto schedule = verify::BlockSchedule::over(
        static_cast<int>(n), options.max_exhaustive_inputs,
        static_cast<std::uint64_t>(options.random_sweeps), options.seed);

    // Each sweep runs both tapes over its blocks and scans them in ascending
    // order, so the reported mismatch is the first one a block-at-a-time
    // scan would find — batching never changes the counterexample.
    const auto make_check = [&](int) {
        return [&, buf = SweepBuffers{n, n_out, schedule.grouping.group}](
                   std::span<const std::uint64_t> lhs_in, int blocks,
                   int& failed_block) mutable -> std::optional<Mismatch> {
            for (std::size_t b = 0; b < static_cast<std::size_t>(blocks); ++b) {
                for (std::size_t i = 0; i < n; ++i) {
                    buf.rhs_in[b * n + static_cast<std::size_t>(in_map[i])] =
                        lhs_in[b * n + i];
                }
            }
            lhs_prog.run(lhs_in, std::span{buf.lhs_out}.first(n_out * blocks),
                         buf.lhs_scratch, blocks);
            rhs_prog.run(std::span{buf.rhs_in}.first(n * blocks),
                         std::span{buf.rhs_out}.first(n_out * blocks), buf.rhs_scratch,
                         blocks);
            for (int b = 0; b < blocks; ++b) {
                const std::uint64_t* lo = buf.lhs_out.data() + b * n_out;
                const std::uint64_t* ro = buf.rhs_out.data() + b * n_out;
                const std::uint64_t* li = lhs_in.data() + b * n;
                for (std::size_t o = 0; o < n_out; ++o) {
                    const auto r = static_cast<std::size_t>(out_map[o]);
                    const std::uint64_t diff = lo[o] ^ ro[r];
                    if (diff == 0) {
                        continue;
                    }
                    const int lane = std::countr_zero(diff);
                    Mismatch mm;
                    mm.output_name = lhs.outputs()[o].name;
                    mm.lhs_value = (lo[o] >> lane) & 1U;
                    mm.rhs_value = (ro[r] >> lane) & 1U;
                    mm.input_bits.resize(n);
                    mm.input_names.resize(n);
                    for (std::size_t i = 0; i < n; ++i) {
                        mm.input_bits[i] = static_cast<std::uint8_t>((li[i] >> lane) & 1U);
                        mm.input_names[i] = lhs.inputs()[i].name;
                    }
                    failed_block = b;
                    return mm;
                }
            }
            return std::nullopt;
        };
    };
    return verify::Campaign::first_failure<Mismatch>(schedule, options.threads,
                                                     make_check);
}

}  // namespace gfr::netlist
