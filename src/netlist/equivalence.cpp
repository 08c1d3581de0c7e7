#include "netlist/equivalence.h"

#include "exec/program.h"
#include "netlist/simulate.h"
#include "verify/campaign.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
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

/// One campaign worker's state: execution scratch for the two shared
/// compiled tapes plus the sweep's input/output buffers (sized for up to
/// `blocks` blocks of 64 lanes).  The Programs themselves are immutable and
/// shared by every worker — only the scratch is private, the same
/// explicit-scratch discipline the field engine follows.
struct SweepContext {
    SweepContext(int n, int n_out, int blocks)
        : lhs_in(static_cast<std::size_t>(n) * blocks, 0),
          rhs_in(static_cast<std::size_t>(n) * blocks, 0),
          lhs_out(static_cast<std::size_t>(n_out) * blocks, 0),
          rhs_out(static_cast<std::size_t>(n_out) * blocks, 0) {}

    exec::Program::Scratch lhs_scratch;
    exec::Program::Scratch rhs_scratch;
    std::vector<std::uint64_t> lhs_in;
    std::vector<std::uint64_t> rhs_in;
    std::vector<std::uint64_t> lhs_out;
    std::vector<std::uint64_t> rhs_out;
};

/// Runs both tapes over `blocks` blocks loaded in ctx and scans the blocks
/// in ascending order, so the reported mismatch is the first one a
/// block-at-a-time scan would find — grouping blocks into one pass never
/// changes the counterexample.  On mismatch *failed_block is the in-sweep
/// block index, letting the caller report width-1 coordinates.
std::optional<Mismatch> compare_sweep(SweepContext& ctx, const exec::Program& lhs_prog,
                                      const exec::Program& rhs_prog, const Netlist& lhs,
                                      const std::vector<int>& out_map, int blocks,
                                      int* failed_block) {
    const std::size_t n = static_cast<std::size_t>(lhs_prog.input_count());
    const std::size_t n_out = static_cast<std::size_t>(lhs_prog.output_count());
    lhs_prog.run(std::span{ctx.lhs_in}.first(n * blocks),
                 std::span{ctx.lhs_out}.first(n_out * blocks), ctx.lhs_scratch, blocks);
    rhs_prog.run(std::span{ctx.rhs_in}.first(n * blocks),
                 std::span{ctx.rhs_out}.first(n_out * blocks), ctx.rhs_scratch, blocks);
    for (int b = 0; b < blocks; ++b) {
        const std::uint64_t* lhs_out = ctx.lhs_out.data() + b * n_out;
        const std::uint64_t* rhs_out = ctx.rhs_out.data() + b * n_out;
        const std::uint64_t* lhs_in = ctx.lhs_in.data() + b * n;
        for (std::size_t o = 0; o < n_out; ++o) {
            const std::uint64_t diff =
                lhs_out[o] ^ rhs_out[static_cast<std::size_t>(out_map[o])];
            if (diff == 0) {
                continue;
            }
            const int lane = std::countr_zero(diff);
            Mismatch mm;
            mm.output_name = lhs.outputs()[o].name;
            mm.lhs_value = (lhs_out[o] >> lane) & 1U;
            mm.rhs_value = (rhs_out[static_cast<std::size_t>(out_map[o])] >> lane) & 1U;
            mm.input_bits.resize(n);
            mm.input_names.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                mm.input_bits[i] = static_cast<std::uint8_t>((lhs_in[i] >> lane) & 1U);
                mm.input_names[i] = lhs.inputs()[i].name;
            }
            *failed_block = b;
            return mm;
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<Mismatch> check_equivalence(const Netlist& lhs, const Netlist& rhs,
                                          const EquivalenceOptions& options) {
    const auto in_map = match_ports(lhs.inputs(), rhs.inputs(), "input");
    const auto out_map = match_ports(lhs.outputs(), rhs.outputs(), "output");

    const int n = static_cast<int>(lhs.inputs().size());
    const bool exhaustive = n <= options.max_exhaustive_inputs;

    // Both netlists compile once into liveness-scheduled tapes; the campaign
    // workers share the immutable Programs and own only execution scratch.
    const exec::Program lhs_prog = exec::Program::compile(lhs);
    const exec::Program rhs_prog = exec::Program::compile(rhs);

    // Both regimes batch blocks into bitsliced passes (the SIMD backends
    // feed on wide sweeps); random block contents stay pinned to their
    // width-1 index (see exec::BlockGrouping), so batching never changes a
    // verdict or a repro coordinate.
    const std::uint64_t total_blocks =
        exhaustive ? ((n <= 6) ? 1 : (std::uint64_t{1} << (n - 6)))
                   : static_cast<std::uint64_t>(options.random_sweeps);
    const exec::BlockGrouping grouping = exec::BlockGrouping::over(total_blocks);
    const std::uint64_t total_sweeps = grouping.total_sweeps;

    // Same floor policy as verify_multiplier: random sweeps (two batched
    // simulations over dense vectors) shard down to one sweep per worker,
    // tiny exhaustive spaces stay inline.
    verify::Campaign campaign{{.threads = options.threads,
                               .min_sweeps_per_worker = exhaustive ? 64U : 1U}};
    const int workers = campaign.worker_count(total_sweeps);
    std::vector<std::optional<Mismatch>> payload(static_cast<std::size_t>(workers));
    std::vector<std::uint64_t> payload_sweep(static_cast<std::size_t>(workers),
                                             verify::kNoFailure);

    const auto factory = [&](int worker_id) -> verify::Campaign::SweepFn {
        auto ctx = std::make_shared<SweepContext>(n, static_cast<int>(lhs.outputs().size()),
                                                  grouping.group);
        return [&, worker_id, ctx](std::uint64_t sweep) -> bool {
            const std::uint64_t first_block = grouping.first_block(sweep);
            const int blocks = grouping.blocks_in_sweep(sweep);
            if (exhaustive) {
                for (int b = 0; b < blocks; ++b) {
                    for (int i = 0; i < n; ++i) {
                        const std::uint64_t w = exhaustive_pattern(
                            i, first_block + static_cast<std::uint64_t>(b));
                        ctx->lhs_in[static_cast<std::size_t>(b * n + i)] = w;
                        ctx->rhs_in[static_cast<std::size_t>(b * n + in_map[i])] = w;
                    }
                }
            } else {
                // Each block's contents derive from its own width-1 index,
                // never the batched sweep number — a logged sweep_index
                // replays at any batching width.
                for (int b = 0; b < blocks; ++b) {
                    verify::SweepRng rng{verify::Campaign::derive_sweep_seed(
                        options.seed,
                        first_block + static_cast<std::uint64_t>(b))};
                    for (int i = 0; i < n; ++i) {
                        const std::uint64_t w = rng();
                        ctx->lhs_in[static_cast<std::size_t>(b * n + i)] = w;
                        ctx->rhs_in[static_cast<std::size_t>(b * n + in_map[i])] = w;
                    }
                }
            }
            int failed_block = 0;
            auto mm = compare_sweep(*ctx, lhs_prog, rhs_prog, lhs, out_map,
                                    blocks, &failed_block);
            if (mm.has_value()) {
                mm->campaign_seed = options.seed;
                // Width-1 coordinates for both regimes: the failing block's
                // own index, invariant across batching widths and backends.
                mm->sweep_index =
                    first_block + static_cast<std::uint64_t>(failed_block);
                mm->random_regime = !exhaustive;
                payload[static_cast<std::size_t>(worker_id)] = std::move(mm);
                payload_sweep[static_cast<std::size_t>(worker_id)] = sweep;
                return true;
            }
            return false;
        };
    };

    const std::uint64_t failing_sweep = campaign.run(total_sweeps, factory);
    if (failing_sweep == verify::kNoFailure) {
        return std::nullopt;
    }
    for (int w = 0; w < workers; ++w) {
        if (payload_sweep[static_cast<std::size_t>(w)] == failing_sweep) {
            return payload[static_cast<std::size_t>(w)];
        }
    }
    return std::nullopt;  // unreachable: the failing worker recorded its payload
}

}  // namespace gfr::netlist
