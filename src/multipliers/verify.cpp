#include "multipliers/verify.h"

#include "exec/program.h"
#include "exec/run_kernels.h"
#include "multipliers/product_layer.h"
#include "verify/campaign.h"
#include "verify/lane_reference.h"

#include <bit>
#include <memory>
#include <random>
#include <stdexcept>

namespace gfr::mult {

using field::Field;
using gf2::Poly;

std::string VerifyFailure::to_string() const {
    return "c" + std::to_string(coefficient) + " mismatch: netlist=" +
           std::to_string(static_cast<int>(netlist_bit)) + " reference=" +
           std::to_string(static_cast<int>(reference_bit)) + " for A=" +
           a.to_string() + ", B=" + b.to_string() +
           verify::repro_suffix(campaign_seed, sweep_index, random_regime);
}

namespace {

/// The field element carried by `lane` across m input words starting at
/// `offset` (failure reporting and the oracle anchor, off the hot path).
Poly element_from_lane(std::span<const std::uint64_t> words, int offset, int m,
                       int lane) {
    std::vector<std::uint64_t> bits(static_cast<std::size_t>((m + 63) / 64), 0);
    for (int i = 0; i < m; ++i) {
        if ((words[static_cast<std::size_t>(offset + i)] >> lane) & 1U) {
            bits[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1} << (i % 64);
        }
    }
    Poly out;
    out.assign_words(bits);
    return out;
}

/// Everything one campaign worker owns beside the input words the campaign
/// driver fills: execution scratch for the shared compiled tape, the sweep's
/// output words (sized for up to `blocks` blocks of 64 lanes), the
/// fused-oracle buffers and the lane-reference scratch for failure
/// extraction.  The Program, Field and LaneReference stay shared and
/// immutable; workers never contend, and sweeps are allocation-free in
/// steady state.
struct SweepWorker {
    SweepWorker(int m, int blocks)
        : out_words(static_cast<std::size_t>(m) * blocks, 0),
          oracle_diff(static_cast<std::size_t>(blocks), 0),
          oracle_work(static_cast<std::size_t>(8 * m + 64), 0) {}

    exec::Program::Scratch exec_scratch;
    std::vector<std::uint64_t> out_words;
    std::vector<std::uint64_t> want_words;      // lane-major reference products
    std::vector<std::uint64_t> oracle_diff;     // per-block diff flags
    std::vector<std::uint64_t> oracle_work;     // >= 8m+64 kernel scratch words
    verify::LaneReference::Scratch lane_scratch;
};

/// Re-check one 64-lane block the fused oracle flagged, through the scalar
/// LaneReference — the verdict authority.  The failure reported is the
/// lane-major first one (lowest lane, then lowest coefficient), matching a
/// bit-serial scan of the 64 assignments; nullopt when the block is clean.
std::optional<VerifyFailure> check_block(SweepWorker& w,
                                         const verify::LaneReference& laneref,
                                         std::span<const std::uint64_t> in,
                                         std::span<const std::uint64_t> out) {
    const int m = laneref.m();
    // Bitsliced reference: all 64 products in m^2 word ops, already
    // lane-major, for any word count.
    laneref.products(in, w.want_words, w.lane_scratch);
    std::uint64_t diff_any = 0;
    for (int k = 0; k < m; ++k) {
        diff_any |= out[static_cast<std::size_t>(k)] ^
                    w.want_words[static_cast<std::size_t>(k)];
    }
    if (diff_any == 0) {
        return std::nullopt;
    }
    const int lane = std::countr_zero(diff_any);
    for (int k = 0; k < m; ++k) {
        const bool got_bit = (out[static_cast<std::size_t>(k)] >> lane) & 1U;
        const bool want_bit = (w.want_words[static_cast<std::size_t>(k)] >> lane) & 1U;
        if (got_bit != want_bit) {
            return VerifyFailure{element_from_lane(in, 0, m, lane),
                                 element_from_lane(in, m, m, lane), k, got_bit,
                                 want_bit};
        }
    }
    return std::nullopt;  // unreachable: diff_any had a set bit
}

/// Everything check_sweep needs beyond the worker: the shared tape, the
/// LaneReference, the fused oracle kernel with its reduction view, and the
/// backend pin.  Built once per verifier.
struct SweepPlan {
    const exec::Program* prog = nullptr;
    const verify::LaneReference* laneref = nullptr;
    /// Fused sweep oracle of the same backend rung as the tape executor
    /// (scalar when forced or quarantined).
    exec::OracleRunFn oracle_fn = nullptr;
    exec::SweepOracleView oracle_view;
    std::optional<exec::Backend> backend;
};

/// Execute the tape over the sweep's `blocks` input blocks and check them in
/// ascending order (so batching never changes which failure is first).  The
/// success path is one fused oracle call over the whole sweep (per-block
/// diff flags); a flagged block is re-extracted through the scalar
/// LaneReference in check_block, which stays the verdict authority — block
/// order and the lane-major first-failure rule are untouched.  On failure
/// failed_block is the in-sweep block index, from which the campaign driver
/// reports width-1 coordinates.
std::optional<VerifyFailure> check_sweep(SweepWorker& w, const SweepPlan& plan,
                                         std::span<const std::uint64_t> in, int blocks,
                                         int& failed_block) {
    const int m = plan.laneref->m();
    const std::size_t n_in = static_cast<std::size_t>(2 * m);
    const std::size_t n_out = static_cast<std::size_t>(m);
    const auto out = std::span{w.out_words}.first(n_out * blocks);
    if (plan.backend.has_value()) {
        plan.prog->run(in, out, w.exec_scratch, blocks, *plan.backend);
    } else {
        plan.prog->run(in, out, w.exec_scratch, blocks);
    }
    plan.oracle_fn(plan.oracle_view, in.data(), w.out_words.data(),
                   w.oracle_diff.data(), w.oracle_work.data(), blocks);
    for (int b = 0; b < blocks; ++b) {
        if (w.oracle_diff[static_cast<std::size_t>(b)] == 0) {
            continue;
        }
        auto failure = check_block(w, *plan.laneref, in.subspan(b * n_in, n_in),
                                   out.subspan(b * n_out, n_out));
        if (failure.has_value()) {
            failed_block = b;
            return failure;
        }
        // The scalar re-check found nothing: a conservative vector flag
        // never fails a verdict — keep scanning.
    }
    return std::nullopt;
}

}  // namespace

/// Everything campaign-independent, prepared once at construction: the
/// compiled tape, the anchored oracles, the resolved sweep plan and the
/// block schedule.  run() shares all of it across campaigns.
struct MultiplierVerifier::Impl {
    explicit Impl(const Field& field) : laneref{field} {}

    int threads = 0;
    exec::Program prog;
    verify::LaneReference laneref;
    SweepPlan plan;
    verify::BlockSchedule schedule;
};

MultiplierVerifier::~MultiplierVerifier() = default;
MultiplierVerifier::MultiplierVerifier(MultiplierVerifier&&) noexcept = default;
MultiplierVerifier& MultiplierVerifier::operator=(MultiplierVerifier&&) noexcept =
    default;

MultiplierVerifier::MultiplierVerifier(const netlist::Netlist& nl,
                                       const Field& field,
                                       const VerifyOptions& options) {
    const int m = field.degree();
    if (static_cast<int>(nl.inputs().size()) != 2 * m ||
        static_cast<int>(nl.outputs().size()) != m) {
        throw std::invalid_argument{"verify_multiplier: port count does not match field"};
    }
    // Interface sanity: inputs must be a0.., b0.. and outputs c0.. in order.
    for (int i = 0; i < m; ++i) {
        if (nl.inputs()[static_cast<std::size_t>(i)].name != a_name(i) ||
            nl.inputs()[static_cast<std::size_t>(m + i)].name != b_name(i) ||
            nl.outputs()[static_cast<std::size_t>(i)].name != coeff_name(i)) {
            throw std::invalid_argument{"verify_multiplier: unexpected port naming"};
        }
    }

    // The sweep oracle is anchored against the fast engine below; anchor
    // the engine itself to the independent reference arithmetic first, so a
    // reduction bug for this particular modulus cannot silently vouch for
    // the oracle.
    {
        std::mt19937_64 oracle_rng{options.seed ^ 0x0A0A0A0AULL};
        for (int i = 0; i < 16; ++i) {
            const Poly a = field.random_element(oracle_rng);
            const Poly b = field.random_element(oracle_rng);
            if (field.mul(a, b) != field.mul_reference(a, b)) {
                throw std::logic_error{
                    "verify_multiplier: fast engine disagrees with reference arithmetic"};
            }
        }
    }

    impl_ = std::make_unique<Impl>(field);
    impl_->threads = options.threads;
    // The netlist compiles once; every run() executes the shared tape.
    impl_->prog = exec::Program::compile(nl);

    // Both regimes batch blocks into bitsliced passes (up to 1024 products
    // per full pass — what the SIMD backends feed on); random block contents
    // stay pinned to their width-1 index, so the batching width never
    // changes a verdict or a repro coordinate.
    impl_->schedule = verify::BlockSchedule::over(
        2 * m, options.max_exhaustive_inputs,
        static_cast<std::uint64_t>(options.random_sweeps), options.seed,
        options.max_batch_blocks > 0 ? options.max_batch_blocks
                                     : exec::Program::kMaxBlocks);

    // The bitsliced lane reference is the sweep oracle's authority; anchor
    // it against the engine on one block of random lanes (the random-regime
    // contents of block kNoFailure, outside every campaign) before trusting
    // it with the campaign.  The anchor extracts each lane as a Poly, so it
    // covers the multi-word regime identically.
    const verify::LaneReference& laneref = impl_->laneref;
    {
        std::vector<std::uint64_t> in(static_cast<std::size_t>(2 * m));
        verify::BlockSchedule{2 * m, false, options.seed, {}}.fill(verify::kNoFailure, 1,
                                                                   in.data());
        std::vector<std::uint64_t> want;
        verify::LaneReference::Scratch scratch;
        laneref.products(in, want, scratch);
        for (int lane = 0; lane < 64; ++lane) {
            const Poly a = element_from_lane(in, 0, m, lane);
            const Poly b = element_from_lane(in, m, m, lane);
            const Poly c = field.mul(a, b);
            for (int k = 0; k < m; ++k) {
                const bool want_bit =
                    (want[static_cast<std::size_t>(k)] >> lane) & 1U;
                if (want_bit != c.coeff(k)) {
                    throw std::logic_error{
                        "verify_multiplier: lane reference disagrees with the engine"};
                }
            }
        }
    }

    // Resolve the sweep plan once: the fused sweep oracle follows the same
    // backend rung as the tape executor (the pinned backend for bench
    // ladders and differential tests, otherwise the screened process-wide
    // dispatch — which already reflects GFR_EXEC_FORCE_SCALAR and any
    // quarantine), so a verdict never mixes an unscreened oracle with a
    // screened tape.  An unavailable pinned backend still throws on the
    // first tape run, before its oracle could execute.
    SweepPlan& plan = impl_->plan;
    plan.prog = &impl_->prog;
    plan.laneref = &laneref;
    plan.backend = options.exec_backend;
    plan.oracle_fn = exec::kTapeScalar.oracle;
    if (options.exec_backend.has_value()) {
        if (const exec::TapeKernel* k = exec::tape_kernel(*options.exec_backend);
            k != nullptr && k->oracle != nullptr) {
            plan.oracle_fn = k->oracle;
        }
    } else {
        plan.oracle_fn = exec::dispatch().kernel->oracle;
    }
    plan.oracle_view = exec::SweepOracleView{laneref.reduction_indices().data(),
                                             laneref.reduction_offsets().data(), m};
}

std::optional<VerifyFailure> MultiplierVerifier::run() const {
    const Impl& im = *impl_;
    const SweepPlan& plan = im.plan;
    const int group = im.schedule.grouping.group;
    return verify::Campaign::first_failure<VerifyFailure>(
        im.schedule, im.threads, [&](int) {
            return [&plan, w = SweepWorker{plan.laneref->m(), group}](
                       std::span<const std::uint64_t> in, int blocks,
                       int& failed_block) mutable {
                return check_sweep(w, plan, in, blocks, failed_block);
            };
        });
}

std::optional<VerifyFailure> verify_multiplier(const netlist::Netlist& nl,
                                               const Field& field,
                                               const VerifyOptions& options) {
    return MultiplierVerifier{nl, field, options}.run();
}

opt::OptResult optimize_and_verify(const netlist::Netlist& nl,
                                   const field::Field& field,
                                   const opt::OptOptions& opt_options,
                                   const VerifyOptions& verify_options) {
    opt::OptResult result = opt::optimize(nl, opt_options);
    if (const auto failure =
            verify_multiplier(result.netlist, field, verify_options)) {
        throw opt::VerificationError("multiplier", failure->to_string());
    }
    return result;
}

}  // namespace gfr::mult
