#ifndef GFR_VERIFY_CAMPAIGN_H
#define GFR_VERIFY_CAMPAIGN_H

// Parallel verification campaign engine.
//
// Every verifier in this repo reduces to the same shape: a space of 64-lane
// "sweeps" (one word-parallel simulation plus a reference comparison), any
// one of which may surface a counterexample.  A Campaign shards that space
// across worker threads while keeping the *result* a pure function of the
// sweep space — never of the thread count or the scheduler:
//
//   - Sweeps are indexed 0..total-1.  Exhaustive regimes use the index as
//     the enumeration block; random regimes derive a per-sweep PRNG seed
//     from (campaign seed, sweep index) via derive_sweep_seed(), so sweep
//     contents are identical no matter which worker runs them.
//   - Workers claim contiguous chunks from an atomic cursor.  Each worker
//     owns its sweep state outright (simulator buffers, FieldOps::Scratch)
//     — the factory is called once per worker — while immutable inputs
//     (the Netlist, the Field) are shared freely.
//   - The first failure publishes its sweep index into an atomic running
//     minimum.  Sweeps at or above the published minimum are skipped, so a
//     failing campaign winds down early; sweeps *below* it are still
//     completed, which is exactly what makes the returned index the global
//     minimum — the same counterexample a single-threaded scan would find.
//
// Every simulation campaign — mult::MultiplierVerifier, netlist::
// check_equivalence and verify::run_fault_campaign — takes its inputs from
// one BlockSchedule: the input words of 64-lane block b are a pure function
// of (seed, b), either the exhaustive enumeration pattern or SweepRng
// seeded with derive_sweep_seed(seed, b), and BlockSchedule::fill is the one
// place that writes them.  Campaign::first_failure drives a schedule end to
// end: it fills each batched sweep, hands it to the caller's comparison,
// and stamps the globally first failure with its width-1 block index.  The
// engine knows nothing about fields or netlists; callers supply only the
// comparison.

#include "exec/program.h"
#include "netlist/simulate.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gfr::verify {

/// Sentinel for "no failing sweep".
inline constexpr std::uint64_t kNoFailure = ~std::uint64_t{0};

struct CampaignOptions {
    /// Worker threads.  <= 0 selects std::thread::hardware_concurrency().
    int threads = 0;
    /// Never spawn more workers than total_sweeps / this (tiny spaces run
    /// inline; a campaign of one sweep is just a function call).  Clients
    /// tune it to per-sweep cost: exhaustive regimes have microsecond
    /// sweeps and keep the default, random regimes pay a full multi-word
    /// product per lane and lower it so a 64-sweep campaign still shards.
    std::uint64_t min_sweeps_per_worker = 64;
    /// Sweeps claimed per atomic cursor fetch.  Large enough to keep the
    /// cursor cold, small enough that early cancellation bites.
    std::uint64_t chunk = 16;
};

/// Minimal value-semantics PRNG for sweep bodies (xorshift64*): identical on
/// every platform, cheap to reseed per sweep.  Deliberately the same
/// generator the test harness uses, so logged seeds replay in either.
class SweepRng {
public:
    explicit SweepRng(std::uint64_t seed) noexcept
        : state_{seed != 0 ? seed : 0x9E3779B97F4A7C15ULL} {}

    std::uint64_t operator()() noexcept {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545F4914F6CDD1DULL;
    }

private:
    std::uint64_t state_;
};

struct BlockSchedule;

/// Deterministic sharded sweep driver.  One Campaign is stateless between
/// runs and may itself be used from several threads at once.
class Campaign {
public:
    /// Runs one sweep; returns true iff it surfaced a failure (the worker
    /// records the payload itself — the engine only tracks the index).
    using SweepFn = std::function<bool(std::uint64_t sweep_index)>;

    /// Called once per worker (ids 0..worker_count-1) to build that
    /// worker's privately-owned SweepFn.
    using WorkerFactory = std::function<SweepFn(int worker_id)>;

    explicit Campaign(CampaignOptions options = {}) : options_{options} {}

    [[nodiscard]] const CampaignOptions& options() const noexcept { return options_; }

    /// Workers run() will actually use for a space of total_sweeps.
    [[nodiscard]] int worker_count(std::uint64_t total_sweeps) const noexcept;

    /// Executes sweeps [0, total_sweeps) and returns the smallest failing
    /// sweep index, or kNoFailure.  Deterministic for a fixed sweep space:
    /// the same index comes back at any thread count.  Exceptions thrown by
    /// the factory or a sweep cancel the campaign and are rethrown (the
    /// first one, by worker id) after every worker has joined.
    std::uint64_t run(std::uint64_t total_sweeps, const WorkerFactory& factory) const;

    /// Runs `schedule` on `threads` workers (<= 0 = hardware concurrency)
    /// and returns the failure of the smallest failing sweep, or nullopt.
    /// `make_check(worker_id)` builds one worker's comparison, a callable
    ///
    ///   std::optional<Failure>(std::span<const std::uint64_t> in, int blocks,
    ///                          int& failed_block)
    ///
    /// that receives the sweep's filled input words (`blocks` blocks,
    /// block-major), scans its blocks in ascending order and, on failure,
    /// sets failed_block to the in-sweep block.  The driver owns the input
    /// words, the per-worker result slots and the worker floor (exhaustive
    /// sweeps are microsecond-cheap and run inline below 64 per worker;
    /// random sweeps shard down to one each), and stamps campaign_seed, the
    /// width-1 sweep_index and random_regime onto the reported Failure — so
    /// it is identical at any thread count, batching width and backend.
    template <class Failure, class MakeCheck>
    static std::optional<Failure> first_failure(const BlockSchedule& schedule,
                                                int threads, const MakeCheck& make_check);

    /// Seed for sweep `sweep_index` of a campaign seeded `campaign_seed`
    /// (splitmix64 over the pair).  Stable across platforms and releases:
    /// regression tests pin its values, because reproducing a logged
    /// counterexample depends on it.
    [[nodiscard]] static std::uint64_t derive_sweep_seed(
        std::uint64_t campaign_seed, std::uint64_t sweep_index) noexcept {
        std::uint64_t z = campaign_seed ^ (sweep_index + 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

private:
    CampaignOptions options_;
};

/// The input space of one simulation campaign: which assignments 64-lane
/// block b carries, and how blocks batch into sweeps.
struct BlockSchedule {
    int n_inputs = 0;
    bool exhaustive = false;
    std::uint64_t seed = 0;  ///< draws random blocks; stamped on every failure
    exec::BlockGrouping grouping;

    /// Exhaustive iff n_inputs <= max_exhaustive_inputs: 2^(n_inputs - 6)
    /// blocks, or one block when n_inputs <= 6 (below six inputs its 64
    /// lanes repeat real assignments).  Otherwise `random_blocks` blocks drawn from
    /// `seed`.  Up to max_group blocks batch into one sweep.
    [[nodiscard]] static BlockSchedule over(int n_inputs, int max_exhaustive_inputs,
                                            std::uint64_t random_blocks,
                                            std::uint64_t seed,
                                            int max_group = exec::Program::kMaxBlocks) {
        const bool exhaustive = n_inputs <= max_exhaustive_inputs;
        const std::uint64_t blocks =
            exhaustive ? (n_inputs <= 6 ? 1 : std::uint64_t{1} << (n_inputs - 6))
                       : random_blocks;
        return {n_inputs, exhaustive, seed, exec::BlockGrouping::over(blocks, max_group)};
    }

    /// Writes the input words of blocks [first_block, first_block + blocks)
    /// block-major, n_inputs words per block.  A block's contents depend on
    /// its own width-1 index only, never on the sweep that batches it, so a
    /// logged index replays at any batching width.
    void fill(std::uint64_t first_block, int blocks, std::uint64_t* words) const {
        const auto n = static_cast<std::size_t>(n_inputs);
        for (int b = 0; b < blocks; ++b) {
            const std::uint64_t block = first_block + static_cast<std::uint64_t>(b);
            std::uint64_t* out = words + static_cast<std::size_t>(b) * n;
            if (exhaustive) {
                for (int i = 0; i < n_inputs; ++i) {
                    out[i] = netlist::exhaustive_pattern(i, block);
                }
            } else {
                SweepRng rng{Campaign::derive_sweep_seed(seed, block)};
                for (std::size_t i = 0; i < n; ++i) {
                    out[i] = rng();
                }
            }
        }
    }
};

template <class Failure, class MakeCheck>
std::optional<Failure> Campaign::first_failure(const BlockSchedule& schedule, int threads,
                                               const MakeCheck& make_check) {
    const exec::BlockGrouping& grouping = schedule.grouping;
    const auto n = static_cast<std::size_t>(schedule.n_inputs);
    const Campaign campaign{{.threads = threads,
                             .min_sweeps_per_worker = schedule.exhaustive ? 64U : 1U}};
    // One slot per worker.  A worker stops at its first failure and sweeps
    // ascend with their blocks, so the smallest stamped sweep_index is the
    // failure of the smallest failing sweep.
    std::vector<std::optional<Failure>> found(
        static_cast<std::size_t>(campaign.worker_count(grouping.total_sweeps)));

    struct Worker {
        std::vector<std::uint64_t> in;
        decltype(make_check(0)) check;
    };
    campaign.run(grouping.total_sweeps, [&](int worker_id) -> SweepFn {
        auto w = std::make_shared<Worker>(
            Worker{std::vector<std::uint64_t>(n * static_cast<std::size_t>(grouping.group)),
                   make_check(worker_id)});
        return [&, w, worker_id](std::uint64_t sweep) -> bool {
            const std::uint64_t first_block = grouping.first_block(sweep);
            const int blocks = grouping.blocks_in_sweep(sweep);
            schedule.fill(first_block, blocks, w->in.data());
            int failed_block = 0;
            std::optional<Failure> failure =
                w->check(std::span<const std::uint64_t>{w->in}.first(
                             n * static_cast<std::size_t>(blocks)),
                         blocks, failed_block);
            if (!failure.has_value()) {
                return false;
            }
            failure->campaign_seed = schedule.seed;
            failure->sweep_index = first_block + static_cast<std::uint64_t>(failed_block);
            failure->random_regime = !schedule.exhaustive;
            found[static_cast<std::size_t>(worker_id)] = std::move(failure);
            return true;
        };
    });
    std::optional<Failure> first;
    for (auto& failure : found) {
        if (failure.has_value() &&
            (!first.has_value() || failure->sweep_index < first->sweep_index)) {
            first = std::move(failure);
        }
    }
    return first;
}

/// The one-line repro recipe every campaign failure string ends with:
/// " [repro: seed=0x.. sweep=.. sweep_seed=0x..]" for random regimes (the
/// sweep seed is derive_sweep_seed over the pair), " [repro: exhaustive
/// sweep=..]" for exhaustive ones, and "" when sweep_index is kNoFailure
/// (no sweep to replay).  Regression tests pin these strings byte for byte.
[[nodiscard]] std::string repro_suffix(std::uint64_t campaign_seed,
                                       std::uint64_t sweep_index, bool random_regime);

}  // namespace gfr::verify

#endif  // GFR_VERIFY_CAMPAIGN_H
