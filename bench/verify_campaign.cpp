// Verification campaign driver: the paper-style sweep plus the throughput
// numbers behind BENCH_9.json.
//
// Part 1 — Table V campaign: every generator family x every Table V field,
// each verified through the parallel campaign engine over the compiled
// execution layer (exhaustive where the operand space allows, random sweeps
// beyond), printed as a pass/fail + throughput table in the spirit of the
// paper's Table V.  argv[2] overrides the worker-thread count (the CI gate
// runs this with 2); any FAIL exits nonzero.
//
// Part 2 — exhaustive GF(2^8) ladder: all 2^16 products of the paper's
// worked field, swept per tape backend (scalar / AVX2 / AVX-512, whichever
// this build+CPU can run) x batching width {1, 4, 8, 16}, all at 1 thread.
// The one frozen baseline is the PR-5 loop replicated verbatim below:
// scalar tape at the PR-5 batching width of 4, per-block LaneReference
// check (the fused sweep oracle is a PR-9 construct), and the exhaustive
// fill paying the out-of-line pattern-generator call the pre-PR-9 build
// paid — PR-9 both restructured the check and inlined the fill, and letting
// the baseline inherit either would deflate every speedup.
//
// Part 3 — random-regime GF(2^163) ladder, same grid: frozen baseline is
// the same PR-5 loop at width 1 (random sweeps were unbatched before PR-9;
// the random fill was header-inline then as now, so only the check
// structure differs from today's scalar point).
//
// Every ladder point measures CAMPAIGN EXECUTION on a prepared verifier:
// tape compilation and oracle anchoring are one-time setup, hoisted out of
// the timed region for the measured points and the frozen PR-5 baseline
// alike (the fixed ~13us m=8 compile would otherwise cap every per-op
// ratio regardless of how fast the sweeps get).  And every point is GATED
// on verdict correctness: the clean netlist must verify, and a
// fault-injected sibling must report a counterexample string byte-identical
// to the scalar width-1 reference — the measured configuration provably
// preserves both the verdict and the repro coordinates.  Each point keeps
// every repeat: it reports the median, min and max seconds, and every
// products/s figure and speedup comes from medians (a best-of-N minimum
// swung 2.6x-4.6x between back-to-back runs).  The PR-9 acceptance bar is
// >= 2x products/s over the PR-5 baseline at the best single-thread point
// of each ladder.

#include "exec/program.h"
#include "exec/run_kernels.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/clone.h"
#include "verify/campaign.h"
#include "verify/lane_reference.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace gfr {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ThroughputPoint {
    std::string label;
    std::string backend;
    int width = 0;  ///< batching width
    int threads = 1;
    double seconds = 0;      ///< median over the repeats
    double min_seconds = 0;
    double max_seconds = 0;
    double products_per_sec = 0;  ///< from the median
    bool ok = false;               ///< clean netlist verified
    bool repro_invariant = false;  ///< faulted repro string == scalar w1
};

template <typename Fn>
ThroughputPoint measure(const std::string& label, double products, const Fn& run,
                        int repeats) {
    ThroughputPoint p;
    p.label = label;
    p.ok = true;
    std::vector<double> runs;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        p.ok = run() && p.ok;
        runs.push_back(seconds_since(t0));
    }
    std::sort(runs.begin(), runs.end());
    const std::size_t mid = runs.size() / 2;
    p.seconds = runs.size() % 2 != 0 ? runs[mid] : (runs[mid - 1] + runs[mid]) / 2;
    p.min_seconds = runs.front();
    p.max_seconds = runs.back();
    p.products_per_sec = products / p.seconds;
    return p;
}

/// A fault-injected sibling of `good` whose output `index` picks up an
/// extra XOR of input `input` — the fixture each measured configuration
/// must report with the same counterexample string as the scalar width-1
/// reference.
netlist::Netlist faulted_clone(const netlist::Netlist& good, std::size_t index,
                               std::size_t input) {
    return netlist::clone_netlist(
        good, {.intern = true}, nullptr,
        [&](std::size_t i, std::span<const netlist::NodeId> mapped,
            netlist::Netlist& dst) {
            return i == index ? dst.make_xor(mapped[i], dst.inputs()[input].node)
                              : mapped[i];
        });
}

struct LadderSpec {
    const netlist::Netlist* good = nullptr;
    const netlist::Netlist* bad = nullptr;
    const field::Field* field = nullptr;
    double products = 0;
    int repeats = 0;
    mult::VerifyOptions base_opts;  ///< threads/seed/sweeps pinned; width and
                                    ///< backend filled per point
};

/// One backend x width grid over `spec`, each point measured and then
/// gated: the clean verify must pass and the faulted sibling must reproduce
/// `want_repro` byte-for-byte.
std::vector<ThroughputPoint> run_ladder(const LadderSpec& spec,
                                        const std::string& want_repro) {
    std::vector<ThroughputPoint> points;
    for (const exec::TapeKernel* k :
         guard::runnable(exec::tape_ladder(), bulk::detect_cpu())) {
        const exec::Backend backend = k->backend;
        for (const int width : {1, 4, 8, 16}) {
            mult::VerifyOptions opts = spec.base_opts;
            opts.threads = 1;
            opts.max_batch_blocks = width;
            opts.exec_backend = backend;
            const std::string label =
                std::string{exec::backend_name(backend)} + "_w" +
                std::to_string(width);
            const mult::MultiplierVerifier good{*spec.good, *spec.field, opts};
            ThroughputPoint p = measure(
                label, spec.products, [&] { return !good.run().has_value(); },
                spec.repeats);
            p.backend = exec::backend_name(backend);
            p.width = width;
            const auto failure =
                mult::MultiplierVerifier{*spec.bad, *spec.field, opts}.run();
            p.repro_invariant =
                failure.has_value() && failure->to_string() == want_repro;
            points.push_back(std::move(p));
        }
    }
    return points;
}

/// The pre-PR-9 exhaustive pattern generator at PR-5's compilation
/// boundary: it lived out of line in netlist/simulate.cpp then, so every
/// fill store paid a call.  PR-9 moved it into the header as inline; the
/// frozen baseline must not inherit that, hence this noinline replica.
__attribute__((noinline)) std::uint64_t pr5_exhaustive_pattern(
    int input_index, std::uint64_t block) {
    constexpr std::uint64_t kMasks[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
    if (input_index < 6) {
        return kMasks[input_index];
    }
    return ((block >> (input_index - 6)) & 1U) ? ~std::uint64_t{0} : 0;
}

/// Off-hot-path element extraction for the frozen path's failure report,
/// mirroring verify.cpp's element_from_lane.
gf2::Poly pr5_element_from_lane(std::span<const std::uint64_t> words, int offset,
                                int m, int lane) {
    std::vector<std::uint64_t> bits(static_cast<std::size_t>((m + 63) / 64), 0);
    for (int i = 0; i < m; ++i) {
        if ((words[static_cast<std::size_t>(offset + i)] >> lane) & 1U) {
            bits[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1} << (i % 64);
        }
    }
    gf2::Poly out;
    out.assign_words(bits);
    return out;
}

/// The PR-5 verification loop, frozen verbatim: one thread, scalar tape at
/// PR-5's batching width, and per batched block the LaneReference::products
/// + bit-compare check — the pre-fused-oracle check_block semantics, with
/// the exhaustive fill behind its PR-5 call boundary.  Compilation and
/// oracle construction happen once at construction (the same preparation
/// hoist every measured point gets); run() returns the first failure's
/// repro string (width-1 coordinates, same construction as
/// verify_multiplier) so the baseline gates exactly like every ladder
/// point.
struct Pr5Verifier {
    const field::Field* field;
    exec::Program prog;
    verify::LaneReference laneref;

    Pr5Verifier(const netlist::Netlist& nl, const field::Field& f)
        : field{&f}, prog{exec::Program::compile(nl)}, laneref{f} {}

    std::optional<std::string> run(bool exhaustive, int width,
                                   std::uint64_t seed, int sweeps) const;
};

std::optional<std::string> Pr5Verifier::run(bool exhaustive, int width,
                                            std::uint64_t seed,
                                            int sweeps) const {
    const int m = field->degree();
    const std::size_t n_in = static_cast<std::size_t>(2 * m);
    const std::size_t n_out = static_cast<std::size_t>(m);
    const std::uint64_t total_blocks =
        exhaustive ? ((2 * m <= 6) ? 1 : (std::uint64_t{1} << (2 * m - 6)))
                   : static_cast<std::uint64_t>(sweeps);
    const exec::BlockGrouping grouping = exec::BlockGrouping::over(total_blocks, width);
    exec::Program::Scratch scratch;
    std::vector<std::uint64_t> in(n_in * static_cast<std::size_t>(grouping.group), 0);
    std::vector<std::uint64_t> out(n_out * static_cast<std::size_t>(grouping.group), 0);
    std::vector<std::uint64_t> want;
    verify::LaneReference::Scratch lscratch;

    for (std::uint64_t sweep = 0; sweep < grouping.total_sweeps; ++sweep) {
        const std::uint64_t first_block = grouping.first_block(sweep);
        const int blocks = grouping.blocks_in_sweep(sweep);
        for (int b = 0; b < blocks; ++b) {
            const std::uint64_t blk = first_block + static_cast<std::uint64_t>(b);
            if (exhaustive) {
                for (int i = 0; i < 2 * m; ++i) {
                    in[n_in * static_cast<std::size_t>(b) +
                       static_cast<std::size_t>(i)] = pr5_exhaustive_pattern(i, blk);
                }
            } else {
                verify::SweepRng rng{verify::Campaign::derive_sweep_seed(seed, blk)};
                for (int i = 0; i < 2 * m; ++i) {
                    in[n_in * static_cast<std::size_t>(b) +
                       static_cast<std::size_t>(i)] = rng();
                }
            }
        }
        prog.run(std::span{in}.first(n_in * static_cast<std::size_t>(blocks)),
                 std::span{out}.first(n_out * static_cast<std::size_t>(blocks)),
                 scratch, blocks, exec::Backend::Scalar);
        for (int b = 0; b < blocks; ++b) {
            const auto bin = std::span{in}.subspan(n_in * static_cast<std::size_t>(b), n_in);
            const auto bout =
                std::span{out}.subspan(n_out * static_cast<std::size_t>(b), n_out);
            laneref.products(bin, want, lscratch);
            std::uint64_t diff_any = 0;
            for (int k = 0; k < m; ++k) {
                diff_any |= bout[static_cast<std::size_t>(k)] ^
                            want[static_cast<std::size_t>(k)];
            }
            if (diff_any == 0) {
                continue;
            }
            const int lane = std::countr_zero(diff_any);
            for (int k = 0; k < m; ++k) {
                const bool got_bit = (bout[static_cast<std::size_t>(k)] >> lane) & 1U;
                const bool want_bit = (want[static_cast<std::size_t>(k)] >> lane) & 1U;
                if (got_bit == want_bit) {
                    continue;
                }
                mult::VerifyFailure failure{pr5_element_from_lane(bin, 0, m, lane),
                                            pr5_element_from_lane(bin, m, m, lane),
                                            k, got_bit, want_bit};
                failure.campaign_seed = seed;
                failure.sweep_index = first_block + static_cast<std::uint64_t>(b);
                failure.random_regime = !exhaustive;
                return failure.to_string();
            }
        }
    }
    return std::nullopt;
}

/// Measure + gate the frozen PR-5 loop above against the scalar width-1
/// reference repro, exactly like every ladder point.
ThroughputPoint measure_pr5(const LadderSpec& spec, bool exhaustive, int width,
                            const std::string& want_repro) {
    const std::uint64_t seed = spec.base_opts.seed;
    const int sweeps = spec.base_opts.random_sweeps;
    const Pr5Verifier good{*spec.good, *spec.field};
    ThroughputPoint p = measure(
        "pr5_scalar_w" + std::to_string(width), spec.products,
        [&] { return !good.run(exhaustive, width, seed, sweeps).has_value(); },
        spec.repeats);
    p.backend = "scalar-pr5";
    p.width = width;
    const auto repro =
        Pr5Verifier{*spec.bad, *spec.field}.run(exhaustive, width, seed, sweeps);
    p.repro_invariant = repro.has_value() && *repro == want_repro;
    return p;
}

/// The scalar width-1 counterexample string every measured point must
/// reproduce.
std::string reference_repro(const LadderSpec& spec) {
    mult::VerifyOptions opts = spec.base_opts;
    opts.threads = 1;
    opts.max_batch_blocks = 1;
    opts.exec_backend = exec::Backend::Scalar;
    const auto failure = mult::verify_multiplier(*spec.bad, *spec.field, opts);
    if (!failure.has_value()) {
        std::fprintf(stderr, "faulted fixture verified clean — bench is broken\n");
        std::exit(1);
    }
    return failure->to_string();
}

struct SweepRow {
    std::string method;
    std::string field;
    std::string regime;
    double products = 0;
    double seconds = 0;
    double products_per_sec = 0;
    bool pass = false;
};

void print_ladder(const char* title, const std::vector<ThroughputPoint>& ladder,
                  double baseline_seconds, int repeats) {
    std::printf("\n%s (median, min and max of %d runs; speedup of medians vs "
                "frozen PR-5 scalar point)\n",
                title, repeats);
    std::printf("%-22s %6s %12s %12s %12s %16s %9s\n", "path", "width", "median s",
                "min s", "max s", "products/s", "speedup");
    for (const auto& p : ladder) {
        std::printf("%-22s %6d %12.6f %12.6f %12.6f %16.0f %8.2fx  %s%s\n",
                    p.label.c_str(), p.width, p.seconds, p.min_seconds,
                    p.max_seconds, p.products_per_sec, baseline_seconds / p.seconds,
                    p.ok ? "" : "(VERIFY FAILED) ",
                    p.repro_invariant ? "" : "(REPRO DRIFTED)");
    }
}

void json_ladder(std::FILE* json, const char* key, double products,
                 const std::vector<ThroughputPoint>& ladder,
                 double baseline_seconds, const char* baseline_label) {
    std::fprintf(json, "  \"%s\": {\n", key);
    std::fprintf(json, "    \"products\": %.0f,\n    \"baseline\": \"%s\",\n",
                 products, baseline_label);
    std::fprintf(json, "    \"paths\": [\n");
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const auto& p = ladder[i];
        std::fprintf(json,
                     "      {\"path\": \"%s\", \"backend\": \"%s\", \"width\": %d, "
                     "\"threads\": %d, \"seconds\": %.6f, \"min_seconds\": %.6f, "
                     "\"max_seconds\": %.6f, "
                     "\"products_per_sec\": %.0f, \"speedup_vs_pr5\": %.3f, "
                     "\"verdict_ok\": %s, \"repro_invariant\": %s}%s\n",
                     p.label.c_str(), p.backend.c_str(), p.width, p.threads,
                     p.seconds, p.min_seconds, p.max_seconds, p.products_per_sec,
                     baseline_seconds / p.seconds,
                     p.ok ? "true" : "false",
                     p.repro_invariant ? "true" : "false",
                     i + 1 < ladder.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  },\n");
}

/// The best gated point of a ladder (verdict ok + repro invariant).
const ThroughputPoint* best_gated(const std::vector<ThroughputPoint>& ladder) {
    const ThroughputPoint* best = nullptr;
    for (const auto& p : ladder) {
        if (!p.ok || !p.repro_invariant) {
            continue;
        }
        if (best == nullptr || p.products_per_sec > best->products_per_sec) {
            best = &p;
        }
    }
    return best;
}

}  // namespace
}  // namespace gfr

int main(int argc, char** argv) {
    using namespace gfr;
    const std::string json_path = (argc > 1) ? argv[1] : "BENCH_9.json";
    const int thread_override = (argc > 2) ? std::atoi(argv[2]) : 0;
    const int hw = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));

    // --- Part 1: generator family x Table V field campaign ------------------
    std::vector<SweepRow> rows;
    std::printf("Table V verification campaign (compiled tapes, %s threads)\n",
                thread_override > 0 ? std::to_string(thread_override).c_str()
                                    : "auto");
    std::printf("%-14s %-12s %-11s %12s %10s %14s  %s\n", "method", "field", "regime",
                "products", "seconds", "products/s", "verdict");
    for (const auto& info : mult::all_methods()) {
        for (const auto& spec : field::table5_fields()) {
            const field::Field fld = spec.make();
            const auto nl = mult::build_multiplier(info.method, fld);
            mult::VerifyOptions opts;
            opts.threads = thread_override;
            const bool exhaustive = 2 * fld.degree() <= opts.max_exhaustive_inputs;
            const double products =
                exhaustive ? static_cast<double>(std::uint64_t{1} << (2 * fld.degree()))
                           : 64.0 * opts.random_sweeps;
            const auto t0 = Clock::now();
            const auto failure = mult::verify_multiplier(nl, fld, opts);
            const double secs = seconds_since(t0);
            SweepRow row;
            row.method = std::string{info.key};
            row.field = spec.label();
            row.regime = exhaustive ? "exhaustive" : "random";
            row.products = products;
            row.seconds = secs;
            row.products_per_sec = products / secs;
            row.pass = !failure.has_value();
            rows.push_back(row);
            std::printf("%-14s %-12s %-11s %12.0f %10.4f %14.0f  %s\n",
                        row.method.c_str(), row.field.c_str(), row.regime.c_str(),
                        row.products, row.seconds, row.products_per_sec,
                        row.pass ? "PASS" : "FAIL");
        }
    }

    // --- Part 2: exhaustive GF(2^8) backend x width ladder ------------------
    const field::Field gf256 = field::gf256_paper_field();
    const auto nl8 = mult::build_multiplier(mult::Method::Date2018Flat, gf256);
    const auto bad8 = faulted_clone(nl8, 5, 2);
    constexpr int kRepeats8 = 21;

    LadderSpec spec8;
    spec8.good = &nl8;
    spec8.bad = &bad8;
    spec8.field = &gf256;
    spec8.products = 65536.0;
    spec8.repeats = kRepeats8;
    const std::string repro8 = reference_repro(spec8);

    std::vector<ThroughputPoint> ladder8 = run_ladder(spec8, repro8);
    // The frozen PR-5 loop: scalar tape, batching width 4, per-block check,
    // out-of-line exhaustive fill.
    ThroughputPoint pr5_8 = measure_pr5(spec8, true, 4, repro8);
    const double base8 = pr5_8.seconds;
    ladder8.insert(ladder8.begin(), std::move(pr5_8));
    print_ladder("Exhaustive GF(2^8) space: 65536 products", ladder8, base8,
                 kRepeats8);

    // --- Part 3: random-regime GF(2^163) backend x width ladder -------------
    const field::Field gf163 = field::Field::type2(163, 68);
    const auto nl163 = mult::build_multiplier(mult::Method::Date2018Flat, gf163);
    const auto bad163 = faulted_clone(nl163, 56, 3);
    const exec::Program prog163 = exec::Program::compile(nl163);
    const auto stats163 = prog163.stats();
    constexpr int kSweeps163 = 256;
    constexpr int kRepeats163 = 5;

    LadderSpec spec163;
    spec163.good = &nl163;
    spec163.bad = &bad163;
    spec163.field = &gf163;
    spec163.products = 64.0 * kSweeps163;
    spec163.repeats = kRepeats163;
    spec163.base_opts.random_sweeps = kSweeps163;
    spec163.base_opts.seed = 0xD1CEULL;
    const std::string repro163 = reference_repro(spec163);

    std::vector<ThroughputPoint> ladder163 = run_ladder(spec163, repro163);
    // The frozen PR-5 loop: scalar tape, unbatched random sweeps, per-block
    // check.
    ThroughputPoint pr5_163 = measure_pr5(spec163, false, 1, repro163);
    const double base163 = pr5_163.seconds;
    ladder163.insert(ladder163.begin(), std::move(pr5_163));
    print_ladder("Random-regime GF(2^163): 16384 products", ladder163, base163,
                 kRepeats163);
    std::printf(
        "m=163 tape: %zu source nodes -> %zu instructions "
        "(%zu fused ANDs), working set %u slots\n",
        stats163.source_nodes, stats163.instructions, stats163.fused_ands,
        stats163.slots);

    const ThroughputPoint* best8 = best_gated(ladder8);
    const ThroughputPoint* best163 = best_gated(ladder163);
    if (best8 == nullptr || best163 == nullptr) {
        std::fprintf(stderr, "no gated ladder point survived\n");
        return 1;
    }
    const double speedup8 = base8 / best8->seconds;
    const double speedup163 = base163 / best163->seconds;
    std::printf(
        "\nPR-9 acceptance: exhaustive best %s = %.2fx PR-5 scalar_w4, "
        "random best %s = %.2fx PR-5 scalar_w1 (bar: >= 2x, gated points only)\n",
        best8->label.c_str(), speedup8, best163->label.c_str(), speedup163);

    // --- JSON ----------------------------------------------------------------
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"schema\": \"gfr-bench-v9\",\n");
    std::fprintf(json, "  \"hardware_concurrency\": %d,\n", hw);
    json_ladder(json, "verify_exhaustive_m8", spec8.products, ladder8, base8,
                "pr5_scalar_w4");
    json_ladder(json, "verify_random_m163", spec163.products, ladder163, base163,
                "pr5_scalar_w1");
    std::fprintf(json,
                 "  \"acceptance\": {\"exhaustive_best\": \"%s\", "
                 "\"exhaustive_speedup_vs_pr5\": %.3f, \"random_best\": \"%s\", "
                 "\"random_speedup_vs_pr5\": %.3f, \"bar\": 2.0},\n",
                 best8->label.c_str(), speedup8, best163->label.c_str(),
                 speedup163);
    std::fprintf(json,
                 "  \"exec_tape_m163\": {\"source_nodes\": %zu, \"instructions\": "
                 "%zu, \"fused_ands\": %zu, \"slots\": %u},\n",
                 stats163.source_nodes, stats163.instructions, stats163.fused_ands,
                 stats163.slots);
    std::fprintf(json, "  \"table5_campaign\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::fprintf(json,
                     "    {\"method\": \"%s\", \"field\": \"%s\", \"regime\": \"%s\", "
                     "\"products\": %.0f, \"seconds\": %.6f, \"products_per_sec\": "
                     "%.0f, \"pass\": %s}%s\n",
                     r.method.c_str(), r.field.c_str(), r.regime.c_str(), r.products,
                     r.seconds, r.products_per_sec, r.pass ? "true" : "false",
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n", json_path.c_str());

    for (const auto& r : rows) {
        if (!r.pass) {
            return 1;
        }
    }
    for (const auto* ladder : {&ladder8, &ladder163}) {
        for (const auto& p : *ladder) {
            if (!p.ok || !p.repro_invariant) {
                return 1;
            }
        }
    }
    return 0;
}
