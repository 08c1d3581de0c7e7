// The repository benchmark's measuring program: runs one workload
// single-threaded for a fixed time and prints its metrics.
//
//   perfbench --workload table5_flow|opt_prove|gf_kernels --seed N
//             --seconds S --trace 0|1 [--small] [--inject netlist|lut|shard]
//             [--trace-out FILE]
//
// A run sets the workload up several times (each set-up timed) and repeats
// timed passes until S seconds have passed, with a fixed reference job
// between passes.  Passes and set-ups take turns on every CPU the process
// may use, one thread at a time.  Every pass checks every output.  The last
// line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics (from spans around the workload's library calls) with --trace 1.
// Earlier lines record the host and the workload's figures.

#include "harness.h"
#include "reference.h"

#include "bulk/kernels.h"
#include "exec/run_kernels.h"
#include "guard/exec_check.h"
#include "guard/kernel_check.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per run: kSetupGroups groups of kSetupsPerGroup.
constexpr int kSetupGroups = 20;
constexpr int kSetupsPerGroup = 5;
/// Least seconds between two runs of the reference job.
constexpr double kReferenceEvery_s = 0.25;

struct Metric {
    const char* name;
    const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_rel", "ref"},     {"peak_rss_mb", "MB"},
    {"pass_frac", "fraction"}, {"circuit_size", "count"},
};

/// Per-layer metrics measured on each set-up (the rest: on each pass).
constexpr Metric kSetupLayers[] = {
    {"field.construct_s", "s"},
    {"guard.screen_s", "s"},
    {"rs.codec_construct_s", "s"},
    {"verify.prepare_s", "s"},
};

constexpr Metric kPassLayers[] = {
    {"multipliers.build_s", "s"},
    {"multipliers.gates", "count"},
    {"netlist.synth.as_given_s", "s"},
    {"netlist.synth.balance_s", "s"},
    {"netlist.synth.pair_cse_s", "s"},
    {"netlist.synth.group_s", "s"},
    {"netlist.synth.flat_anf_s", "s"},
    {"netlist.synth.group_cse3_s", "s"},
    {"netlist.dce_s", "s"},
    {"netlist.gates_after_synth", "count"},
    {"netlist.equivalence_s", "s"},
    {"fpga.map_fixed_s", "s"},
    {"fpga.map_free_s", "s"},
    {"fpga.pack_s", "s"},
    {"fpga.timing_s", "s"},
    {"fpga.mappings", "count"},
    {"fpga.luts_mapped", "count"},
    {"fpga.strategy_useful_frac", "fraction"},
    {"opt.strash_s", "s"},
    {"opt.restructure_s", "s"},
    {"opt.rewrite_s", "s"},
    {"opt.reduce_s", "s"},
    {"opt.gates_removed", "count"},
    {"acv.prove_s", "s"},
    {"acv.expansion_events", "count"},
    {"acv.peak_monomials", "count"},
    {"verify.run_s", "s"},
    {"verify.products", "count"},
    {"rs.encode_s", "s"},
    {"rs.decode_s", "s"},
    {"rs.bytes_encoded", "B"},
    {"rs.bytes_repaired", "B"},
    {"trace.black_box_s", "s"},
    {"trace.recomposed_s", "s"},
};

/// Workload figures: QoR totals and throughputs, per pass.
constexpr Metric kFigures[] = {
    {"luts_total", "LUT"},
    {"slices_total", "slice"},
    {"axt_geomean", "LUT-ns"},
    {"this_work_wins", "count"},
    {"opt_gates_total", "gate"},
    {"rs8_encode_gbps", "GB/s"},
    {"rs8_repair_gbps", "GB/s"},
    {"rs16_encode_gbps", "GB/s"},
    {"rs16_repair_gbps", "GB/s"},
    {"campaign8_mprod_s", "Mprod/s"},
    {"campaign163_mprod_s", "Mprod/s"},
};

/// The CPUs this process may run on, and a way to move its one thread
/// from one to the next.  On a shared host each vCPU meets its own outside
/// load, which comes and goes in phases of seconds to minutes; passes that
/// take turns on every allowed CPU give each program call samples on all of
/// them, so fastest_pass() is not stuck with the one CPU a run started on.
class CpuRotation {
public:
    CpuRotation() {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set)) {
                    cpus_.push_back(c);
                }
            }
        }
    }

    /// Pins the calling thread to the turn-th allowed CPU (cyclically).
    void pin(std::size_t turn) const {
        if (cpus_.size() < 2) {
            return;
        }
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[turn % cpus_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);  // a refusal leaves the thread where it is
    }

    [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

private:
    std::vector<int> cpus_;
};

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seconds of one pass with every program call at its fastest: the sum,
/// call by call, of each call's minimum over the passes.  Shared hosts slow
/// memory-bound and vector code by up to 50% in phases lasting seconds,
/// from load outside the process; the per-call minimum follows the
/// program's own speed much more closely than a median does.  If passes
/// made different calls (a failure path), the fastest whole pass is used.
double fastest_pass(const std::vector<std::vector<double>>& passes) {
    const auto sum = [](const std::vector<double>& v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    std::vector<double> best = passes.front();
    double best_total = sum(best);
    bool aligned = true;
    for (const auto& calls : passes) {
        best_total = std::min(best_total, sum(calls));
        aligned = aligned && calls.size() == best.size();
        for (std::size_t i = 0; aligned && i < calls.size(); ++i) {
            best[i] = std::min(best[i], calls[i]);
        }
    }
    return aligned ? sum(best) : best_total;
}

/// The lowest per-CPU median, over the CPUs that have samples.
double fastest_cpu_median(const std::vector<std::vector<double>>& by_cpu) {
    double best = 0;
    for (const auto& v : by_cpu) {
        if (!v.empty() && (best == 0 || median(v) < best)) {
            best = median(v);
        }
    }
    return best;
}

double median_of(const std::vector<Layers>& samples, const std::string& name) {
    std::vector<double> v;
    for (const Layers& s : samples) {
        const auto it = s.find(name);
        v.push_back(it == s.end() ? 0.0 : it->second);
    }
    return median(std::move(v));
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// One JSON line recording the host: cores, the number of CPUs passes
/// rotate over, CPU features, the dispatched rungs of both ladders,
/// quarantine reports, compiler and build flags.
void print_host(std::size_t cpus_rotated) {
    using namespace gfr;
    const bulk::Dispatch& bd = bulk::dispatch();
    const exec::ExecDispatch& ed = exec::dispatch();
    const bulk::CpuFeatures& c = bd.cpu;
    std::string features;
    const std::pair<const char*, bool> flags[] = {
        {"ssse3", c.ssse3}, {"avx2", c.avx2},   {"pclmul", c.pclmul},
        {"vpclmulqdq", c.vpclmulqdq}, {"gfni", c.gfni}, {"avx512f", c.avx512f},
    };
    for (const auto& [name, on] : flags) {
        if (on) {
            features += features.empty() ? "" : " ";
            features += name;
        }
    }
    std::string quarantined;
    for (const auto& q : guard::quarantine_report()) {
        quarantined += (quarantined.empty() ? "" : "; ") + q.to_string();
    }
    for (const auto& q : guard::exec_quarantine_report()) {
        quarantined += (quarantined.empty() ? "" : "; ") + q.to_string();
    }
    std::printf(
        "{\"host\": {\"nproc\": %u, \"threads_used\": 1, \"cpus_rotated\": %zu, \"cpu_features\": %s, "
        "\"bulk_byte_kernel\": %s, \"bulk_word_kernel\": %s, \"bulk_forced_scalar\": %s, "
        "\"exec_backend\": %s, \"exec_forced_scalar\": %s, \"quarantined\": %s, "
        "\"compiler\": %s, \"build_flags\": %s}}\n",
        std::thread::hardware_concurrency(), cpus_rotated, quoted(features).c_str(),
        quoted(bulk::kernel_name(bd.byte->kind)).c_str(),
        quoted(bd.word != nullptr ? bulk::kernel_name(bd.word->kind) : "window-walk").c_str(),
        bd.forced_scalar ? "true" : "false", quoted(exec::backend_name(ed.kernel->backend)).c_str(),
        ed.forced_scalar ? "true" : "false", quoted(quarantined).c_str(),
        quoted(__VERSION__).c_str(), quoted(PERFBENCH_BUILD_FLAGS).c_str());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
    std::string workload;
    Config config;
    double seconds = 0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload table5_flow|opt_prove|gf_kernels "
                 "--seed N --seconds S --trace 0|1 [--small] [--inject netlist|lut|shard] "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args args;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--small") {
            args.config.small = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.config.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                have_seconds = args.seconds > 0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                args.trace = value == "1";
                have_trace = true;
            } else if (flag == "--inject") {
                if (value == "netlist") {
                    args.config.inject = Inject::Netlist;
                } else if (value == "lut") {
                    args.config.inject = Inject::Lut;
                } else if (value == "shard") {
                    args.config.inject = Inject::Shard;
                } else {
                    usage("unknown --inject " + value);
                }
            } else if (flag == "--trace-out") {
                args.trace_out = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    }
    return args;
}

int run(const Args& args) {
    std::unique_ptr<Workload> workload;
    if (args.workload == "table5_flow") {
        workload = make_table5_flow(args.config);
    } else if (args.workload == "opt_prove") {
        workload = make_opt_prove(args.config);
    } else if (args.workload == "gf_kernels") {
        workload = make_gf_kernels(args.config);
    } else {
        usage("unknown workload " + args.workload);
    }
    const CpuRotation rotation;
    print_host(rotation.size());

    Trace trace{args.trace};
    // Set-ups run in groups spread evenly over the run, so that they meet
    // the same host conditions as the passes, and the groups take turns on
    // the CPUs as passes do.  setup_s is the median set-up time on the CPU
    // where that median is lowest.
    std::vector<std::vector<double>> setup_s(std::max<std::size_t>(rotation.size(), 1));
    std::vector<Layers> setup_layers;
    std::size_t groups = 0;
    const auto set_up = [&] {
        std::vector<double>& on_cpu = setup_s[groups % setup_s.size()];
        rotation.pin(groups++);
        for (int r = 0; r < kSetupsPerGroup; ++r) {
            trace.begin(-1);
            const auto t0 = Clock::now();
            workload->setup(trace);
            on_cpu.push_back(seconds_since(t0));
            setup_layers.push_back(trace.current());
        }
    };

    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    const auto run_pass = [&](int index) {
        trace.begin(index);
        Tally tally;
        workload->pass(trace, tally);
        attempted += tally.attempted;
        failed += tally.failed;
        return tally;
    };
    set_up();

    std::vector<std::vector<double>> calls_s;
    std::vector<double> pass_s;
    std::vector<double> circuit_size;
    std::vector<Layers> pass_layers;
    std::vector<Layers> figures;
    std::vector<double> reference_s;
    auto last_reference = Clock::now();
    const double group_every_s = args.seconds / kSetupGroups;
    double next_group_s = group_every_s;
    // No separate warm-up pass: the first pass's cold calls (page faults,
    // lazy dispatch, allocator growth) lose to later samples of the same
    // call in fastest_pass(), so every pass, the first too, is a sample.
    const auto start = Clock::now();
    for (int i = 0; pass_s.empty() || seconds_since(start) < args.seconds; ++i) {
        if (seconds_since(start) >= next_group_s) {
            set_up();
            next_group_s += group_every_s;
        }
        rotation.pin(static_cast<std::size_t>(i));
        const Tally tally = run_pass(i);
        pass_s.push_back(std::accumulate(tally.calls_s.begin(), tally.calls_s.end(), 0.0));
        calls_s.push_back(tally.calls_s);
        circuit_size.push_back(tally.circuit_size);
        pass_layers.push_back(trace.current());
        figures.push_back(tally.figures);
        // The reference job runs on the CPU the pass just used, at most
        // every kReferenceEvery_s, so short passes do not pay for it often.
        if (reference_s.empty() || seconds_since(last_reference) >= kReferenceEvery_s) {
            reference_s.push_back(reference_job());
            last_reference = Clock::now();
        }
    }
    // wall_rel: the program's fastest pass over the reference job's fastest
    // run, both timed on the same CPUs over the same run.  Host-wide speed
    // (clock, contention from other tenants) moves both; the program's own
    // speed moves only the numerator.
    const double wall_s = fastest_pass(calls_s);
    const double ref_s = *std::min_element(reference_s.begin(), reference_s.end());

    std::string figure_line;
    for (const Metric& m : kFigures) {
        figure_line += (figure_line.empty() ? "" : ", ") + quoted(m.name) + ": " +
                       number(median_of(figures, m.name));
    }
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"passes\": %zu, \"median_pass_s\": %s, "
        "\"wall_s\": %s, \"reference_runs\": %zu, \"reference_s\": %s, \"figures\": {%s}}\n",
        quoted(args.workload).c_str(), static_cast<unsigned long long>(args.config.seed),
        pass_s.size(), number(median(pass_s)).c_str(), number(wall_s).c_str(),
        reference_s.size(), number(ref_s).c_str(), figure_line.c_str());

    std::vector<std::pair<const Metric*, double>> out;
    if (!args.trace) {
        const double values[] = {
            fastest_cpu_median(setup_s),
            wall_s / ref_s,
            peak_rss_mb(),
            static_cast<double>(attempted - failed) / static_cast<double>(attempted),
            median(circuit_size),
        };
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            out.emplace_back(&kEndToEnd[i], values[i]);
        }
    } else {
        for (const Metric& m : kSetupLayers) {
            out.emplace_back(&m, median_of(setup_layers, m.name));
        }
        for (const Metric& m : kPassLayers) {
            out.emplace_back(&m, median_of(pass_layers, m.name));
        }
        for (const Metric& m : kFigures) {
            out.emplace_back(&m, median_of(figures, m.name));
        }
        const double bare = median_of(pass_layers, "trace.black_box_s");
        const double wrapped = median_of(pass_layers, "trace.recomposed_s");
        static constexpr Metric kOverhead{"trace.overhead_frac", "fraction"};
        out.emplace_back(&kOverhead, bare > 0 ? wrapped / bare - 1 : 0);
        if (!args.trace_out.empty()) {
            trace.write(args.trace_out);
        }
    }

    std::string metrics;
    for (const auto& [m, value] : out) {
        metrics += (metrics.empty() ? "" : ", ") + quoted(m->name) + ": {\"value\": " +
                   number(value) + ", \"unit\": " + quoted(m->unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
