#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

// Shared pieces of the repository benchmark: the clock, the in-memory span
// recorder, the per-pass tally every workload fills, and the workload
// interface main.cpp drives.
//
// Spans are recorded only around calls into a library module's public API,
// from the benchmark's own code; the library is never instrumented.  A span
// named "fpga.map_fixed" adds its duration to the per-layer metric
// "fpga.map_fixed_s" of the pass it ran in; counters add to the metric of
// their own name.  With tracing off every span and counter is a no-op, so
// the untraced run that yields the end-to-end metrics pays nothing for them.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Named per-layer figures of one pass (or one set-up): span seconds under
/// "<span>_s", counters under their own names.
using Layers = std::map<std::string, double>;

class Trace {
public:
    struct SpanRecord {
        std::string name;
        std::int64_t start_ns = 0;  ///< since the trace's epoch
        std::int64_t end_ns = 0;
        int parent = -1;            ///< index of the enclosing span, -1 = none
        int pass = -1;              ///< -1 = set-up
    };

    /// RAII span: records [construction, destruction) under `name`.
    class Span {
    public:
        Span(Trace& trace, const char* name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;
        Span(Span&&) = delete;
        Span& operator=(Span&&) = delete;

    private:
        Trace& trace_;
        int index_ = -1;  ///< -1 when tracing is off
    };

    explicit Trace(bool enabled) : enabled_{enabled}, epoch_{Clock::now()} {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Adds `value` to the current pass's counter `name` (no-op when off).
    void count(const char* name, double value);
    /// Raises the current pass's figure `name` to `value` (no-op when off).
    void peak(const char* name, double value);

    /// Starts collecting a new set of layer figures; pass -1 is a set-up.
    void begin(int pass);
    /// The figures collected since the last begin().
    [[nodiscard]] const Layers& current() const noexcept { return current_; }

    /// Writes every recorded span as JSON (one object per line).
    void write(const std::string& path) const;

private:
    bool enabled_;
    Clock::time_point epoch_;
    int pass_ = -1;
    std::vector<int> open_;  ///< stack of open span indices
    std::vector<SpanRecord> spans_;
    Layers current_;
};

/// What a workload reports for one pass.
struct Tally {
    std::int64_t attempted = 0;  ///< checked operations
    std::int64_t failed = 0;     ///< checked operations whose output was wrong
    std::vector<double> calls_s;  ///< seconds of each program call, in order
    double circuit_size = 0;     ///< size of the circuits the pass produced
    /// Workload figures (QoR totals, throughputs), reported per pass.
    Layers figures;

    void check(bool ok) {
        ++attempted;
        if (!ok) {
            ++failed;
        }
    }
};

/// Times one program call of a pass into Tally::calls_s.
class WorkTimer {
public:
    explicit WorkTimer(Tally& tally) : tally_{tally}, start_{Clock::now()} {}
    ~WorkTimer() { tally_.calls_s.push_back(seconds_since(start_)); }
    WorkTimer(const WorkTimer&) = delete;
    WorkTimer& operator=(const WorkTimer&) = delete;
    WorkTimer(WorkTimer&&) = delete;
    WorkTimer& operator=(WorkTimer&&) = delete;

private:
    Tally& tally_;
    Clock::time_point start_;
};

/// Deliberate output corruption for the benchmark's self-test: each mode
/// corrupts one output per pass, which the workload's checks must count.
enum class Inject { None, Netlist, Lut, Shard };

struct Config {
    std::uint64_t seed = 0;
    bool small = false;  ///< smallest size (self-test)
    Inject inject = Inject::None;
};

/// One workload.  setup() prepares everything a pass needs and may be
/// called several times (main.cpp times each call and keeps the last
/// state); pass() runs the fixed job list once and checks every output.
class Workload {
public:
    virtual ~Workload() = default;
    virtual void setup(Trace& trace) = 0;
    virtual void pass(Trace& trace, Tally& tally) = 0;
};

std::unique_ptr<Workload> make_table5_flow(const Config& config);
std::unique_ptr<Workload> make_opt_prove(const Config& config);
std::unique_ptr<Workload> make_gf_kernels(const Config& config);

/// A one-gate mutant of a multiplier netlist (its first AND becomes an
/// XOR), which the program's checks must reject.
gfr::netlist::Netlist mutant(const gfr::netlist::Netlist& nl);

/// The guard screening bulk::dispatch() and exec::dispatch() run on first
/// use, repeated so that every set-up pays for it (span "guard.screen").
void screen_dispatch_ladders(Trace& trace);

/// splitmix64: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
