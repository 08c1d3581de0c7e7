#ifndef GFR_BENCH_BENCH_TIMER_H
#define GFR_BENCH_BENCH_TIMER_H

// The repeat-until-0.15-s timer shared by the throughput benches.

#include <chrono>
#include <functional>

namespace gfr::bench {

/// Seconds per iteration of fn, repeated until >= 0.15 s total.
inline double time_it(const std::function<void()>& fn) {
    using Clock = std::chrono::steady_clock;
    fn();  // warmup
    int iters = 1;
    for (;;) {
        const auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) {
            fn();
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (secs >= 0.15) {
            return secs / iters;
        }
        iters = (secs <= 0.0) ? iters * 8
                              : static_cast<int>(static_cast<double>(iters) *
                                                 (0.2 / secs)) +
                                    1;
    }
}

}  // namespace gfr::bench

#endif  // GFR_BENCH_BENCH_TIMER_H
