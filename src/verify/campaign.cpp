#include "verify/campaign.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

namespace gfr::verify {

int Campaign::worker_count(std::uint64_t total_sweeps) const noexcept {
    if (total_sweeps == 0) {
        return 1;
    }
    std::uint64_t requested =
        options_.threads > 0
            ? static_cast<std::uint64_t>(options_.threads)
            : static_cast<std::uint64_t>(
                  std::max(1U, std::thread::hardware_concurrency()));
    const std::uint64_t per = std::max<std::uint64_t>(1, options_.min_sweeps_per_worker);
    requested = std::min(requested, std::max<std::uint64_t>(1, total_sweeps / per));
    return static_cast<int>(std::min<std::uint64_t>(requested, 1024));
}

std::string repro_suffix(std::uint64_t campaign_seed, std::uint64_t sweep_index,
                         bool random_regime) {
    if (sweep_index == kNoFailure) {
        return {};
    }
    char repro[128];
    if (random_regime) {
        std::snprintf(repro, sizeof repro,
                      " [repro: seed=0x%llx sweep=%llu sweep_seed=0x%llx]",
                      static_cast<unsigned long long>(campaign_seed),
                      static_cast<unsigned long long>(sweep_index),
                      static_cast<unsigned long long>(
                          Campaign::derive_sweep_seed(campaign_seed, sweep_index)));
    } else {
        std::snprintf(repro, sizeof repro, " [repro: exhaustive sweep=%llu]",
                      static_cast<unsigned long long>(sweep_index));
    }
    return repro;
}

std::uint64_t Campaign::run(std::uint64_t total_sweeps,
                            const WorkerFactory& factory) const {
    if (total_sweeps == 0) {
        return kNoFailure;
    }
    const int workers = worker_count(total_sweeps);

    if (workers <= 1) {
        // Inline fast path: no threads, no atomics — a one-worker campaign
        // costs exactly what the pre-campaign scan did.
        SweepFn sweep = factory(0);
        for (std::uint64_t s = 0; s < total_sweeps; ++s) {
            if (sweep(s)) {
                return s;
            }
        }
        return kNoFailure;
    }

    const std::uint64_t chunk = std::max<std::uint64_t>(1, options_.chunk);
    std::atomic<std::uint64_t> cursor{0};
    std::atomic<std::uint64_t> first_failure{kNoFailure};
    std::atomic<bool> aborted{false};
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));

    const auto worker_body = [&](int worker_id) {
        try {
            SweepFn sweep = factory(worker_id);
            for (;;) {
                const std::uint64_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
                if (begin >= total_sweeps ||
                    begin >= first_failure.load(std::memory_order_acquire) ||
                    aborted.load(std::memory_order_acquire)) {
                    // The cursor is monotonic, so every chunk this worker
                    // could still claim lies above `begin`: nothing below
                    // the published minimum is left for it.
                    return;
                }
                const std::uint64_t end = std::min(begin + chunk, total_sweeps);
                for (std::uint64_t s = begin; s < end; ++s) {
                    if (s >= first_failure.load(std::memory_order_acquire) ||
                        aborted.load(std::memory_order_relaxed)) {
                        break;
                    }
                    if (sweep(s)) {
                        // Publish as a running minimum; the worker's own
                        // indices only grow, so it is done after one hit.
                        std::uint64_t seen = first_failure.load(std::memory_order_relaxed);
                        while (s < seen && !first_failure.compare_exchange_weak(
                                               seen, s, std::memory_order_acq_rel)) {
                        }
                        return;
                    }
                }
            }
        } catch (...) {
            errors[static_cast<std::size_t>(worker_id)] = std::current_exception();
            aborted.store(true, std::memory_order_release);
        }
    };

    {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            pool.emplace_back(worker_body, w);
        }
        for (auto& t : pool) {
            t.join();
        }
    }

    for (auto& e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
    return first_failure.load(std::memory_order_acquire);
}

}  // namespace gfr::verify
