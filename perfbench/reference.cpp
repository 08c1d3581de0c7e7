// The reference job that wall_rel divides by: fixed work owned by the
// benchmark (a hash table, a sort and a chain of dependent multiplies),
// built as its own target with fixed flags and without the library, so no
// change to the library or to its build can change the job.

#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

// Keeps the results of the job live so the compiler cannot drop it.
volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_job() {
    const auto t0 = std::chrono::steady_clock::now();

    std::mt19937_64 rng{0x5EED};
    std::unordered_map<std::uint64_t, std::uint32_t> table;
    std::vector<std::uint64_t> keys(20000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = rng();
        table[keys[i]] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t acc = 0;
    for (const std::uint64_t k : keys) {
        acc += table.find(k)->second;
    }

    std::vector<std::uint64_t> values(100000);
    for (auto& v : values) {
        v = rng();
    }
    std::sort(values.begin(), values.end());
    acc += values[values.size() / 2];

    std::uint64_t z = acc | 1;
    for (int i = 0; i < 2000000; ++i) {
        z = z * 6364136223846793005ULL + (z >> 29);
    }
    g_sink = z;

    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
