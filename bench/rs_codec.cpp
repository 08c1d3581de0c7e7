// Reed-Solomon codec throughput behind BENCH_8.json — single core, the
// storage-workload face of the bulk region tier.
//
// Two codes, one per dense layout:
//   - RS(14,10) over GF(2^8)  (byte layout, 1 MiB shards): the byte-kernel
//     ladder's headline, dispatched kernel vs forced scalar;
//   - RS(14,10) over GF(2^16) (u16 layout, 1 MiB shards): the GF(2^16)
//     tier added with the codec.
//
// Two numbers per code: full-stripe ENCODE GB/s (data bytes through the
// parity generator per second) and REPAIR GB/s (bytes reconstructed per
// second with the full n-k = 4 shards lost — 2 data + 2 parity, so the
// decode pays both the survivor-matrix inversion and the parity
// regeneration).  Every number is gated on bit-identity against the
// forced-scalar codec over the same stripe; any mismatch makes the whole
// bench exit nonzero, so a recorded BENCH_8.json implies the SIMD paths
// were re-proven against scalar on the recording machine.

#include "bulk/kernels.h"
#include "bulk/region_engine.h"
#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "gf2/gf2_poly.h"
#include "rs/codec.h"
#include "bench_timer.h"

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace gfr {
namespace {

using bench::time_it;

std::uint64_t g_sink = 0;  // defeats dead-code elimination

constexpr int kN = 14;
constexpr int kK = 10;

/// One timed configuration: encode + repair over a striped buffer set.
struct CodeResult {
    std::string field;
    std::string layout;
    std::string kernel;            // what the auto codec dispatched
    double encode_gb_per_sec = 0;  // data bytes through the generator
    double repair_gb_per_sec = 0;  // bytes reconstructed (4 lost shards)
    double encode_secs = 0;
    double repair_secs = 0;
    bool bit_identical = true;  // vs the forced-scalar codec
};

template <typename T>
CodeResult run_code(const field::Field& f, const char* field_label,
                    const char* layout, std::size_t shard_symbols) {
    CodeResult res;
    res.field = field_label;
    res.layout = layout;

    const rs::Codec fast{f.ops(), kN, kK};
    const rs::Codec slow{f.ops(), kN, kK, rs::GeneratorKind::Cauchy,
                         bulk::KernelKind::Scalar};
    res.kernel = sizeof(T) == 8
                     ? bulk::kernel_name(fast.engine().word_kernel_kind())
                     : bulk::kernel_name(fast.engine().byte_kernel_kind());

    // Stripe: n shards of shard_symbols, data filled deterministically.
    std::vector<std::vector<T>> shards(kN, std::vector<T>(shard_symbols, 0));
    {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        const std::uint64_t mask =
            (f.ops().degree() == 64)
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << f.ops().degree()) - 1;
        for (int i = 0; i < kK; ++i) {
            for (auto& v : shards[static_cast<std::size_t>(i)]) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v = static_cast<T>(x & mask);
            }
        }
    }
    auto data_spans = [&] {
        std::vector<std::span<const T>> s;
        for (int i = 0; i < kK; ++i) {
            s.emplace_back(shards[static_cast<std::size_t>(i)]);
        }
        return s;
    };
    auto parity_spans = [&] {
        std::vector<std::span<T>> s;
        for (int i = kK; i < kN; ++i) {
            s.emplace_back(shards[static_cast<std::size_t>(i)]);
        }
        return s;
    };
    auto all_spans = [&] {
        std::vector<std::span<T>> s;
        for (auto& sh : shards) {
            s.emplace_back(sh);
        }
        return s;
    };

    const double data_bytes = static_cast<double>(kK) *
                              static_cast<double>(shard_symbols) * sizeof(T);

    // --- Bit-identity gate: scalar and dispatched codecs on one stripe ---
    fast.encode(data_spans(), parity_spans());
    const std::vector<std::vector<T>> golden = shards;
    {
        std::vector<std::vector<T>> scalar_shards = golden;
        for (int i = kK; i < kN; ++i) {
            std::fill(scalar_shards[static_cast<std::size_t>(i)].begin(),
                      scalar_shards[static_cast<std::size_t>(i)].end(), T{0});
        }
        std::vector<std::span<const T>> d;
        std::vector<std::span<T>> p;
        for (int i = 0; i < kK; ++i) {
            d.emplace_back(scalar_shards[static_cast<std::size_t>(i)]);
        }
        for (int i = kK; i < kN; ++i) {
            p.emplace_back(scalar_shards[static_cast<std::size_t>(i)]);
        }
        slow.encode(d, p);
        res.bit_identical = scalar_shards == golden;
    }

    // Worst-case repair: all n-k = 4 shards lost, split across data and
    // parity so the decode both inverts and re-encodes.
    std::vector<bool> present(kN, true);
    present[1] = present[7] = present[kK + 1] = present[kK + 3] = false;
    {
        std::vector<std::vector<T>> fast_shards = golden;
        std::vector<std::vector<T>> slow_shards = golden;
        for (auto* set : {&fast_shards, &slow_shards}) {
            for (int i = 0; i < kN; ++i) {
                if (!present[static_cast<std::size_t>(i)]) {
                    std::fill((*set)[static_cast<std::size_t>(i)].begin(),
                              (*set)[static_cast<std::size_t>(i)].end(),
                              static_cast<T>(0x5));
                }
            }
        }
        auto spans_of = [](std::vector<std::vector<T>>& set) {
            std::vector<std::span<T>> s;
            for (auto& sh : set) {
                s.emplace_back(sh);
            }
            return s;
        };
        fast.decode(spans_of(fast_shards), present);
        slow.decode(spans_of(slow_shards), present);
        res.bit_identical = res.bit_identical && fast_shards == golden &&
                            slow_shards == golden;
    }

    // --- Timed passes (dispatched codec only) ----------------------------
    res.encode_secs = time_it([&] {
        fast.encode(data_spans(), parity_spans());
        g_sink ^= shards[kN - 1][shard_symbols - 1];
    });
    res.encode_gb_per_sec = data_bytes / res.encode_secs / 1e9;

    const double repaired_bytes =
        4.0 * static_cast<double>(shard_symbols) * sizeof(T);
    res.repair_secs = time_it([&] {
        fast.decode(all_spans(), present);
        g_sink ^= shards[1][shard_symbols - 1];
    });
    res.repair_gb_per_sec = repaired_bytes / res.repair_secs / 1e9;

    // Timed decodes rewrote the erased shards; they must still equal the
    // golden stripe (a final correctness fence behind the numbers).
    res.bit_identical = res.bit_identical && shards == golden;

    std::printf(
        "RS(%d,%d) %-7s (%s, %s): encode %6.2f GB/s  repair(4 lost) %6.2f "
        "GB/s  %s\n",
        kN, kK, field_label, layout, res.kernel.c_str(), res.encode_gb_per_sec,
        res.repair_gb_per_sec,
        res.bit_identical ? "bit-identical" : "MISMATCH");
    return res;
}

}  // namespace
}  // namespace gfr

int main(int argc, char** argv) {
    using namespace gfr;
    const char* out_path = argc > 1 ? argv[1] : "BENCH_8.json";

    std::printf("== Reed-Solomon erasure codec throughput (1 thread) ==\n");

    const field::Field f8 = field::gf256_paper_field();
    const field::Field f16{gf2::Poly::from_exponents({16, 12, 3, 1, 0})};

    std::vector<CodeResult> results;
    // 1 MiB shards in both layouts: 2^20 byte symbols / 2^19 u16 symbols.
    results.push_back(
        run_code<std::uint8_t>(f8, "gf2_8", "byte", std::size_t{1} << 20));
    results.push_back(
        run_code<std::uint16_t>(f16, "gf2_16", "u16", std::size_t{1} << 19));

    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"gfr-bench-v8\",\n");
    std::fprintf(out, "  \"threads\": 1,\n");
    std::fprintf(out,
                 "  \"code\": {\"n\": %d, \"k\": %d, \"generator\": "
                 "\"cauchy\"},\n",
                 kN, kK);
    std::fprintf(out, "  \"shard_bytes\": %llu,\n",
                 static_cast<unsigned long long>(std::size_t{1} << 20));
    std::fprintf(out, "  \"lost_shards\": 4,\n");
    std::fprintf(out, "  \"codes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::fprintf(out,
                     "    {\"field\": \"%s\", \"layout\": \"%s\", \"kernel\": "
                     "\"%s\", \"encode_gb_per_sec\": %.3f, "
                     "\"repair_gb_per_sec\": %.3f, \"encode_secs\": %.6e, "
                     "\"repair_secs\": %.6e, \"bit_identical\": %s}%s\n",
                     r.field.c_str(), r.layout.c_str(), r.kernel.c_str(),
                     r.encode_gb_per_sec, r.repair_gb_per_sec, r.encode_secs,
                     r.repair_secs, r.bit_identical ? "true" : "false",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"sink\": %llu\n",
                 static_cast<unsigned long long>(g_sink & 1));
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    bool all_identical = true;
    for (const auto& r : results) {
        all_identical = all_identical && r.bit_identical;
    }
    return all_identical ? 0 : 1;
}
