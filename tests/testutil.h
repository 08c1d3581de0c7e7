#ifndef GFR_TESTS_TESTUTIL_H
#define GFR_TESTS_TESTUTIL_H

// Shared property-test harness for the arithmetic tier.
//
// Every test binary that cross-checks the fast paths against the reference
// arithmetic needs the same four ingredients, previously copy-pasted per
// file:
//
//   - a seeded, platform-stable PRNG (Xorshift64Star) whose replay semantics
//     are trivially copyable — essential for the concurrency tests, which
//     compare threaded runs against a serial replay with the same seeds;
//   - random Poly / field-element generators built on it;
//   - iteration over the paper's Table V fields (and the large differential
//     degrees beyond them);
//   - a counting allocator guard so "allocation-free" claims are asserted,
//     not promised.
//
// The allocator hooks replace global operator new for the including binary.
// Each test executable is a single translation unit, so including this
// header once per binary keeps the one-definition rule intact.

#include "bulk/cpu.h"
#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "gf2/gf2_poly.h"
#include "gf2/pentanomial.h"
#include "netlist/clone.h"
#include "netlist/netlist.h"
#include "verify/campaign.h"

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

// --- Counting allocator ------------------------------------------------------

namespace gfr::testutil::detail {
inline std::atomic<long> g_allocations{0};
}  // namespace gfr::testutil::detail

void* operator new(std::size_t size) {
    gfr::testutil::detail::g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gfr::testutil {

/// Heap allocations seen by this binary so far.  Tests measure deltas around
/// loops that must stay at zero.
inline long allocation_count() {
    return detail::g_allocations.load(std::memory_order_relaxed);
}

/// RAII window over the allocation counter: `AllocationGuard g; ...;
/// EXPECT_EQ(g.delta(), 0);`
class AllocationGuard {
public:
    AllocationGuard() : before_{allocation_count()} {}
    [[nodiscard]] long delta() const { return allocation_count() - before_; }

private:
    long before_;
};

// --- Seeded PRNG -------------------------------------------------------------

/// xorshift64* — tiny, fast, trivially copyable, identical on every platform
/// and standard library.  Good enough statistics for property tests, and its
/// value-semantics replay is what the concurrency tests lean on.
///
/// Deliberately THE SAME generator the verification campaign uses for its
/// sweep bodies (verify::SweepRng) — a thin wrapper, not a copy, so a
/// counterexample seed logged by either replays in both by construction.
class Xorshift64Star : public verify::SweepRng {
public:
    using verify::SweepRng::SweepRng;

    std::uint64_t next() noexcept { return (*this)(); }
};

// --- Random generators -------------------------------------------------------

/// Uniformly random polynomial of degree < max_bits (may be zero).
inline gf2::Poly random_poly(Xorshift64Star& rng, int max_bits) {
    if (max_bits <= 0) {
        return {};
    }
    std::vector<std::uint64_t> words(static_cast<std::size_t>((max_bits + 63) / 64));
    for (auto& w : words) {
        w = rng.next();
    }
    const int top = max_bits % 64;
    if (top != 0) {
        words.back() &= (std::uint64_t{1} << top) - 1;
    }
    return gf2::Poly::from_words(words);
}

/// Uniformly random canonical element of f (may be zero).
inline field::Field::Element random_element(const field::Field& f,
                                            Xorshift64Star& rng) {
    return random_poly(rng, f.degree());
}

/// Uniformly random nonzero canonical element of f.
inline field::Field::Element random_nonzero_element(const field::Field& f,
                                                    Xorshift64Star& rng) {
    for (;;) {
        auto e = random_element(f, rng);
        if (!e.is_zero()) {
            return e;
        }
    }
}

/// Random canonical element of a single-word field as its bit pattern.
inline std::uint64_t random_word_element(const field::Field& f,
                                         Xorshift64Star& rng) {
    const int m = f.degree();
    const std::uint64_t mask =
        (m >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << m) - 1);
    return rng.next() & mask;
}

// --- Field iteration ---------------------------------------------------------

/// Run fn(spec, field) over every Table V catalog field.
template <typename Fn>
void for_each_table5_field(Fn&& fn) {
    for (const auto& spec : field::table5_fields()) {
        const field::Field f = spec.make();
        fn(spec, f);
    }
}

/// The large-field differential degrees the arithmetic tier is exercised at
/// beyond Table V: wide trinomial/pentanomial moduli up to 16 words.
inline const std::vector<int>& large_differential_degrees() {
    static const std::vector<int> degrees = {127, 192, 256, 409, 571, 1024};
    return degrees;
}

/// A known low-weight irreducible modulus for each large differential
/// degree (trinomials where they exist, else the lexicographically-first
/// pentanomial from the standard low-weight tables).  Hardcoded rather than
/// searched: the runtime search is fine for catalog degrees but a unit test
/// should not pay a pentanomial sweep at m = 1024.  Field's constructor
/// re-proves irreducibility, so a typo here fails loudly.
inline gf2::Poly large_modulus(int m) {
    switch (m) {
        case 127:  return gf2::Poly::from_exponents({127, 1, 0});
        case 192:  return gf2::Poly::from_exponents({192, 7, 2, 1, 0});
        case 256:  return gf2::Poly::from_exponents({256, 10, 5, 2, 0});
        case 409:  return gf2::Poly::from_exponents({409, 87, 0});   // NIST B-409
        case 571:  return gf2::Poly::from_exponents({571, 10, 5, 2, 0});  // NIST B-571
        case 1024: return gf2::Poly::from_exponents({1024, 19, 6, 1, 0});
        default:   break;
    }
    const auto mod = gf2::preferred_low_weight_modulus(m);
    if (!mod.has_value()) {
        throw std::runtime_error{"no low-weight modulus for m=" + std::to_string(m)};
    }
    return *mod;
}

// --- Netlist cloning (verification-tier tests) -------------------------------
// The mutation substrate now lives in the library (netlist/clone.h) so the
// fault-injection campaign can build on it; these aliases keep the
// historical test-harness spelling.  The default here remains the interning
// clone — structural hashing in the destination may merge or simplify
// rewritten gates, which the mutation tests rely on.

using GateHook = netlist::GateHook;
using OutputHook = netlist::OutputHook;

inline netlist::Netlist clone_netlist(const netlist::Netlist& src,
                                      const GateHook& gate_hook = nullptr,
                                      const OutputHook& output_hook = nullptr) {
    return netlist::clone_netlist(src, {.intern = true}, gate_hook, output_hook);
}

/// Combination `bits` (0..63) of the six CpuFeatures flags, one bit each in
/// declaration order — the dispatch-policy tests sweep all 64.
inline bulk::CpuFeatures cpu_features(int bits) {
    bulk::CpuFeatures f;
    f.ssse3 = (bits & 1) != 0;
    f.avx2 = (bits & 2) != 0;
    f.pclmul = (bits & 4) != 0;
    f.vpclmulqdq = (bits & 8) != 0;
    f.gfni = (bits & 16) != 0;
    f.avx512f = (bits & 32) != 0;
    return f;
}

/// True when the comma-separated GFR_GUARD_FAULT-style `spec` lists `name`
/// (lower case) as one of its tokens, ignoring case and blanks.  A re-parse
/// independent of the guard's own matcher, for checking it.
inline bool fault_spec_names(const char* spec, const std::string& name) {
    std::string s;
    for (const char* p = spec; p != nullptr && *p != '\0'; ++p) {
        if (*p != ' ' && *p != '\t') {
            s += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
        }
    }
    return ("," + s + ",").find("," + name + ",") != std::string::npos;
}

}  // namespace gfr::testutil

#endif  // GFR_TESTS_TESTUTIL_H
