// Workload gf_kernels: the arithmetic kernels with no synthesis.
//
//   - rs::Codec RS(14,10) encode and 4-erasure repair (2 data + 2 parity
//     shards lost) on 1 MiB shards over GF(2^8) (byte layout, the bulk
//     dispatch ladder's byte kernels) and GF(2^16) (u16 layout);
//   - mult::MultiplierVerifier campaigns on the flat multiplier: exhaustive
//     over GF(2^8) and seeded random over GF(2^163) (the exec dispatch
//     ladder's tape backends and the lane oracle).
//
// Every encode is compared with parity from a forced-scalar codec, every
// repair must restore the lost shards bit for bit, every campaign on the
// correct netlist must pass and every campaign on a one-gate mutant of it
// must fail.

#include "harness.h"

#include "bulk/kernels.h"
#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "gf2/gf2_poly.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "rs/codec.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <vector>

namespace perfbench {
namespace {

using namespace gfr;

constexpr int kN = 14;
constexpr int kK = 10;
constexpr std::size_t kShardBytes = std::size_t{1} << 20;

/// Work per pass, sized so one pass takes a few hundred milliseconds.
struct Reps {
    int rs8 = 6;           ///< GF(2^8) encodes and repairs
    int rs16 = 1;          ///< GF(2^16) encodes and repairs
    int campaign8 = 40;    ///< exhaustive GF(2^8) campaigns (65536 products)
    int campaign163 = 1;   ///< random GF(2^163) campaigns
    int sweeps163 = 4096;  ///< 64 products per random sweep
};

/// One RS stripe: seeded data, parity from the forced-scalar codec, and a
/// working copy the timed calls write into.
template <typename T>
struct Stripe {
    std::vector<std::vector<T>> golden;  ///< data then parity
    std::vector<std::vector<T>> work;
    std::vector<bool> present;

    Stripe(const field::Field& f, std::uint64_t seed) {
        const std::size_t symbols = kShardBytes / sizeof(T);
        std::mt19937_64 rng{seed};
        golden.assign(kN, std::vector<T>(symbols, 0));
        for (int i = 0; i < kK; ++i) {
            for (T& v : golden[static_cast<std::size_t>(i)]) {
                v = static_cast<T>(rng());
            }
        }
        const rs::Codec scalar{f.ops(), kN, kK, rs::GeneratorKind::Cauchy,
                               bulk::KernelKind::Scalar};
        scalar.encode(data(golden), parity(golden));
        work = golden;

        // Lose two data shards and two parity shards, chosen by the seed.
        std::vector<int> data_ids(kK);
        std::vector<int> parity_ids(kN - kK);
        std::iota(data_ids.begin(), data_ids.end(), 0);
        std::iota(parity_ids.begin(), parity_ids.end(), kK);
        std::shuffle(data_ids.begin(), data_ids.end(), rng);
        std::shuffle(parity_ids.begin(), parity_ids.end(), rng);
        present.assign(kN, true);
        for (int i = 0; i < 2; ++i) {
            present[static_cast<std::size_t>(data_ids[static_cast<std::size_t>(i)])] = false;
            present[static_cast<std::size_t>(parity_ids[static_cast<std::size_t>(i)])] = false;
        }
    }

    static std::vector<std::span<const T>> data(const std::vector<std::vector<T>>& shards) {
        return {shards.begin(), shards.begin() + kK};
    }
    static std::vector<std::span<T>> parity(std::vector<std::vector<T>>& shards) {
        return {shards.begin() + kK, shards.end()};
    }
    std::vector<std::span<T>> all() { return {work.begin(), work.end()}; }

    [[nodiscard]] bool parity_matches() const {
        return std::equal(work.begin() + kK, work.end(), golden.begin() + kK);
    }
    [[nodiscard]] bool matches() const { return work == golden; }

    /// Clears the lost shards, so a repair has to rebuild them.
    void erase() {
        for (int i = 0; i < kN; ++i) {
            if (!present[static_cast<std::size_t>(i)]) {
                std::fill(work[static_cast<std::size_t>(i)].begin(),
                          work[static_cast<std::size_t>(i)].end(), T{0});
            }
        }
    }

    /// Self-test corruption: one byte of the first surviving data shard.
    void corrupt_survivor() {
        for (int i = 0; i < kK; ++i) {
            if (present[static_cast<std::size_t>(i)]) {
                work[static_cast<std::size_t>(i)][0] ^= T{1};
                return;
            }
        }
    }
    void restore_survivors() {
        for (int i = 0; i < kN; ++i) {
            if (present[static_cast<std::size_t>(i)]) {
                work[static_cast<std::size_t>(i)] = golden[static_cast<std::size_t>(i)];
            }
        }
    }
};

/// GF(2^16) for the u16 layout (the modulus the rs_codec bench uses).
field::Field gf65536() { return field::Field{gf2::Poly::from_exponents({16, 12, 3, 1, 0})}; }

/// Runs `op` as the program call of a pass and returns its seconds.  In the
/// traced run it runs twice: once bare ("trace.black_box"), once inside
/// the layer's span ("trace.recomposed"), so the two give the overhead.
template <typename Op>
double timed(Trace& trace, Tally& tally, const char* layer, const Op& op) {
    const auto t0 = Clock::now();
    {
        WorkTimer work{tally};
        Trace::Span black_box{trace, "trace.black_box"};
        op();
    }
    const double seconds = seconds_since(t0);
    if (trace.enabled()) {
        Trace::Span recomposed{trace, "trace.recomposed"};
        Trace::Span span{trace, layer};
        op();
    }
    return seconds;
}

class GfKernels final : public Workload {
public:
    explicit GfKernels(const Config& config)
        : config_{config},
          stripe8_{field::gf256_paper_field(), mix_seed(config.seed, 1)},
          stripe16_{gf65536(), mix_seed(config.seed, 2)} {
        if (config.small) {
            reps_ = {.rs8 = 1, .rs16 = 1, .campaign8 = 1, .campaign163 = 1, .sweeps163 = 64};
        }
    }

    void setup(Trace& trace) override {
        state_.reset();
        auto s = std::make_unique<State>();
        {
            Trace::Span span{trace, "field.construct"};
            s->f8.emplace(field::gf256_paper_field());
            s->f16.emplace(gf65536());
            s->f163.emplace(field::Field::type2(163, 68));
        }
        screen_dispatch_ladders(trace);
        {
            Trace::Span span{trace, "rs.codec_construct"};
            s->rs8.emplace(s->f8->ops(), kN, kK);
            s->rs16.emplace(s->f16->ops(), kN, kK);
        }
        s->nl8 = mult::build_multiplier(mult::Method::Date2018Flat, *s->f8);
        s->nl163 = mult::build_multiplier(mult::Method::Date2018Flat, *s->f163);
        s->bad8 = mutant(s->nl8);
        s->bad163 = mutant(s->nl163);
        {
            Trace::Span span{trace, "verify.prepare"};
            mult::VerifyOptions exhaustive;
            exhaustive.threads = 1;
            mult::VerifyOptions random;
            random.threads = 1;
            random.random_sweeps = reps_.sweeps163;
            random.seed = mix_seed(config_.seed, 3);
            s->v8.emplace(s->nl8, *s->f8, exhaustive);
            s->v163.emplace(s->nl163, *s->f163, random);
            s->bad_v8.emplace(s->bad8, *s->f8, exhaustive);
            s->bad_v163.emplace(s->bad163, *s->f163, random);
        }
        state_ = std::move(s);
    }

    void pass(Trace& trace, Tally& tally) override {
        State& s = *state_;
        const double shard_bytes = static_cast<double>(kShardBytes);

        double enc8 = 0;
        double rep8 = 0;
        for (int r = 0; r < reps_.rs8; ++r) {
            enc8 += encode(*s.rs8, stripe8_, trace, tally);
            rep8 += repair(*s.rs8, stripe8_, trace, tally, r == 0);
        }
        double enc16 = 0;
        double rep16 = 0;
        for (int r = 0; r < reps_.rs16; ++r) {
            enc16 += encode(*s.rs16, stripe16_, trace, tally);
            rep16 += repair(*s.rs16, stripe16_, trace, tally, false);
        }
        trace.count("rs.bytes_encoded", kK * shard_bytes * (reps_.rs8 + reps_.rs16));
        trace.count("rs.bytes_repaired", 4 * shard_bytes * (reps_.rs8 + reps_.rs16));

        const double products8 = 65536.0 * reps_.campaign8;
        const double products163 = 64.0 * reps_.sweeps163 * reps_.campaign163;
        double c8 = 0;
        for (int r = 0; r < reps_.campaign8; ++r) {
            c8 += campaign(*s.v8, true, trace, tally, "verify.run");
        }
        double c163 = 0;
        for (int r = 0; r < reps_.campaign163; ++r) {
            c163 += campaign(*s.v163, true, trace, tally, "verify.run");
        }
        campaign(*s.bad_v8, false, trace, tally, "verify.run_mutant");
        campaign(*s.bad_v163, false, trace, tally, "verify.run_mutant");
        trace.count("verify.products", products8 + products163);

        tally.circuit_size =
            static_cast<double>(s.nl8.stats().gates() + s.nl163.stats().gates());
        tally.figures["rs8_encode_gbps"] = kK * shard_bytes * reps_.rs8 / enc8 / 1e9;
        tally.figures["rs8_repair_gbps"] = 4 * shard_bytes * reps_.rs8 / rep8 / 1e9;
        tally.figures["rs16_encode_gbps"] = kK * shard_bytes * reps_.rs16 / enc16 / 1e9;
        tally.figures["rs16_repair_gbps"] = 4 * shard_bytes * reps_.rs16 / rep16 / 1e9;
        tally.figures["campaign8_mprod_s"] = products8 / c8 / 1e6;
        tally.figures["campaign163_mprod_s"] = products163 / c163 / 1e6;
    }

private:
    struct State {
        std::optional<field::Field> f8;
        std::optional<field::Field> f16;
        std::optional<field::Field> f163;
        std::optional<rs::Codec> rs8;
        std::optional<rs::Codec> rs16;
        netlist::Netlist nl8;
        netlist::Netlist nl163;
        netlist::Netlist bad8;
        netlist::Netlist bad163;
        // Declared last: a verifier refers to its netlist and field.
        std::optional<mult::MultiplierVerifier> v8;
        std::optional<mult::MultiplierVerifier> v163;
        std::optional<mult::MultiplierVerifier> bad_v8;
        std::optional<mult::MultiplierVerifier> bad_v163;
    };

    template <typename T>
    static double encode(const rs::Codec& codec, Stripe<T>& stripe, Trace& trace, Tally& tally) {
        const double seconds = timed(trace, tally, "rs.encode", [&] {
            codec.encode(Stripe<T>::data(stripe.work), Stripe<T>::parity(stripe.work));
        });
        tally.check(stripe.parity_matches());
        return seconds;
    }

    template <typename T>
    double repair(const rs::Codec& codec, Stripe<T>& stripe, Trace& trace, Tally& tally,
                  bool may_inject) {
        stripe.erase();
        const bool inject = may_inject && config_.inject == Inject::Shard;
        if (inject) {
            stripe.corrupt_survivor();
        }
        const double seconds = timed(trace, tally, "rs.decode",
                                     [&] { codec.decode(stripe.all(), stripe.present); });
        if (inject) {
            stripe.restore_survivors();
        }
        const bool ok = stripe.matches();
        tally.check(ok);
        if (!ok) {
            stripe.work = stripe.golden;
        }
        return seconds;
    }

    /// One campaign; its verdict must be `expect_pass`.
    static double campaign(const mult::MultiplierVerifier& verifier, bool expect_pass,
                           Trace& trace, Tally& tally, const char* layer) {
        bool passed = false;
        const double seconds = timed(trace, tally, layer,
                                     [&] { passed = !verifier.run().has_value(); });
        tally.check(passed == expect_pass);
        return seconds;
    }

    Config config_;
    Reps reps_;
    Stripe<std::uint8_t> stripe8_;
    Stripe<std::uint16_t> stripe16_;
    std::unique_ptr<State> state_;
};

}  // namespace

std::unique_ptr<Workload> make_gf_kernels(const Config& config) {
    return std::make_unique<GfKernels>(config);
}

}  // namespace perfbench
