// Workload table5_flow: every Table V cell (the six in_table5 methods per
// field) through mult::build_multiplier -> fpga::run_flow, with synthesis
// freedom taken from MethodInfo, and every mapped LutNetwork checked
// against Field::mul.
//
// The traced run rebuilds each cell from the flow's public parts
// (netlist::dce / synthesize, fpga::map_to_luts / pack_slices /
// critical_path_ns) with a span around each call, and counts a cell whose
// recomposed LUTs, slices or ns differ from run_flow's as a failure, so a
// change to the flow's strategy list cannot silently mis-attribute time.

#include "harness.h"

#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "fpga/flow.h"
#include "gf2/pentanomial.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using namespace gfr;

/// Largest Table V degree in the workload: the fields up to m = 113 keep a
/// pass near two seconds on one core, so a run holds several passes.
constexpr int kMaxDegree = 113;
/// 64-lane words of seeded random operands per cell check (m > 8).
constexpr int kRandomCheckWords = 4;

/// run_flow's strategy list for synthesis-free cells, with span names.
struct Strategy {
    const char* span;
    netlist::SynthOptions options;
};

const std::vector<Strategy>& strategies() {
    static const std::vector<Strategy> list = {
        {"netlist.synth.as_given",
         {.flatten_anf = false, .group_cones = false, .extract_pairs = false,
          .balance = false}},
        {"netlist.synth.balance",
         {.flatten_anf = false, .group_cones = false, .extract_pairs = false,
          .balance = true}},
        {"netlist.synth.pair_cse",
         {.flatten_anf = false, .group_cones = false, .extract_pairs = true,
          .balance = true}},
        {"netlist.synth.group",
         {.flatten_anf = false, .group_cones = true, .extract_pairs = false,
          .balance = true}},
        {"netlist.synth.flat_anf",
         {.flatten_anf = true, .group_cones = false, .extract_pairs = false,
          .balance = true}},
        {"netlist.synth.group_cse3",
         {.flatten_anf = false, .group_cones = true, .extract_pairs = true,
          .cse_min_count = 3, .balance = true}},
    };
    return list;
}

/// The fields of one run.  Seed 0 gives Table V's own (m, n) pairs; any
/// other seed keeps each degree m and draws n from the irreducible type II
/// pentanomials of that degree (distinct within a degree while they last),
/// so held-out fields have the same work profile.
std::vector<field::FieldSpec> choose_fields(const Config& config) {
    std::vector<field::FieldSpec> specs;
    for (const auto& spec : field::table5_fields()) {
        if (spec.m <= kMaxDegree) {
            specs.push_back(spec);
        }
    }
    if (config.small) {
        specs.resize(2);
    }
    if (config.seed == 0) {
        return specs;
    }
    std::mt19937_64 rng{mix_seed(config.seed, 0)};
    std::map<int, std::vector<int>> pool;
    std::map<int, std::size_t> used;
    for (auto& spec : specs) {
        auto [it, fresh] = pool.try_emplace(spec.m);
        if (fresh) {
            it->second = gf2::type2_irreducible_ns(spec.m);
            std::shuffle(it->second.begin(), it->second.end(), rng);
        }
        const std::size_t i = used[spec.m]++;
        spec.n = it->second[i % it->second.size()];
        spec.origin = "held-out";
    }
    return specs;
}

/// Checks a mapped network against Field::mul: every operand pair for
/// m = 8, kRandomCheckWords x 64 seeded random pairs otherwise.
bool network_matches(const fpga::LutNetwork& net, const field::Field& f,
                     std::uint64_t seed) {
    const int m = f.degree();
    if (net.input_count() != 2 * m || static_cast<int>(net.outputs.size()) != m) {
        return false;
    }
    std::vector<std::string> output_names;
    for (const auto& [name, ref] : net.outputs) {
        output_names.push_back(name);
    }
    // Port of a_i / b_i among the inputs and of c_i among the outputs.
    const auto port = [](const std::vector<std::string>& names, char side, int i) {
        const auto it = std::find(names.begin(), names.end(), side + std::to_string(i));
        return it == names.end() ? -1 : static_cast<int>(it - names.begin());
    };
    std::vector<int> a_port;
    std::vector<int> b_port;
    std::vector<int> c_port;
    for (int i = 0; i < m; ++i) {
        a_port.push_back(port(net.input_names, 'a', i));
        b_port.push_back(port(net.input_names, 'b', i));
        c_port.push_back(port(output_names, 'c', i));
        if (a_port.back() < 0 || b_port.back() < 0 || c_port.back() < 0) {
            return false;
        }
    }

    const bool exhaustive = 2 * m <= 16;
    const std::uint64_t words =
        exhaustive ? (std::uint64_t{1} << (2 * m)) / 64 : kRandomCheckWords;
    std::mt19937_64 rng{seed};
    std::vector<std::uint64_t> in(net.input_names.size());
    std::vector<std::uint64_t> expect(static_cast<std::size_t>(m));
    for (std::uint64_t w = 0; w < words; ++w) {
        std::fill(in.begin(), in.end(), 0);
        std::fill(expect.begin(), expect.end(), 0);
        for (int lane = 0; lane < 64; ++lane) {
            field::Field::Element a;
            field::Field::Element b;
            if (exhaustive) {
                const std::uint64_t t = w * 64 + static_cast<std::uint64_t>(lane);
                a = f.from_bits(t & ((std::uint64_t{1} << m) - 1));
                b = f.from_bits(t >> m);
            } else {
                a = f.random_element(rng);
                b = f.random_element(rng);
            }
            const field::Field::Element c = f.mul(a, b);
            const std::uint64_t bit = std::uint64_t{1} << lane;
            for (int i = 0; i < m; ++i) {
                if (a.coeff(i)) {
                    in[static_cast<std::size_t>(a_port[static_cast<std::size_t>(i)])] |= bit;
                }
                if (b.coeff(i)) {
                    in[static_cast<std::size_t>(b_port[static_cast<std::size_t>(i)])] |= bit;
                }
                if (c.coeff(i)) {
                    expect[static_cast<std::size_t>(i)] |= bit;
                }
            }
        }
        const std::vector<std::uint64_t> out = net.simulate(in);
        for (int i = 0; i < m; ++i) {
            if (out[static_cast<std::size_t>(c_port[static_cast<std::size_t>(i)])] !=
                expect[static_cast<std::size_t>(i)]) {
                return false;
            }
        }
    }
    return true;
}

/// Self-test corruption: invert the LUT driving the first output, which
/// inverts that output bit for every operand pair.
fpga::LutNetwork corrupted(fpga::LutNetwork net) {
    const std::int32_t ref = net.outputs.front().second;
    if (ref >= net.input_count()) {
        auto& lut = net.luts[static_cast<std::size_t>(ref - net.input_count())];
        const int k = static_cast<int>(lut.fanins.size());
        const std::uint64_t mask = k >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1 << k)) - 1;
        lut.truth ^= mask;
    }
    return net;
}

struct Mapped {
    int luts = 0;
    int slices = 0;
    double ns = 0;
    double axt = 0;
    double map_s = 0;  ///< the map_to_luts call alone
};

/// map_to_luts -> pack_slices -> critical_path_ns, one span per call.
Mapped map_and_measure(const netlist::Netlist& prepared, const char* map_span,
                       bool fanout_boundaries, Trace& trace) {
    fpga::MapperOptions mapper;
    mapper.respect_fanout_boundaries = fanout_boundaries;
    fpga::LutNetwork net;
    Mapped r;
    {
        const auto t0 = Clock::now();
        Trace::Span span{trace, map_span};
        net = fpga::map_to_luts(prepared, mapper);
        r.map_s = seconds_since(t0);
    }
    r.luts = net.lut_count();
    trace.count("fpga.mappings", 1);
    trace.count("fpga.luts_mapped", r.luts);
    {
        Trace::Span span{trace, "fpga.pack"};
        r.slices = fpga::pack_slices(net).n_slices;
    }
    {
        Trace::Span span{trace, "fpga.timing"};
        r.ns = fpga::critical_path_ns(net);
    }
    r.axt = r.luts * r.ns;
    return r;
}

/// The cell rebuilt from run_flow's public parts, selection rules included.
/// Adds the winning strategy's synth+map seconds to `useful_s` and all
/// strategy-search seconds to `search_s`.
Mapped recompose(const netlist::Netlist& nl, bool synthesis_freedom, Trace& trace,
                 double& useful_s, double& search_s) {
    if (!synthesis_freedom) {
        netlist::Netlist cleaned;
        {
            Trace::Span span{trace, "netlist.dce"};
            cleaned = netlist::dce(nl);
        }
        const Mapped bounded = map_and_measure(cleaned, "fpga.map_fixed", true, trace);
        const Mapped duplicating = map_and_measure(cleaned, "fpga.map_fixed", false, trace);
        return bounded.axt <= duplicating.axt ? bounded : duplicating;
    }
    Mapped best;
    double best_useful = 0;
    bool first = true;
    for (const Strategy& s : strategies()) {
        const auto t0 = Clock::now();
        netlist::Netlist prepared;
        {
            Trace::Span span{trace, s.span};
            prepared = netlist::synthesize(nl, s.options);
        }
        const double synth_s = seconds_since(t0);
        trace.count("netlist.gates_after_synth", static_cast<double>(prepared.stats().gates()));
        const Mapped candidate = map_and_measure(prepared, "fpga.map_free", false, trace);
        search_s += seconds_since(t0);
        if (first || candidate.axt < best.axt) {
            best = candidate;
            best_useful = synth_s + candidate.map_s;
            first = false;
        }
    }
    useful_s += best_useful;
    return best;
}

class Table5Flow final : public Workload {
public:
    explicit Table5Flow(const Config& config)
        : config_{config}, specs_{choose_fields(config)} {}

    void setup(Trace& trace) override {
        std::vector<field::Field> fields;
        {
            Trace::Span span{trace, "field.construct"};
            for (const auto& spec : specs_) {
                fields.push_back(spec.make());
            }
        }
        fields_ = std::move(fields);
        screen_dispatch_ladders(trace);
    }

    void pass(Trace& trace, Tally& tally) override {
        double luts = 0;
        double slices = 0;
        double log_axt = 0;
        int cells = 0;
        int wins = 0;
        double useful_s = 0;
        double search_s = 0;
        bool injected = false;
        for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
            const field::Field& f = fields_[fi];
            double best_axt = 0;
            bool this_work_best = false;
            for (const mult::MethodInfo& info : mult::all_methods()) {
                if (!info.in_table5) {
                    continue;
                }
                netlist::Netlist nl;
                fpga::FlowResult r;
                {
                    WorkTimer work{tally};
                    {
                        Trace::Span span{trace, "multipliers.build"};
                        nl = mult::build_multiplier(info.method, f);
                    }
                    Trace::Span black_box{trace, "trace.black_box"};
                    fpga::FlowOptions options;
                    options.synthesis_freedom = info.synthesis_freedom;
                    r = fpga::run_flow(nl, options);
                }
                trace.count("multipliers.gates", static_cast<double>(nl.stats().gates()));

                const std::uint64_t lane_seed = mix_seed(config_.seed, 100 + cells);
                if (config_.inject == Inject::Lut && !injected) {
                    injected = true;
                    tally.check(network_matches(corrupted(r.network), f, lane_seed));
                } else {
                    tally.check(network_matches(r.network, f, lane_seed));
                }

                if (trace.enabled()) {
                    Mapped m;
                    {
                        Trace::Span span{trace, "trace.recomposed"};
                        m = recompose(nl, info.synthesis_freedom, trace, useful_s, search_s);
                    }
                    tally.check(m.luts == r.luts && m.slices == r.slices && m.ns == r.delay_ns);
                }

                luts += r.luts;
                slices += r.slices;
                log_axt += std::log(r.area_time);
                ++cells;
                if (best_axt == 0 || r.area_time < best_axt) {
                    best_axt = r.area_time;
                    this_work_best = info.method == mult::Method::Date2018Flat;
                }
            }
            wins += this_work_best ? 1 : 0;
        }
        tally.circuit_size = luts;
        tally.figures["luts_total"] = luts;
        tally.figures["slices_total"] = slices;
        tally.figures["axt_geomean"] = std::exp(log_axt / cells);
        tally.figures["this_work_wins"] = wins;
        if (search_s > 0) {
            trace.count("fpga.strategy_useful_frac", useful_s / search_s);
        }
    }

private:
    Config config_;
    std::vector<field::FieldSpec> specs_;
    std::vector<field::Field> fields_;
};

}  // namespace

std::unique_ptr<Workload> make_table5_flow(const Config& config) {
    return std::make_unique<Table5Flow>(config);
}

}  // namespace perfbench
