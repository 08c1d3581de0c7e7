// The guard tier's dispatch-and-quarantine ladder: the generic walk on a
// synthetic rung table, the golden self-tests and forced-fault walks on the
// real bulk and exec ladders, the process-wide quarantine reports, and the
// parsing behind GFR_BULK_FORCE_SCALAR / GFR_EXEC_FORCE_SCALAR /
// GFR_GUARD_FAULT.

#include "bulk/kernels.h"
#include "exec/run_kernels.h"
#include "guard/exec_check.h"
#include "guard/kernel_check.h"
#include "guard/ladder.h"
#include "guard/status.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace gfr {
namespace {

TEST(GuardStatus, Basics) {
    const guard::Status ok = guard::Status::good();
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    const guard::Status bad =
        guard::Status::fail(guard::Fault::RegionChecksum, "boom");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.fault, guard::Fault::RegionChecksum);
    EXPECT_NE(bad.to_string().find("region-checksum"), std::string::npos);
    EXPECT_NE(bad.to_string().find("boom"), std::string::npos);
    EXPECT_STREQ(guard::fault_name(guard::Fault::None), "none");
    EXPECT_STREQ(guard::fault_name(guard::Fault::KernelSelfTest),
                 "kernel-self-test");
    EXPECT_STREQ(guard::fault_name(guard::Fault::ParityAlarm), "parity-alarm");
}

TEST(GuardDispatch, EnvFlagParsing) {
    // S1: empty / "0" / "off" / "false" / "no" (any case, blanks around
    // them ignored) mean UNSET, so scripts can pass GFR_BULK_FORCE_SCALAR=0
    // through unconditionally.
    for (const char* unset : {"", "0", "off", "OFF", "Off", "false", "FALSE",
                              "no", "No", " 0", "off\t", " ", "\t no "}) {
        EXPECT_FALSE(guard::env_flag_enabled(unset)) << '"' << unset << '"';
    }
    EXPECT_FALSE(guard::env_flag_enabled(nullptr));
    // Whole-token comparison, not prefix: "0x" and "offline" enable.
    for (const char* set : {"1", "on", "yes", "true", "2", "scalar", "0x",
                            "offline", " 1", "0 0"}) {
        EXPECT_TRUE(guard::env_flag_enabled(set)) << '"' << set << '"';
    }
}

// --- The generic ladder on a synthetic rung table ----------------------------

/// A fake kernel whose self-test outcome the test chooses.
struct FakeKernel {
    const char* name;
    bool healthy;
};

guard::Status fake_selftest(const FakeKernel& k, bool force_fault) {
    if (force_fault || !k.healthy) {
        return guard::Status::fail(guard::Fault::KernelSelfTest,
                                   std::string{k.name} + " mismatch");
    }
    return guard::Status::good();
}

bool always(const bulk::CpuFeatures&) { return true; }

TEST(GuardLadder, SyntheticRungTable) {
    const FakeKernel top{"top", true};
    const FakeKernel sick{"sick", false};
    const FakeKernel mid{"mid", true};
    const FakeKernel low{"low", true};
    const FakeKernel floor{"floor", true};
    const guard::Rung<FakeKernel> rungs[] = {
        {"absent", nullptr, always},  // compiled out
        {"top", &top, [](const bulk::CpuFeatures& f) { return f.avx512f; }},
        {"sick", &sick, always},
        {"mid", &mid, [](const bulk::CpuFeatures& f) { return f.avx2; }},
        {"low", &low, always},
    };
    const guard::Ladder<FakeKernel> ladder{"t-", rungs, &floor, fake_selftest};
    const guard::Ladder<FakeKernel> no_floor{"t-", rungs, nullptr, fake_selftest};
    const bulk::CpuFeatures none;
    bulk::CpuFeatures avx2 = none;
    avx2.avx2 = true;
    bulk::CpuFeatures wide = avx2;
    wide.avx512f = true;

    struct Walk {
        const guard::Ladder<FakeKernel>* ladder;
        bulk::CpuFeatures cpu;
        bool force_floor;
        const char* spec;
        const FakeKernel* picked;
        const FakeKernel* screened;
        std::vector<std::string> quarantined;  // rung, "!" suffix when forced
    };
    const Walk walks[] = {
        // A healthy top rung stays.
        {&ladder, wide, false, nullptr, &top, &top, {}},
        // Uncompiled and unsupported rungs are skipped; a self-test failure
        // steps down to the next healthy rung.
        {&ladder, avx2, false, nullptr, &sick, &mid, {"t-sick"}},
        {&ladder, none, false, nullptr, &sick, &low, {"t-sick"}},
        // Forced versus self-test failures.
        {&ladder, wide, false, "t-top", &top, &mid, {"t-top!", "t-sick"}},
        // Falling off the end lands on the floor, null or not.
        {&ladder, wide, false, "all", &top, &floor, {"t-top!", "t-sick!", "t-mid!", "t-low!"}},
        {&no_floor, avx2, false, " T-SICK ,\tall", &sick, nullptr, {"t-sick!", "t-mid!", "t-low!"}},
        // The forced floor is never screened.
        {&ladder, wide, true, "all", &floor, &floor, {}},
    };
    for (const Walk& w : walks) {
        const std::string what = std::string{"spec "} + (w.spec ? w.spec : "(null)");
        const FakeKernel* picked = guard::pick(*w.ladder, w.cpu, w.force_floor);
        EXPECT_EQ(picked, w.picked) << what;
        std::vector<guard::Quarantined> q;
        EXPECT_EQ(guard::screen(*w.ladder, picked, w.cpu, w.spec, q), w.screened) << what;
        std::vector<std::string> got;
        for (const auto& e : q) {
            EXPECT_EQ(e.detail, e.rung.substr(2) + " mismatch") << what;
            got.push_back(e.rung + (e.forced ? "!" : ""));
        }
        EXPECT_EQ(got, w.quarantined) << what;
    }
    EXPECT_EQ(guard::runnable(ladder, wide),
              (std::vector<const FakeKernel*>{&top, &sick, &mid, &low, &floor}));
    EXPECT_EQ(guard::runnable(no_floor, none), (std::vector<const FakeKernel*>{&sick, &low}));
    EXPECT_EQ(guard::find_rung(ladder, "mid"), &rungs[3]);
    EXPECT_EQ(guard::find_rung(ladder, "t-mid"), nullptr);

    // Pinned report text for both tiers: their prefixes and tokens on the
    // synthetic rungs give exactly the lines the real ladders print.
    ASSERT_NE(guard::find_rung(bulk::byte_ladder(), "gfni"), nullptr);
    ASSERT_NE(guard::find_rung(exec::tape_ladder(), "avx512"), nullptr);
    const guard::Rung<FakeKernel> gfni[] = {{"gfni", &top, always}};
    const guard::Rung<FakeKernel> avx512[] = {{"avx512", &sick, always}};
    std::vector<guard::Quarantined> q;
    (void)guard::screen(guard::Ladder<FakeKernel>{bulk::byte_ladder().prefix, gfni,
                                                  &floor, fake_selftest},
                        &top, none, "gfni", q);
    (void)guard::screen(guard::Ladder<FakeKernel>{exec::tape_ladder().prefix, avx512,
                                                  &floor, fake_selftest},
                        &sick, none, nullptr, q);
    ASSERT_EQ(q.size(), 2U);
    EXPECT_EQ(q[0].to_string(), "quarantined gfni (forced by GFR_GUARD_FAULT): top mismatch");
    EXPECT_EQ(q[1].to_string(), "quarantined exec-avx512 (self-test): sick mismatch");

    // The spec grammar every walk above goes through: (spec, rung, forced).
    struct Row {
        const char* spec;
        const char* rung;
        bool forced;
    };
    std::vector<Row> rows = {
        {nullptr, "avx2", false}, {"", "avx2", false}, {"0", "avx2", false},
        {"off", "avx2", false}, {"ssse3", "ssse3", true}, {"ssse3", "avx2", false},
        {"AVX2", "avx2", true}, {"avx2,vpclmul", "vpclmul", true},
        {"avx2,vpclmul", "avx2", true}, {"avx2,vpclmul", "ssse3", false},
        {"gfni", "gfni", true}, {"GFNI", "gfni", true}, {"gfni", "avx2", false},
        {"bogus", "avx2", false}, {"exec-avx2,gfni", "gfni", true},
        {"exec-avx2", "avx2", false},
        // Exec rungs answer to "exec-<name>" and the umbrellas, never to
        // the bulk kernel names.
        {"exec-avx2", "exec-avx2", true}, {"exec-avx512", "exec-avx512", true},
        {"EXEC-AVX512", "exec-avx512", true}, {"exec-avx512", "exec-avx2", false},
        {"exec-avx2", "exec-avx512", false}, {"avx2", "exec-avx2", false},
        {"gfni", "exec-avx2", false}, {nullptr, "exec-avx2", false},
        {"gfni,exec-avx2", "exec-avx2", true}, {"gfni,vpclmul", "exec-avx2", false},
        // Blanks around tokens are trimmed, never inside them.
        {"ssse3, gfni", "gfni", true}, {" gfni\t", "gfni", true},
        {"gfni, exec-avx512", "exec-avx512", true}, {"g fni", "gfni", false},
    };
    for (const char* umbrella : {"all", "1", "simd", "ALL", "Simd", "on", "true", "yes"}) {
        for (const char* rung : {"ssse3", "avx2", "vpclmul", "gfni", "exec-avx2", "exec-avx512"}) {
            rows.push_back({umbrella, rung, true});
        }
    }
    for (const char* off : {"", "0", "off", "false", "no"}) {
        rows.push_back({off, "exec-avx2", false});
    }
    for (const Row& r : rows) {
        EXPECT_EQ(guard::fault_spec_hits(r.spec, r.rung), r.forced)
            << r.rung << " under \"" << (r.spec ? r.spec : "(null)") << '"';
    }
    // Scalar is each ladder's floor, not a rung: never screened, so never
    // forced, whatever the spec says.
    EXPECT_EQ(guard::find_rung(bulk::byte_ladder(), "scalar"), nullptr);
    EXPECT_EQ(guard::find_rung(bulk::word_ladder(), "scalar"), nullptr);
    EXPECT_EQ(guard::find_rung(exec::tape_ladder(), "scalar"), nullptr);
}

// --- The tiers' real ladders -------------------------------------------------
//
// Each helper runs on all three ladders (bulk bytes, bulk words, exec tapes),
// since they share one screening walk.

/// Every kernel of `ladder` this host runs, its floor included, passes its
/// golden self-test, and a forced fault is always caught.  The floors are
/// never screened in production, but they must agree with the self-tests'
/// independent references — otherwise a reference itself is wrong.
template <class Kernel>
void expect_selftests_hold(const guard::Ladder<Kernel>& ladder) {
    for (const Kernel* k : guard::runnable(ladder, bulk::detect_cpu())) {
        const guard::Status s = ladder.selftest(*k, /*force_fault=*/false);
        EXPECT_TRUE(s.ok()) << s.to_string();
        const guard::Status faulted = ladder.selftest(*k, /*force_fault=*/true);
        ASSERT_FALSE(faulted.ok());
        EXPECT_EQ(faulted.fault, guard::Fault::KernelSelfTest);
        EXPECT_NE(faulted.detail.find("mismatch"), std::string::npos) << faulted.detail;
    }
}

TEST(GuardDispatch, SelfTestsPassAndCatchForcedFaults) {
    expect_selftests_hold(bulk::byte_ladder());
    expect_selftests_hold(bulk::word_ladder());
    expect_selftests_hold(exec::tape_ladder());
}

/// From this host's pick: a null spec keeps it; "all" quarantines every
/// runnable rung from it down, all forced, and lands on the floor; forcing
/// only the pick's rung stops at the next runnable kernel.
template <class Kernel>
void expect_walks_down(const guard::Ladder<Kernel>& ladder) {
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const auto kernels = guard::runnable(ladder, cpu);  // the pick first
    const Kernel* base = guard::pick(ladder, cpu, false);
    std::vector<guard::Quarantined> none;
    EXPECT_EQ(guard::screen(ladder, base, cpu, nullptr, none), base);
    EXPECT_TRUE(none.empty());
    std::vector<guard::Quarantined> all;
    EXPECT_EQ(guard::screen(ladder, base, cpu, "all", all), ladder.floor);
    EXPECT_EQ(all.size(), kernels.size() - (ladder.floor != nullptr ? 1U : 0U));
    for (const auto& q : all) {
        EXPECT_TRUE(q.forced);
        EXPECT_EQ(q.rung.rfind(ladder.prefix, 0), 0U) << q.rung;
    }
    if (base != ladder.floor) {
        ASSERT_EQ(kernels.front(), base);
        std::vector<guard::Quarantined> one;
        EXPECT_EQ(guard::screen(ladder, base, cpu, all.front().rung.c_str(), one),
                  kernels.size() > 1 ? kernels[1] : ladder.floor);
        ASSERT_EQ(one.size(), 1U);
        EXPECT_EQ(one[0].rung, all[0].rung);
    }
}

TEST(GuardDispatch, ForcedFaultsWalkEveryLadderDown) {
    expect_walks_down(bulk::byte_ladder());
    expect_walks_down(bulk::word_ladder());
    expect_walks_down(exec::tape_ladder());
    // The tier wrappers screen whole selections: "all" lands every family
    // on its floor, forcing one byte rung leaves the word kernel alone, and
    // forced-scalar selections need no screening.
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const bulk::Dispatch base = bulk::make_dispatch(cpu, false);
    const auto all = guard::screen_dispatch(base, "all");
    EXPECT_EQ(all.dispatch.byte, &bulk::kByteScalar);
    EXPECT_EQ(all.dispatch.word, nullptr);
    EXPECT_EQ(guard::screen_dispatch(base, bulk::kernel_name(base.byte->kind)).dispatch.word,
              base.word);
    EXPECT_EQ(guard::screen_exec_dispatch(exec::make_exec_dispatch(cpu, false), "all")
                  .dispatch.kernel,
              &exec::kTapeScalar);
    EXPECT_TRUE(guard::screen_dispatch(bulk::make_dispatch(cpu, true), "all").quarantined.empty());
    EXPECT_TRUE(guard::screen_exec_dispatch(exec::make_exec_dispatch(cpu, true), "all")
                    .quarantined.empty());
}

/// Each entry as "<rung>[!]: <detail>", "!" marking a forced failure.
std::vector<std::string> entries(const std::vector<guard::Quarantined>& list) {
    std::vector<std::string> out;
    for (const auto& q : list) {
        out.push_back(q.rung + (q.forced ? "!: " : ": ") + q.detail);
    }
    return out;
}

TEST(GuardDispatch, QuarantineReportsMatchEnvironment) {
    // The process-wide dispatches were screened on first use with whatever
    // GFR_GUARD_FAULT the environment carries (the CI drills set it; the
    // regular test run does not).
    const char* spec = std::getenv(guard::kGuardFaultEnv);
    const auto& bulk_report = guard::quarantine_report();
    const auto& exec_report = guard::exec_quarantine_report();
    if (spec == nullptr || *spec == '\0') {
        EXPECT_TRUE(bulk_report.empty());
        EXPECT_TRUE(exec_report.empty());
        return;
    }
    // Under a spec, each report is exactly what re-screening the same base
    // selection yields, and each process dispatch is that screened selection.
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const bulk::Dispatch& d = bulk::dispatch();
    const exec::ExecDispatch& e = exec::dispatch();
    const auto want = guard::screen_dispatch(bulk::make_dispatch(cpu, d.forced_scalar), spec);
    const auto want_exec =
        guard::screen_exec_dispatch(exec::make_exec_dispatch(cpu, e.forced_scalar), spec);
    EXPECT_EQ(entries(bulk_report), entries(want.quarantined));
    EXPECT_EQ(entries(exec_report), entries(want_exec.quarantined));
    EXPECT_EQ(d.byte, want.dispatch.byte);
    EXPECT_EQ(d.word, want.dispatch.word);
    EXPECT_EQ(e.kernel, want_exec.dispatch.kernel);
    // Independently of the guard's parser: no surviving rung is one the
    // spec names.
    std::vector<std::string> survivors;
    if (d.byte != &bulk::kByteScalar) {
        survivors.emplace_back(bulk::kernel_name(d.byte->kind));
    }
    if (d.word != nullptr) {
        survivors.emplace_back(bulk::kernel_name(d.word->kind));
    }
    if (e.kernel != &exec::kTapeScalar) {
        survivors.push_back(std::string{"exec-"} + exec::backend_name(e.kernel->backend));
    }
    for (const std::string& rung : survivors) {
        EXPECT_FALSE(testutil::fault_spec_names(spec, rung)) << rung;
    }
}

}  // namespace
}  // namespace gfr
