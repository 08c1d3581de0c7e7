#include "harness.h"

#include "bulk/kernels.h"
#include "exec/run_kernels.h"
#include "guard/exec_check.h"
#include "guard/kernel_check.h"
#include "netlist/clone.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t ns_since(Clock::time_point epoch) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
        .count();
}

}  // namespace

Trace::Span::Span(Trace& trace, const char* name) : trace_{trace} {
    if (!trace_.enabled_) {
        return;
    }
    index_ = static_cast<int>(trace_.spans_.size());
    trace_.spans_.push_back({.name = name,
                             .start_ns = ns_since(trace_.epoch_),
                             .end_ns = 0,
                             .parent = trace_.open_.empty() ? -1 : trace_.open_.back(),
                             .pass = trace_.pass_});
    trace_.open_.push_back(index_);
}

Trace::Span::~Span() {
    if (index_ < 0) {
        return;
    }
    SpanRecord& rec = trace_.spans_[static_cast<std::size_t>(index_)];
    rec.end_ns = ns_since(trace_.epoch_);
    trace_.open_.pop_back();
    trace_.current_[rec.name + "_s"] += static_cast<double>(rec.end_ns - rec.start_ns) * 1e-9;
}

void Trace::count(const char* name, double value) {
    if (enabled_) {
        current_[name] += value;
    }
}

void Trace::peak(const char* name, double value) {
    if (enabled_) {
        double& slot = current_[name];
        slot = std::max(slot, value);
    }
}

void Trace::begin(int pass) {
    pass_ = pass;
    current_.clear();
}

void Trace::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write trace file " + path);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"pass\":" << s.pass << "}\n";
    }
}

gfr::netlist::Netlist mutant(const gfr::netlist::Netlist& nl) {
    using gfr::netlist::GateKind;
    using gfr::netlist::NodeId;
    bool done = false;
    return gfr::netlist::clone_netlist(nl, {}, [&](NodeId, GateKind& kind, NodeId&, NodeId&) {
        if (!done && kind == GateKind::And2) {
            kind = GateKind::Xor2;
            done = true;
        }
    });
}

void screen_dispatch_ladders(Trace& trace) {
    Trace::Span span{trace, "guard.screen"};
    const gfr::bulk::CpuFeatures cpu = gfr::bulk::detect_cpu();
    (void)gfr::guard::screen_dispatch(
        gfr::bulk::make_dispatch(cpu, gfr::bulk::dispatch().forced_scalar));
    (void)gfr::guard::screen_exec_dispatch(
        gfr::exec::make_exec_dispatch(cpu, gfr::exec::dispatch().forced_scalar));
}

}  // namespace perfbench
