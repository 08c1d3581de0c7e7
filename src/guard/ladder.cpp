#include "guard/ladder.h"

namespace gfr::guard {

namespace {

/// The one token matcher behind every knob: `token`, trimmed of spaces and
/// tabs, equals the lower-case `word` in any case.
bool token_is(std::string_view token, std::string_view word) noexcept {
    const auto first = token.find_first_not_of(" \t");
    token = first == std::string_view::npos
                ? std::string_view{}
                : token.substr(first, token.find_last_not_of(" \t") + 1 - first);
    return std::equal(token.begin(), token.end(), word.begin(), word.end(),
                      [](char c, char w) {
                          return (c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c) == w;
                      });
}

}  // namespace

bool env_flag_enabled(const char* value) noexcept {
    if (value == nullptr) {
        return false;
    }
    for (const char* off : {"", "0", "off", "false", "no"}) {
        if (token_is(value, off)) {
            return false;
        }
    }
    return true;
}

bool fault_spec_hits(const char* spec, std::string_view name) noexcept {
    std::string_view rest = spec != nullptr ? spec : "";
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string_view token = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? "" : rest.substr(comma + 1);
        using namespace std::string_view_literals;
        for (const auto word : {"all"sv, "1"sv, "simd"sv, "on"sv, "true"sv, "yes"sv, name}) {
            if (token_is(token, word)) {
                return true;
            }
        }
    }
    return false;
}

std::string Quarantined::to_string() const {
    return "quarantined " + rung +
           (forced ? std::string{" (forced by "} + kGuardFaultEnv + "): "
                   : std::string{" (self-test): "}) +
           detail;
}

}  // namespace gfr::guard
