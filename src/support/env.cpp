#include "support/env.h"

#include <cctype>
#include <cstdlib>

#include "support/parse.h"

namespace dlp::support {

namespace {

[[noreturn]] void bad_value(const char* name, const std::string& value,
                            const std::string& expected) {
    throw EnvError(std::string(name) + ": invalid value \"" + value +
                   "\" (expected " + expected + ")");
}

std::string range_text(long long min, long long max) {
    return "an integer in [" + std::to_string(min) + ", " +
           std::to_string(max) + "]";
}

}  // namespace

long long env_int(const char* name, long long fallback, long long min,
                  long long max) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    try {
        return parse_int(raw, min, max);
    } catch (const std::runtime_error&) {
        bad_value(name, raw, range_text(min, max));
    }
}

bool env_flag(const char* name, bool fallback) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    std::string s(raw);
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "1" || s == "on" || s == "true" || s == "yes") return true;
    if (s == "0" || s == "off" || s == "false" || s == "no") return false;
    bad_value(name, raw, "one of 1/on/true/yes or 0/off/false/no");
}

std::string env_str(const char* name, const std::string& fallback) {
    const char* raw = std::getenv(name);
    return raw ? std::string(raw) : fallback;
}

}  // namespace dlp::support
