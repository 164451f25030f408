#include "support/parse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace dlp::support {

long long parse_int(const std::string& v) {
    // strtoll alone skips leading whitespace and stops at junk.
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])))
        throw std::runtime_error("expected an integer, got '" + v + "'");
    errno = 0;
    char* end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || errno == ERANGE)
        throw std::runtime_error("expected an integer, got '" + v + "'");
    if (end != v.c_str() + v.size())
        throw std::runtime_error("trailing junk in integer '" + v + "'");
    return n;
}

long long parse_int(const std::string& v, long long min, long long max) {
    const long long n = parse_int(v);
    if (n < min || n > max)
        throw std::runtime_error("expected an integer in [" +
                                 std::to_string(min) + ", " +
                                 std::to_string(max) + "], got '" + v + "'");
    return n;
}

}  // namespace dlp::support
