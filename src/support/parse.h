// Checked text parsing shared by every input surface: one whole-string
// integer parser for tool flags, environment knobs and campaign specs, and
// the line-numbered error the text formats (.bench, .rules) throw.
#pragma once

#include <stdexcept>
#include <string>

namespace dlp::support {

/// A malformed line of a text format.  what() is
/// "<format>:<line>: <message>" ("bench:12: ..."); line() and message()
/// carry the parts, so no caller parses them back out of what().
class ParseError : public std::runtime_error {
public:
    ParseError(const std::string& format, int line, std::string message)
        : std::runtime_error(format + ":" + std::to_string(line) + ": " +
                             message),
          line_(line),
          message_(std::move(message)) {}

    int line() const { return line_; }
    const std::string& message() const { return message_; }

private:
    int line_;
    std::string message_;
};

/// Parses `v` as one base-10 integer with an optional sign.  An empty
/// value, leading whitespace, trailing junk ("10x", "5 ") or a value
/// beyond long long throws std::runtime_error without a location.
long long parse_int(const std::string& v);

/// parse_int, also throwing when the value lies outside [min, max].
long long parse_int(const std::string& v, long long min, long long max);

}  // namespace dlp::support
