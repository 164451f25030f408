// The one JSON string escaper: every document the project emits (campaign
// reports, service replies, lint diagnostics, Chrome traces) quotes its
// strings through it, so any byte sequence renders as a valid RFC 8259
// string literal.
#pragma once

#include <string>
#include <string_view>

namespace dlp::support {

/// Escapes `s` as a JSON string literal including the quotes.  Control
/// characters become \b \f \n \r \t or \u00XX; other bytes pass through.
std::string json_quote(std::string_view s);

}  // namespace dlp::support
