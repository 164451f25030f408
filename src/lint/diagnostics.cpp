#include "lint/diagnostics.h"

#include <algorithm>
#include <sstream>

#include "support/json_quote.h"

namespace dlp::lint {

std::string_view severity_name(Severity severity) {
    switch (severity) {
        case Severity::Info: return "info";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

SuppressionSet::SuppressionSet(std::string_view config) {
    std::string token;
    const auto flush = [&] {
        if (token.empty()) return;
        if (token.front() == '-') token.erase(0, 1);
        if (!token.empty()) {
            if (token.back() == '*')
                prefixes_.push_back(token.substr(0, token.size() - 1));
            else
                exact_.push_back(token);
        }
        token.clear();
    };
    for (char c : config) {
        if (c == ',' || c == ';' || c == ' ' || c == '\t' || c == '\n')
            flush();
        else
            token.push_back(c);
    }
    flush();
}

bool SuppressionSet::suppresses(std::string_view check) const {
    if (std::find(exact_.begin(), exact_.end(), check) != exact_.end())
        return true;
    return std::any_of(prefixes_.begin(), prefixes_.end(),
                       [&](const std::string& p) {
                           return check.substr(0, p.size()) == p;
                       });
}

void DiagnosticEngine::report(Severity severity, std::string_view check,
                              std::string message, SourceLoc loc,
                              std::string object) {
    if (suppress_.suppresses(check)) {
        ++suppressed_;
        return;
    }
    ++counts_[static_cast<std::size_t>(severity)];
    diags_.push_back({severity, std::string(check), std::move(object),
                      std::move(message), std::move(loc)});
}

std::string render_text(std::span<const Diagnostic> diagnostics) {
    std::ostringstream out;
    for (const Diagnostic& d : diagnostics) {
        if (!d.loc.file.empty()) out << d.loc.file << ":";
        if (d.loc.has_line()) out << d.loc.line << ":";
        if (!d.loc.file.empty() || d.loc.has_line()) out << " ";
        out << severity_name(d.severity) << ": [" << d.check << "] "
            << d.message << "\n";
    }
    return out.str();
}

std::string render_json(std::span<const Diagnostic> diagnostics) {
    std::size_t counts[3] = {0, 0, 0};
    std::ostringstream out;
    out << "{\"diagnostics\": [";
    bool first = true;
    for (const Diagnostic& d : diagnostics) {
        ++counts[static_cast<std::size_t>(d.severity)];
        if (!first) out << ", ";
        first = false;
        out << "{\"check\": " << support::json_quote(d.check)
            << ", \"severity\": "
            << support::json_quote(severity_name(d.severity))
            << ", \"object\": " << support::json_quote(d.object)
            << ", \"message\": " << support::json_quote(d.message)
            << ", \"file\": " << support::json_quote(d.loc.file)
            << ", \"line\": " << d.loc.line << "}";
    }
    out << "], \"counts\": {\"error\": "
        << counts[static_cast<std::size_t>(Severity::Error)]
        << ", \"warning\": "
        << counts[static_cast<std::size_t>(Severity::Warning)]
        << ", \"info\": " << counts[static_cast<std::size_t>(Severity::Info)]
        << "}}";
    return out.str();
}

std::string summary_line(const DiagnosticEngine& engine) {
    std::ostringstream out;
    const auto plural = [](std::size_t n) { return n == 1 ? "" : "s"; };
    out << engine.errors() << " error" << plural(engine.errors()) << ", "
        << engine.warnings() << " warning" << plural(engine.warnings())
        << ", " << engine.infos() << " info";
    if (engine.suppressed() > 0)
        out << " (" << engine.suppressed() << " suppressed)";
    return out.str();
}

}  // namespace dlp::lint
