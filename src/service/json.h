// Minimal JSON value model + strict parser/writer for the service
// protocol (protocol.h).
//
// Scope is deliberately small: the request/response envelopes are flat
// objects of scalars plus a few nested arrays, and the daemon must never
// trust a byte a client sent.  The parser is strict RFC 8259 (no
// comments, no trailing commas, UTF-16 escapes decoded to UTF-8 including
// surrogate pairs) with a hard nesting-depth cap, and every failure
// throws JsonError with the byte offset — a fuzzer-friendly contract the
// robustness suite leans on.  Numbers are held as double (the envelope
// carries nothing beyond 2^53).
//
// Object members preserve insertion order, so write_json() output is
// deterministic in construction order.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json_quote.h"

namespace dlp::service {

class JsonError : public std::runtime_error {
public:
    JsonError(const std::string& message, std::size_t offset)
        : std::runtime_error("json: " + message + " at offset " +
                             std::to_string(offset)),
          offset_(offset) {}
    std::size_t offset() const { return offset_; }

private:
    std::size_t offset_;
};

class Json {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };
    using Member = std::pair<std::string, Json>;

    Json() = default;  // null
    static Json boolean(bool b);
    static Json number(double v);
    static Json number(long long v);
    static Json string(std::string s);
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::Null; }

    // Typed accessors; throw std::runtime_error on a type mismatch.
    bool as_bool() const;
    double as_number() const;
    long long as_int() const;  ///< as_number() truncated; throws on NaN/inf
    const std::string& as_string() const;
    const std::vector<Json>& items() const;        ///< array elements
    const std::vector<Member>& members() const;    ///< object members

    /// Object member lookup; nullptr when absent or not an object.
    const Json* get(std::string_view key) const;

    // Builders (valid on the matching type only).
    void push_back(Json v);                     ///< array append
    void set(std::string key, Json v);          ///< object insert/replace

    // Convenience: member with a scalar default.
    std::string str_or(std::string_view key, const std::string& fb) const;
    long long int_or(std::string_view key, long long fb) const;
    bool bool_or(std::string_view key, bool fb) const;

private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> items_;
    std::vector<Member> members_;
};

/// Parses a complete JSON document (trailing garbage is an error).
/// `max_depth` bounds array/object nesting.  Throws JsonError.
Json parse_json(std::string_view text, int max_depth = 64);

/// Compact serialization (no whitespace); object members in insertion
/// order, numbers in shortest round-trip form.
std::string write_json(const Json& value);

/// Escapes `s` as a JSON string literal including the quotes.
using support::json_quote;

}  // namespace dlp::service
