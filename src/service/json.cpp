#include "service/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dlp::service {

Json Json::boolean(bool b) {
    Json j;
    j.type_ = Type::Bool;
    j.bool_ = b;
    return j;
}

Json Json::number(double v) {
    Json j;
    j.type_ = Type::Number;
    j.num_ = v;
    return j;
}

Json Json::number(long long v) { return number(static_cast<double>(v)); }

Json Json::string(std::string s) {
    Json j;
    j.type_ = Type::String;
    j.str_ = std::move(s);
    return j;
}

Json Json::array() {
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json Json::object() {
    Json j;
    j.type_ = Type::Object;
    return j;
}

namespace {
[[noreturn]] void type_error(const char* want) {
    throw std::runtime_error(std::string("json: value is not ") + want);
}
}  // namespace

bool Json::as_bool() const {
    if (type_ != Type::Bool) type_error("a bool");
    return bool_;
}

double Json::as_number() const {
    if (type_ != Type::Number) type_error("a number");
    return num_;
}

long long Json::as_int() const {
    const double v = as_number();
    if (!std::isfinite(v)) type_error("a finite integer");
    return static_cast<long long>(v);
}

const std::string& Json::as_string() const {
    if (type_ != Type::String) type_error("a string");
    return str_;
}

const std::vector<Json>& Json::items() const {
    if (type_ != Type::Array) type_error("an array");
    return items_;
}

const std::vector<Json::Member>& Json::members() const {
    if (type_ != Type::Object) type_error("an object");
    return members_;
}

const Json* Json::get(std::string_view key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : members_)
        if (k == key) return &v;
    return nullptr;
}

void Json::push_back(Json v) {
    if (type_ != Type::Array) type_error("an array");
    items_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
    if (type_ != Type::Object) type_error("an object");
    for (auto& [k, old] : members_)
        if (k == key) {
            old = std::move(v);
            return;
        }
    members_.emplace_back(std::move(key), std::move(v));
}

std::string Json::str_or(std::string_view key, const std::string& fb) const {
    const Json* v = get(key);
    return v && v->type() == Type::String ? v->as_string() : fb;
}

long long Json::int_or(std::string_view key, long long fb) const {
    const Json* v = get(key);
    return v && v->type() == Type::Number ? v->as_int() : fb;
}

bool Json::bool_or(std::string_view key, bool fb) const {
    const Json* v = get(key);
    return v && v->type() == Type::Bool ? v->as_bool() : fb;
}

// ---- parser ---------------------------------------------------------------

namespace {

class Parser {
public:
    Parser(std::string_view text, int max_depth)
        : text_(text), max_depth_(max_depth) {}

    Json parse_document() {
        Json v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw JsonError(message, pos_);
    }

    char peek() const {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char take() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    void expect_word(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word)
            fail("invalid literal");
        pos_ += word.size();
    }

    Json parse_value(int depth) {
        if (depth > max_depth_) fail("nesting too deep");
        skip_ws();
        switch (peek()) {
            case '{': return parse_object(depth);
            case '[': return parse_array(depth);
            case '"': return Json::string(parse_string());
            case 't': expect_word("true"); return Json::boolean(true);
            case 'f': expect_word("false"); return Json::boolean(false);
            case 'n': expect_word("null"); return Json();
            default: return parse_number();
        }
    }

    Json parse_object(int depth) {
        take();  // {
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            take();
            return obj;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') fail("expected object key");
            std::string key = parse_string();
            skip_ws();
            if (take() != ':') fail("expected ':'");
            obj.set(std::move(key), parse_value(depth + 1));
            skip_ws();
            const char c = take();
            if (c == '}') return obj;
            if (c != ',') fail("expected ',' or '}'");
        }
    }

    Json parse_array(int depth) {
        take();  // [
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            take();
            return arr;
        }
        while (true) {
            arr.push_back(parse_value(depth + 1));
            skip_ws();
            const char c = take();
            if (c == ']') return arr;
            if (c != ',') fail("expected ',' or ']'");
        }
    }

    unsigned parse_hex4() {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = take();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return v;
    }

    void append_utf8(std::string& out, unsigned cp) {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    std::string parse_string() {
        take();  // "
        std::string out;
        while (true) {
            const char c = take();
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char e = take();
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    unsigned cp = parse_hex4();
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: a low surrogate must follow.
                        if (take() != '\\' || take() != 'u')
                            fail("unpaired surrogate");
                        const unsigned lo = parse_hex4();
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            fail("unpaired surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        fail("unpaired surrogate");
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: fail("invalid escape");
            }
        }
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') take();
        if (peek() == '0') {
            take();
        } else if (peek() >= '1' && peek() <= '9') {
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        } else {
            fail("invalid number");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
                fail("invalid number");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
                fail("invalid number");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(v))
            fail("number out of range");
        return Json::number(v);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int max_depth_;
};

}  // namespace

Json parse_json(std::string_view text, int max_depth) {
    return Parser(text, max_depth).parse_document();
}

// ---- writer ---------------------------------------------------------------

namespace {

void write_value(const Json& v, std::string& out) {
    switch (v.type()) {
        case Json::Type::Null: out += "null"; break;
        case Json::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
        case Json::Type::Number: {
            const double d = v.as_number();
            // Integers (the common envelope case) print exactly; other
            // values get shortest-round-trip via %.17g.
            if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(d));
                out += buf;
            } else {
                char buf[40];
                std::snprintf(buf, sizeof buf, "%.17g", d);
                out += buf;
            }
            break;
        }
        case Json::Type::String: out += json_quote(v.as_string()); break;
        case Json::Type::Array: {
            out.push_back('[');
            bool first = true;
            for (const Json& item : v.items()) {
                if (!first) out.push_back(',');
                first = false;
                write_value(item, out);
            }
            out.push_back(']');
            break;
        }
        case Json::Type::Object: {
            out.push_back('{');
            bool first = true;
            for (const auto& [key, value] : v.members()) {
                if (!first) out.push_back(',');
                first = false;
                out += json_quote(key);
                out.push_back(':');
                write_value(value, out);
            }
            out.push_back('}');
            break;
        }
    }
}

}  // namespace

std::string write_json(const Json& value) {
    std::string out;
    write_value(value, out);
    return out;
}

}  // namespace dlp::service
