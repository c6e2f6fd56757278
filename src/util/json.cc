#include "util/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace geo {
namespace util {

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isHexDigit(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/** Recursive-descent parser over one document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        if (!value(out, 0))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    bool
    atEnd() const
    {
        return pos_ >= text_.size();
    }

    void
    skipSpace()
    {
        while (!atEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                            text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    value(JsonValue &out, size_t depth)
    {
        skipSpace();
        if (atEnd())
            return false;
        char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth >= kJsonMaxDepth)
                return false;
            return c == '{' ? object(out, depth + 1)
                            : array(out, depth + 1);
        }
        if (c == '"') {
            out.kind = JsonValue::String;
            return string(out.text);
        }
        if (c == 't') {
            out.kind = JsonValue::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Null;
            return literal("null");
        }
        return number(out);
    }

    /** Advance over a run of digits; false when there is none. */
    bool
    digits()
    {
        size_t start = pos_;
        while (!atEnd() && isDigit(text_[pos_]))
            ++pos_;
        return pos_ > start;
    }

    /** RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number(JsonValue &out)
    {
        const size_t start = pos_;
        if (!atEnd() && text_[pos_] == '-')
            ++pos_;
        if (!atEnd() && text_[pos_] == '0')
            ++pos_;
        else if (!digits())
            return false;
        if (!atEnd() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        // The token is well-formed, so strtod reads exactly it (a
        // longer read means the bytes after it cannot be valid JSON).
        const char *begin = text_.c_str() + start;
        char *end = nullptr;
        out.kind = JsonValue::Number;
        out.number = std::strtod(begin, &end);
        return end == text_.c_str() + pos_;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (!atEnd()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control characters must be escaped
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (atEnd())
                return false;
            switch (text_[pos_++]) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u':
                // No writer in this repo emits \u escapes: check the
                // four hex digits and substitute, so a foreign file
                // still loads.
                for (int i = 0; i < 4; ++i)
                    if (atEnd() || !isHexDigit(text_[pos_++]))
                        return false;
                out.push_back('?');
                break;
              default:
                return false;
            }
        }
        return false;
    }

    bool
    array(JsonValue &out, size_t depth)
    {
        out.kind = JsonValue::Array;
        ++pos_; // '['
        skipSpace();
        if (!atEnd() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            if (!value(item, depth))
                return false;
            out.items.push_back(std::move(item));
            skipSpace();
            if (atEnd())
                return false;
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return false;
        }
    }

    bool
    object(JsonValue &out, size_t depth)
    {
        out.kind = JsonValue::Object;
        ++pos_; // '{'
        skipSpace();
        if (!atEnd() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (atEnd() || text_[pos_] != '"' || !string(key))
                return false;
            skipSpace();
            if (atEnd() || text_[pos_++] != ':')
                return false;
            JsonValue item;
            if (!value(item, depth))
                return false;
            out.fields.emplace_back(std::move(key), std::move(item));
            skipSpace();
            if (atEnd())
                return false;
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return false;
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

const JsonValue *
JsonValue::get(const char *key) const
{
    for (const auto &kv : fields)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

double
JsonValue::num(const char *key, double fallback) const
{
    const JsonValue *v = get(key);
    return v && v->kind == Number ? v->number : fallback;
}

std::string
JsonValue::str(const char *key) const
{
    const JsonValue *v = get(key);
    return v && v->kind == String ? v->text : std::string();
}

bool
JsonValue::flag(const char *key) const
{
    const JsonValue *v = get(key);
    return v && v->kind == Bool && v->boolean;
}

bool
parseJson(const std::string &text, JsonValue &out)
{
    out = JsonValue();
    return Parser(text).parse(out);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace util
} // namespace geo
