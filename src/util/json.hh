/**
 * @file
 * A small self-contained JSON reader and the string escaping shared by
 * the JSON writers.
 *
 * The reader parses one whole document into a tree of JsonValue. It is
 * strict because its input is outside input (decision ledgers, metric
 * and trace exports read back by tools): numbers must follow the
 * RFC 8259 grammar (no NaN/Infinity, hex, leading '+' or '.', or
 * trailing exponent marker), strings must be terminated, escape their
 * control characters and use only the standard escapes, nothing may
 * follow the document, and nesting deeper than kJsonMaxDepth is
 * rejected instead of exhausting the stack. Numbers are converted with
 * strtod, so jsonNumber's output round-trips bit-exactly.
 */

#ifndef GEO_UTIL_JSON_HH
#define GEO_UTIL_JSON_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace geo {
namespace util {

/** Deepest array/object nesting parseJson accepts. The repo's own
 *  documents nest at most 4 deep (metrics and trace exports). */
constexpr size_t kJsonMaxDepth = 64;

/** One parsed JSON value; objects keep their fields in document order. */
struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    /** First field named `key`, or nullptr (also for non-objects). */
    const JsonValue *get(const char *key) const;

    /** Numeric field `key`, or `fallback` when absent or not a number. */
    double num(const char *key, double fallback = 0.0) const;

    /** String field `key`, or "" when absent or not a string. */
    std::string str(const char *key) const;

    /** Boolean field `key`; false when absent or not a boolean. */
    bool flag(const char *key) const;
};

/**
 * Parse `text` as one JSON document (surrounding whitespace allowed).
 * @return false on any syntax error; `out` is then unspecified.
 */
bool parseJson(const std::string &text, JsonValue &out);

/** Escape `"` and `\` for embedding `s` in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * `v` as a JSON number: the shortest of `%.15g`, `%.16g` and `%.17g`
 * that strtod reads back as exactly `v`, so a reader reproduces the
 * writer's value bit for bit. JSON has no NaN or Inf; those print "0".
 */
std::string jsonNumber(double v);

} // namespace util
} // namespace geo

#endif // GEO_UTIL_JSON_HH
