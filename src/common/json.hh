/**
 * @file
 * The one spelling of values as text: a number grammar (parse_u64,
 * parse_f64) for argv, workload specs, element arguments and
 * artifacts alike, with range checks left to each caller; a record
 * writer (JsonRecord) for the one-flat-object-per-line JSON artifacts;
 * and a strict flat-object reader (parse_json_object_line,
 * read_json_lines, JsonFields) to load them back.
 */

#ifndef PMILL_COMMON_JSON_HH
#define PMILL_COMMON_JSON_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pmill {

/**
 * An optional `+`, then decimal digits, as a whole token that fits in
 * 64 bits. `-1`, ` 1`, `0x10`, `1e3` and 2^64 fail, leaving @p out
 * alone.
 */
bool parse_u64(std::string_view s, std::uint64_t *out);

/**
 * A whole token of digits, `.`, `+`, `-`, `e` and `E` that reads as a
 * finite number (`12.3`, `-4e5`, `+8`, `1e-1`). `nan`, `inf`, hex,
 * `1e999`, `5x`, a leading blank and "" fail, leaving @p out alone.
 */
bool parse_f64(std::string_view s, double *out);

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string json_escape(std::string_view s);

/** Format @p v as a JSON number (%.10g; NaN/inf degrade to 0). */
std::string json_number(double v);

/**
 * One JSON object, written field by field in call order and streamed
 * as one line: `os << JsonRecord("decision").num("t_us", t);`. Keys
 * are escaped like string values.
 */
class JsonRecord {
  public:
    JsonRecord() = default;
    /** A record that starts with `"type":"<type>"`. */
    explicit JsonRecord(std::string_view type) { str("type", type); }

    JsonRecord &str(std::string_view key, std::string_view v);
    /** A double, formatted by json_number(). */
    JsonRecord &num(std::string_view key, double v);
    /** An integer in plain decimal. */
    template <typename Int>
    JsonRecord &
    integer(std::string_view key, Int v)
    {
        static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
        return raw(key, std::to_string(v));
    }
    JsonRecord &boolean(std::string_view key, bool v);
    /** @p v bare when parse_f64 reads it, else as a string. */
    JsonRecord &cell(std::string_view key, const std::string &v);
    JsonRecord &strs(std::string_view key, const std::vector<std::string> &v);

    /** The object and its terminating newline. */
    std::string line() const { return text_ + "}\n"; }

  private:
    JsonRecord &raw(std::string_view key, std::string_view value);

    std::string text_ = "{";
};

std::ostream &operator<<(std::ostream &os, const JsonRecord &r);

/** A parsed flat JSON object: each value's text by key. */
using JsonObject = std::map<std::string, std::string>;

/**
 * Parse one flat JSON object (string, number, true/false/null and
 * flat-array values) into @p out: strings unescaped, bare values and
 * arrays as their raw text. A bare value must be a parse_f64 number or
 * `true`/`false`/`null`; a `\u` escape needs four hex digits; only
 * whitespace may surround the object.
 * @return false on malformed input, with @p err saying why.
 */
bool parse_json_object_line(const std::string &line, JsonObject *out,
                            std::string *err = nullptr);

/**
 * Typed getters over one parsed object. A missing key reads as the
 * zero value (older artifacts may lack newer fields); a malformed
 * value reads as zero too and records its key in bad().
 */
class JsonFields {
  public:
    explicit JsonFields(const JsonObject &obj) : obj_(obj) {}

    const JsonObject &obj() const { return obj_; }
    std::string str(const std::string &key) const;
    std::uint64_t u64(const std::string &key);
    double f64(const std::string &key);
    /** A string of comma-separated u64s ("1,2,3"; "" is empty). */
    std::vector<std::uint64_t> u64s(const std::string &key);
    /** An array of strings (`["a","b"]`). */
    std::vector<std::string> strs(const std::string &key);

    /** The first key with a malformed value; "" when all were fine. */
    const std::string &bad() const { return bad_; }

  private:
    template <typename T>
    T get(const std::string &key, bool (*parse)(std::string_view, T *));

    const JsonObject &obj_;
    std::string bad_;
};

/**
 * Parse each non-blank line of @p is and hand it to @p on_record,
 * which returns "" to go on or a message to stop. A malformed line or
 * value (JsonFields::bad()) stops the read too.
 * @return "" when every line was read, else "line N: <why>".
 */
std::string
read_json_lines(std::istream &is,
                const std::function<std::string(JsonFields &)> &on_record);

} // namespace pmill

#endif // PMILL_COMMON_JSON_HH
