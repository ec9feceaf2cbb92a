#include "src/common/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "src/common/log.hh"

namespace pmill {

bool
parse_u64(std::string_view s, std::uint64_t *out)
{
    if (!s.empty() && s[0] == '+')
        s.remove_prefix(1);
    // from_chars takes no sign for unsigned types and fails on overflow.
    const char *end = s.data() + s.size();
    std::uint64_t v;
    const auto [p, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || p != end)
        return false;
    *out = v;
    return true;
}

bool
parse_f64(std::string_view s, double *out)
{
    // strtod also reads "inf", "nan", hex floats and leading blanks;
    // the character set keeps the grammar to plain decimal.
    if (s.empty() || s.find_first_not_of("0123456789.+-eE") !=
                         std::string_view::npos)
        return false;
    const std::string tok(s);
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string
json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "0";
    return strprintf("%.10g", v);
}

JsonRecord &
JsonRecord::raw(std::string_view key, std::string_view value)
{
    text_ += text_.size() > 1 ? ",\"" : "\"";
    text_ += json_escape(key) + "\":";
    text_ += value;
    return *this;
}

JsonRecord &
JsonRecord::str(std::string_view key, std::string_view v)
{
    return raw(key, "\"" + json_escape(v) + "\"");
}

JsonRecord &
JsonRecord::num(std::string_view key, double v)
{
    return raw(key, json_number(v));
}

JsonRecord &
JsonRecord::boolean(std::string_view key, bool v)
{
    return raw(key, v ? "true" : "false");
}

JsonRecord &
JsonRecord::cell(std::string_view key, const std::string &v)
{
    double d;
    return parse_f64(v, &d) ? raw(key, v) : str(key, v);
}

JsonRecord &
JsonRecord::strs(std::string_view key, const std::vector<std::string> &v)
{
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        a += (i ? ",\"" : "\"") + json_escape(v[i]) + "\"";
    return raw(key, a + "]");
}

std::ostream &
operator<<(std::ostream &os, const JsonRecord &r)
{
    return os << r.line();
}

namespace {

/** A cursor over one line of JSON text. */
struct Scanner {
    std::string_view s;
    std::size_t i = 0;

    void ws() { i = std::min(s.size(), s.find_first_not_of(" \t\n\r", i)); }

    /** Skip blanks, then consume @p c if it is next. */
    bool
    eat(char c)
    {
        ws();
        if (i >= s.size() || s[i] != c)
            return false;
        ++i;
        return true;
    }

    /** `open` `close`, or `open` item (`,` item)* `close`. */
    template <typename Item>
    bool
    seq(char open, char close, Item item)
    {
        if (!eat(open))
            return false;
        if (eat(close))
            return true;
        do {
            ws();
            if (!item())
                return false;
        } while (eat(','));
        return eat(close);
    }

    /** The four hex digits of a \u escape, appended as UTF-8. */
    bool
    unicode(std::string *out)
    {
        unsigned cp = 0;
        for (int k = 0; k < 4; ++k, ++i) {
            const char h = i < s.size() ? s[i] : 'x';
            if (!std::isxdigit(static_cast<unsigned char>(h)))
                return false;
            cp = cp * 16 + (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
        }
        if (cp < 0x80) {
            *out += static_cast<char>(cp);
            return true;
        }
        if (cp < 0x800) {
            *out += static_cast<char>(0xC0 | cp >> 6);
        } else {
            *out += static_cast<char>(0xE0 | cp >> 12);
            *out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
        }
        *out += static_cast<char>(0x80 | (cp & 0x3F));
        return true;
    }

    /** A string literal, unescaped into @p out. */
    bool
    string(std::string *out)
    {
        static constexpr std::string_view from = "\"\\/bfnrt",
                                          to = "\"\\/\b\f\n\r\t";
        out->clear();
        if (i >= s.size() || s[i++] != '"')
            return false;
        while (i < s.size()) {
            const char c = s[i++];
            if (c == '"')
                return true;
            // Raw control bytes are not JSON; nor is a dangling '\\'.
            if (static_cast<unsigned char>(c) < 0x20 ||
                (c == '\\' && i == s.size()))
                return false;
            if (c != '\\')
                *out += c;
            else if (const char e = s[i++]; from.find(e) != from.npos)
                *out += to[from.find(e)];
            else if (e != 'u' || !unicode(out))
                return false;
        }
        return false;
    }

    /** A string, a number, true, false or null; bare ones raw. */
    bool
    scalar(std::string *out)
    {
        if (i < s.size() && s[i] == '"')
            return string(out);
        const std::size_t start = i;
        i = std::min(s.size(), s.find_first_of(",:]}[{\" \t\n\r", i));
        *out = s.substr(start, i - start);
        double v;
        return *out == "true" || *out == "false" || *out == "null" ||
               parse_f64(*out, &v);
    }

    /** A scalar, or a flat array of scalars kept as its raw text. */
    bool
    value(std::string *out)
    {
        if (i >= s.size() || s[i] != '[')
            return scalar(out);
        const std::size_t start = i;
        if (!seq('[', ']', [&] { return scalar(out); }))
            return false;
        *out = s.substr(start, i - start);
        return true;
    }

    /** Nothing but blanks left. */
    bool
    done()
    {
        ws();
        return i == s.size();
    }
};

bool
parse_u64_list(std::string_view s, std::vector<std::uint64_t> *out)
{
    while (!s.empty()) {
        const std::size_t comma = s.find(',');
        if (!parse_u64(s.substr(0, comma), &out->emplace_back()))
            return false;
        if (comma == s.npos)
            break;
        s.remove_prefix(comma + 1);
        if (s.empty())
            return false;  // a trailing comma
    }
    return true;
}

bool
parse_string_array(std::string_view s, std::vector<std::string> *out)
{
    Scanner sc{s};
    std::string item;
    return sc.seq('[', ']', [&] {
        if (!sc.string(&item))
            return false;
        out->push_back(item);
        return true;
    }) && sc.done();
}

} // namespace

bool
parse_json_object_line(const std::string &line, JsonObject *out,
                       std::string *err)
{
    out->clear();
    Scanner sc{line};
    std::string key, why;
    const bool ok = sc.seq('{', '}', [&] {
        if (!sc.string(&key) || !sc.eat(':'))
            return false;
        sc.ws();
        if (!sc.value(&(*out)[key]))
            why = "malformed value for '" + key + "'";
        return why.empty();
    });
    if (ok && sc.done())
        return true;
    if (err)
        *err = why.empty() ? strprintf("malformed JSON at byte %zu", sc.i)
                           : why;
    return false;
}

template <typename T>
T
JsonFields::get(const std::string &key, bool (*parse)(std::string_view, T *))
{
    T out{};
    const auto it = obj_.find(key);
    if (it != obj_.end() && !parse(it->second, &out)) {
        if (bad_.empty())
            bad_ = key;
        out = T{};
    }
    return out;
}

std::string
JsonFields::str(const std::string &key) const
{
    const auto it = obj_.find(key);
    return it == obj_.end() ? std::string() : it->second;
}

std::uint64_t
JsonFields::u64(const std::string &key)
{
    return get(key, parse_u64);
}

double
JsonFields::f64(const std::string &key)
{
    return get(key, parse_f64);
}

std::vector<std::uint64_t>
JsonFields::u64s(const std::string &key)
{
    return get(key, parse_u64_list);
}

std::vector<std::string>
JsonFields::strs(const std::string &key)
{
    return get(key, parse_string_array);
}

std::string
read_json_lines(std::istream &is,
                const std::function<std::string(JsonFields &)> &on_record)
{
    std::string line, why;
    for (std::size_t n = 1; std::getline(is, line); ++n) {
        if (line.empty())
            continue;
        JsonObject obj;
        if (parse_json_object_line(line, &obj, &why)) {
            JsonFields f(obj);
            why = on_record(f);
            if (why.empty() && !f.bad().empty())
                why = "malformed value for '" + f.bad() + "'";
        }
        if (!why.empty())
            return strprintf("line %zu: %s", n, why.c_str());
    }
    return "";
}

} // namespace pmill
