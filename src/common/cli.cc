#include "src/common/cli.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/json.hh"

namespace pmill {

namespace {

/** The values a row accepts, as a phrase: "an integer in [1, 64]". */
std::string
domain(const CliFlag &f)
{
    if (const auto *u = std::get_if<CliFlag::U32>(&f.target))
        return "an integer in [" + std::to_string(u->lo) + ", " +
               std::to_string(u->hi) + "]";
    if (const auto *d = std::get_if<CliFlag::Double>(&f.target)) {
        if (std::isinf(d->lo) && std::isinf(d->hi))
            return "a finite number";
        std::ostringstream os;
        os << "a number in " << (d->lo_open || std::isinf(d->lo) ? '(' : '[')
           << d->lo << ", " << d->hi << (std::isinf(d->hi) ? ')' : ']');
        return os.str();
    }
    if (const auto *c = std::get_if<CliFlag::Choice>(&f.target)) {
        std::string s = "one of ";
        for (std::size_t i = 0; i < c->names.size(); ++i)
            s += (i ? "|" : "") + c->names[i];
        return s;
    }
    return "";
}

/** Store @p value in value flag @p f's target; returns an error or "". */
std::string
assign(const CliFlag &f, const std::string &value)
{
    bool ok = true;
    std::uint64_t u64 = 0;
    double f64 = 0;
    if (std::string *const *s = std::get_if<std::string *>(&f.target)) {
        **s = value;
    } else if (const auto *u = std::get_if<CliFlag::U32>(&f.target)) {
        ok = parse_u64(value, &u64) && u64 >= u->lo && u64 <= u->hi;
        if (ok)
            *u->out = static_cast<std::uint32_t>(u64);
    } else if (const auto *d = std::get_if<CliFlag::Double>(&f.target)) {
        ok = parse_f64(value, &f64) && f64 >= d->lo && f64 <= d->hi &&
             !(d->lo_open && f64 <= d->lo);
        if (ok)
            *d->out = f64;
    } else {
        const auto &c = std::get<CliFlag::Choice>(f.target);
        ok = false;
        for (const std::string &n : c.names)
            ok = ok || n == value;
        if (ok)
            *c.out = value;
    }
    return ok ? "" : f.name + " expects " + domain(f) + ", got '" + value +
                         "'";
}

} // namespace

CliResult
cli_parse(const CliSpec &spec, int argc, const char *const *argv)
{
    CliResult r;
    // Keeps the first error; an empty message is no error.
    auto fail = [&r](const std::string &msg) {
        if (r.error.empty())
            r.error = msg;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        if (tok.size() < 2 || tok[0] != '-') {
            r.positionals.push_back(tok);
            continue;
        }
        const std::size_t eq = tok.find('=');
        const bool has_value = eq != std::string::npos;
        const std::string name = tok.substr(0, eq);
        const bool help = name == "--help" || name == "-h";
        const CliFlag *flag = nullptr;
        for (const CliFlag &f : spec.flags)
            if (name == f.name || (!f.alias.empty() && name == f.alias))
                flag = &f;
        if (!flag && !help) {
            fail("unknown flag '" + name + "'");
        } else if (help || std::holds_alternative<bool *>(flag->target)) {
            if (has_value)
                fail(name + " takes no value, got '" + tok + "'");
            else if (help)
                r.help = true;
            else
                *std::get<bool *>(flag->target) = true;
        } else if (!has_value && i + 1 >= argc) {
            fail(flag->name + " needs a value (" + flag->metavar + ")");
        } else {
            fail(assign(*flag, has_value ? tok.substr(eq + 1) : argv[++i]));
        }
    }
    const std::size_t want = spec.positionals.size();
    if (r.help)
        r.error.clear();
    else if (r.positionals.size() < want)
        fail("missing " + spec.positionals[r.positionals.size()]);
    else if (r.positionals.size() > want)
        fail("unexpected argument '" + r.positionals[want] + "'");
    return r;
}

std::string
cli_usage(const CliSpec &spec)
{
    std::string s = "usage: " + spec.program;
    for (const std::string &p : spec.positionals)
        s += " " + p;
    s += " [options]\n\noptions:\n";
    s += "  -h, --help\n      print this help and exit\n";
    for (const CliFlag &f : spec.flags) {
        const std::string dom = domain(f);
        s += "  " + (f.alias.empty() ? "" : f.alias + ", ") + f.name +
             (f.metavar.empty() ? "" : " " + f.metavar) + "\n      " +
             f.help + (dom.empty() ? "" : "; " + dom) + "\n";
    }
    return s;
}

int
cli_report(const CliSpec &spec, const CliResult &r)
{
    if (r.help) {
        std::fputs(cli_usage(spec).c_str(), stdout);
        return 0;
    }
    if (r.ok())
        return -1;
    std::fprintf(stderr, "%s: %s\n(%s --help lists the options)\n",
                 spec.program.c_str(), r.error.c_str(), spec.program.c_str());
    return 2;
}

} // namespace pmill
