/**
 * @file
 * Declarative command-line parsing for the pmill binaries: a program
 * declares each flag once, as a CliFlag row holding its spelling, help
 * line and typed target; cli_parse fills the targets and cli_usage
 * generates the usage text from the same table.
 *
 * Accepted argv: `--name value` or `--name=value`; switches take no
 * value; `--help`/`-h` anywhere asks for the usage; numbers must be a
 * whole finite decimal in range (`5x`, `nan`, `0x1`, `1e999` fail); a
 * repeated flag keeps its last value; every other token (`-` too) is
 * a positional, and their count must match. Cross-flag rules belong
 * to the caller, after the whole argv is parsed.
 */

#ifndef PMILL_COMMON_CLI_HH
#define PMILL_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace pmill {

/** One flag: its spelling, its help line and where its value goes. */
struct CliFlag {
    /** An unsigned integer in [lo, hi]. */
    struct U32 {
        std::uint32_t *out;
        std::uint32_t lo, hi;
    };
    /** A finite number in [lo, hi], or (lo, hi] when lo_open. */
    struct Double {
        double *out;
        double lo, hi;
        bool lo_open = false;
    };
    /** One of a fixed list of names. */
    struct Choice {
        std::string *out;
        std::vector<std::string> names;
    };
    /** bool * is a switch, set when given; std::string * takes any value. */
    using Target = std::variant<bool *, std::string *, U32, Double, Choice>;

    std::string name;        ///< e.g. "--cores"
    std::string metavar;     ///< value placeholder; "" for switches
    std::string help;        ///< one line
    Target target;
    std::string alias = "";  ///< short form, e.g. "-v"
};

/** A program's command line: its positionals and its flag table. */
struct CliSpec {
    std::string program;                   ///< prefix of every message
    std::vector<std::string> positionals;  ///< e.g. "<config.click>"
    std::vector<CliFlag> flags;
};

/** What cli_parse made of an argv. */
struct CliResult {
    bool help = false;  ///< --help or -h was given; wins over any error
    std::vector<std::string> positionals;
    std::string error;  ///< the first error; empty on success

    bool ok() const { return error.empty(); }
};

/** Parse @p argv[1..argc) against @p spec into its flags' targets. */
CliResult cli_parse(const CliSpec &spec, int argc, const char *const *argv);

/** The usage text, generated from @p spec's table. */
std::string cli_usage(const CliSpec &spec);

/**
 * What a main does with @p r: print the usage to stdout and return 0
 * for help; print the error to stderr and return 2 on an error; return
 * -1 when the program should go on.
 */
int cli_report(const CliSpec &spec, const CliResult &r);

} // namespace pmill

#endif // PMILL_COMMON_CLI_HH
