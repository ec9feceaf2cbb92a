/**
 * @file
 * pmill_explain: render a ranked bottleneck report from a run's
 * cycle-accounting JSONL.
 *
 * Usage:
 *   pmill_explain <stats.jsonl> [--top N]
 *   pmill_explain -            # read stdin
 *   pmill_explain --help       # list the options
 *
 * The input is any JSONL stream containing the `{"type":"acct"}` /
 * `{"type":"acct_check"}` lines that `pmill_run --stats-json` (or any
 * caller of acct_write_jsonl) emits; all other line types are skipped,
 * so pointing it at the full stats file Just Works. Exits 0 on a
 * rendered report, 1 when the stream has no accounting lines (e.g. a
 * -DPMILL_ACCT=OFF build), 2 on usage/IO errors.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "src/accounting/acct_report.hh"
#include "src/common/cli.hh"

int
main(int argc, char **argv)
{
    std::uint32_t top_n = 5;

    const pmill::CliSpec spec{
        "pmill_explain", {"<stats.jsonl | ->"}, {
            {"--top", "N", "elements to rank by attributed stall (default 5)",
             pmill::CliFlag::U32{&top_n, 1,
                                 std::numeric_limits<std::uint32_t>::max()}},
        }};
    const pmill::CliResult args = pmill::cli_parse(spec, argc, argv);
    if (const int rc = pmill::cli_report(spec, args); rc >= 0)
        return rc;
    const std::string &path = args.positionals[0];

    pmill::AcctReport report;
    std::string err;
    bool ok = false;
    if (path == "-") {
        ok = pmill::acct_report_from_jsonl(std::cin, &report, &err);
    } else {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "pmill_explain: cannot open %s\n",
                         path.c_str());
            return 2;
        }
        ok = pmill::acct_report_from_jsonl(in, &report, &err);
    }
    if (!ok) {
        std::fprintf(stderr, "pmill_explain: %s\n", err.c_str());
        return 1;
    }

    std::ostringstream os;
    pmill::acct_render_report(report, os, top_n);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
