/**
 * @file
 * pmill_bench_diff: CI gate comparing two bench-artifact directories.
 *
 * Usage: pmill_bench_diff <baseline_dir> <current_dir> [options]
 * (`--help` lists the options).
 *
 * Exits 0 when every tracked metric (throughput-like up, latency-like
 * down, "eq" columns unchanged bit-for-bit) of every baseline artifact
 * is within the threshold; exits 1 on any regression, missing bench,
 * or malformed artifact. Wall-clock ("wall"/"host") columns are
 * informational unless --host-threshold arms a wide gate for them —
 * shared CI runners make tight wall-clock gates flaky.
 */

#include <cstdio>
#include <limits>
#include <string>

#include "src/common/cli.hh"
#include "src/telemetry/bench_diff.hh"

int
main(int argc, char **argv)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double threshold = 5.0;
    double host_threshold = -1.0;  // informational by default
    bool verbose = false;

    using Double = pmill::CliFlag::Double;
    const pmill::CliSpec spec{
        "pmill_bench_diff", {"<baseline_dir>", "<current_dir>"}, {
            {"--threshold", "PCT",
             "regression gate for simulated metrics (default 5)",
             Double{.out = &threshold, .lo = 0, .hi = kInf, .lo_open = true}},
            {"--host-threshold", "PCT",
             "gate wall-clock columns too (default, or negative: "
             "informational)",
             Double{.out = &host_threshold, .lo = -kInf, .hi = kInf}},
            {"--verbose", "", "list every compared column", &verbose, "-v"},
        }};
    const pmill::CliResult args = pmill::cli_parse(spec, argc, argv);
    if (const int rc = pmill::cli_report(spec, args); rc >= 0)
        return rc;

    const pmill::BenchDiffResult res = pmill::diff_bench_dirs(
        args.positionals[0], args.positionals[1], threshold, host_threshold);
    std::fputs(res.to_string(verbose).c_str(), stdout);
    if (res.ok()) {
        std::printf("PASS\n");
        return 0;
    }
    std::printf("FAIL\n");
    return 1;
}
