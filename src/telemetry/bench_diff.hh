/**
 * @file
 * Bench-artifact regression diffing.
 *
 * BenchReport leaves one `<name>.json` JSON-Lines artifact per bench
 * in $PMILL_BENCH_DIR. This module loads two such directories (a
 * checked-in golden baseline and a fresh run), matches tables by file
 * name and rows by index, classifies columns by name into
 * higher-is-better / lower-is-better / informational, and reports
 * every tracked metric that moved beyond a percent threshold — the
 * library behind the `pmill_bench_diff` CI gate.
 *
 * The simulation is deterministic, so golden artifacts are exactly
 * reproducible on the same build; the threshold absorbs legitimate
 * model retuning and compiler floating-point variation.
 */

#ifndef PMILL_TELEMETRY_BENCH_DIFF_HH
#define PMILL_TELEMETRY_BENCH_DIFF_HH

#include <map>
#include <string>
#include <vector>

namespace pmill {

/** Regression direction of a bench column, derived from its name. */
enum class ColumnClass {
    kHigherBetter,    ///< throughput-like: a drop is a regression
    kLowerBetter,     ///< latency/miss-like: a rise is a regression
    kInformational,   ///< axes, labels, ratios — never gated
    kExact,           ///< "eq"-prefixed: ANY numeric change regresses
                      ///< (simulated-equivalence columns in host_perf)
    kHostWall,        ///< "wall"/"host" wall-clock measurements: noisy
                      ///< on shared runners, informational unless a
                      ///< host threshold is explicitly given
};

/** Classify @p column by name tokens ("Thr(Gbps)" -> higher-better). */
ColumnClass classify_column(const std::string &column);

/** One bench artifact: the meta line + its row objects. */
struct BenchTable {
    std::string bench;    ///< artifact basename
    std::string title;
    std::vector<std::string> columns;
    /// Row cells keyed by column name, raw strings.
    std::vector<std::map<std::string, std::string>> rows;
};

/** Load a BenchReport `<name>.json` artifact. */
bool load_bench_table(const std::string &path, BenchTable *out,
                      std::string *err);

/** Sorted basenames (without ".json") of the artifacts in @p dir. */
std::vector<std::string> list_bench_artifacts(const std::string &dir);

/** Result of diffing two artifact directories. */
struct BenchDiffResult {
    /** One compared (bench, row, column) numeric cell. */
    struct Delta {
        std::string bench;
        std::string column;
        std::size_t row = 0;
        double base = 0;
        double cur = 0;
        double pct = 0;  ///< signed percent change vs. base
        ColumnClass cls = ColumnClass::kInformational;
        bool regression = false;  ///< moved the bad way past threshold
    };

    double threshold_pct = 5.0;
    /// Threshold for kHostWall columns; negative = informational only.
    double host_threshold_pct = -1.0;
    std::vector<Delta> deltas;          ///< every gated comparison
    std::vector<std::string> missing;   ///< in base dir, not in current
    std::vector<std::string> errors;    ///< unreadable/mismatched tables
    std::size_t num_regressions = 0;

    /** Gate verdict: no regressions, no missing benches, no errors. */
    bool ok() const
    {
        return num_regressions == 0 && missing.empty() && errors.empty();
    }

    /** Human summary (regressions first, then the largest moves). */
    std::string to_string(bool verbose = false) const;
};

/**
 * Compare every artifact of @p base_dir against @p cur_dir. A tracked
 * metric regressing by more than @p threshold_pct percent, an exact
 * ("eq") column changing at all, a bench missing from @p cur_dir, or
 * a malformed artifact makes ok() false.
 *
 * Wall-clock ("wall"/"host") columns are compared but informational
 * by default — bench runners are noisy hosts. Pass a non-negative
 * @p host_threshold_pct to gate them (lower-is-better direction for
 * time-like names, higher-is-better for rate-like names).
 */
BenchDiffResult diff_bench_dirs(const std::string &base_dir,
                                const std::string &cur_dir,
                                double threshold_pct,
                                double host_threshold_pct = -1.0);

} // namespace pmill

#endif // PMILL_TELEMETRY_BENCH_DIFF_HH
