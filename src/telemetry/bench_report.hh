/**
 * @file
 * BenchReport: the single definition of benchmark output. Each bench
 * binary fills rows once; emit() prints the aligned human table
 * (common/table_printer), the paper-reference note, and writes the
 * machine-readable artifact (<name>.json, JSON Lines: one `meta`
 * record, then one `row` record per result row) so every run leaves a
 * comparable perf trajectory that pmill_bench_diff can gate.
 *
 * Artifacts land in $PMILL_BENCH_DIR (default: the working
 * directory); set PMILL_BENCH_DIR=none to suppress them.
 */

#ifndef PMILL_TELEMETRY_BENCH_REPORT_HH
#define PMILL_TELEMETRY_BENCH_REPORT_HH

#include <string>
#include <vector>

namespace pmill {

class BenchReport {
  public:
    /**
     * @param name Artifact basename (e.g.\ "fig01_knee").
     * @param title Table title line.
     */
    BenchReport(std::string name, std::string title);

    /** Set the column header. */
    void header(std::vector<std::string> cells);

    /** Append one result row. */
    void row(std::vector<std::string> cells);

    /** Set the paper-reference footnote printed after the table. */
    void note(std::string text);

    /** Print the table + note and write the JSON artifact. */
    void emit() const;

    std::size_t num_rows() const { return rows_.size(); }

  private:
    void write_artifacts() const;

    std::string name_;
    std::string title_;
    std::string note_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pmill

#endif // PMILL_TELEMETRY_BENCH_REPORT_HH
