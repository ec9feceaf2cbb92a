/**
 * @file
 * Machine-readable exporters for the sampled Timeline: JSON Lines
 * (through common/json's record writer) and CSV, plus the CSV row
 * writer the bench artifact writer shares.
 */

#ifndef PMILL_TELEMETRY_EXPORT_HH
#define PMILL_TELEMETRY_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "src/telemetry/sampler.hh"

namespace pmill {

/** Write one CSV record (RFC-4180 quoting) terminated by '\n'. */
void write_csv_record(std::ostream &os,
                      const std::vector<std::string> &cells);

/**
 * Write the timeline as JSON Lines: one
 * `{"type":"sample","t_us":...,"dt_us":...,<column>:<value>,...}`
 * object per sampled interval.
 */
void export_jsonl(const Timeline &tl, std::ostream &os);

/** Write the timeline as CSV (`t_us,dt_us,<columns...>` header). */
void export_csv(const Timeline &tl, std::ostream &os);

} // namespace pmill

#endif // PMILL_TELEMETRY_EXPORT_HH
