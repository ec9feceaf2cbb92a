/**
 * @file
 * Machine-readable exporter for the sampled Timeline: JSON Lines
 * through common/json's record writer.
 */

#ifndef PMILL_TELEMETRY_EXPORT_HH
#define PMILL_TELEMETRY_EXPORT_HH

#include <ostream>

#include "src/telemetry/sampler.hh"

namespace pmill {

/**
 * Write the timeline as JSON Lines: one
 * `{"type":"sample","t_us":...,"dt_us":...,<column>:<value>,...}`
 * object per sampled interval.
 */
void export_jsonl(const Timeline &tl, std::ostream &os);

} // namespace pmill

#endif // PMILL_TELEMETRY_EXPORT_HH
