/**
 * @file
 * Unit helpers: data rates, sizes, frequencies, and human-readable
 * formatting used by the benchmark harness output.
 */

#ifndef PMILL_COMMON_UNITS_HH
#define PMILL_COMMON_UNITS_HH

#include <cstdint>
#include <string>

namespace pmill {

inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * 1024;

/** Convert Gbps to bits per second. */
constexpr double
gbps(double g)
{
    return g * kGiga;
}

/** Format a bit rate as "NN.N Gbps". */
std::string format_gbps(double bits_per_sec);

/** Format a packet rate as "NN.NN Mpps". */
std::string format_mpps(double pkts_per_sec);

/** Format a byte size as "N B", "N KiB", or "N MiB". */
std::string format_bytes(std::uint64_t bytes);

} // namespace pmill

#endif // PMILL_COMMON_UNITS_HH
