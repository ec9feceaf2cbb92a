/**
 * @file
 * Argument-parsing helpers shared by element configure() methods.
 */

#ifndef PMILL_ELEMENTS_ARGS_HH
#define PMILL_ELEMENTS_ARGS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.hh"
#include "src/net/headers.hh"
#include "src/table/lpm.hh"

namespace pmill {

/** parse_u64 that also fails above UINT32_MAX, leaving @p out alone. */
bool parse_u32(const std::string &s, std::uint32_t *out);

/** Parse a non-negative decimal number; false on garbage. */
bool parse_nonneg_f64(const std::string &s, double *out);

/** Parse dotted-quad IPv4. */
bool parse_ipv4(const std::string &s, Ipv4Addr *out);

/** Parse colon-separated MAC. */
bool parse_mac(const std::string &s, MacAddr *out);

/** Parse "a.b.c.d/len port" into a Route. */
bool parse_route(const std::string &s, Route *out);

} // namespace pmill

#endif // PMILL_ELEMENTS_ARGS_HH
