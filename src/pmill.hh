/**
 * @file
 * Umbrella header: the public API of the PacketMill reproduction
 * library. Include this to get the testbed engine, the element
 * framework, the drivers (standard + X-Change), the optimization
 * mill, and the traffic generators.
 */

#ifndef PMILL_PMILL_HH
#define PMILL_PMILL_HH

#include "src/accounting/acct_report.hh"
#include "src/accounting/cycle_account.hh"
#include "src/common/histogram.hh"
#include "src/common/json.hh"
#include "src/common/log.hh"
#include "src/common/random.hh"
#include "src/common/table_printer.hh"
#include "src/common/units.hh"
#include "src/control/actuator.hh"
#include "src/control/controller.hh"
#include "src/control/policy.hh"
#include "src/driver/mbuf.hh"
#include "src/driver/mempool.hh"
#include "src/driver/pmd.hh"
#include "src/driver/xchg.hh"
#include "src/elements/elements.hh"
#include "src/framework/config_parser.hh"
#include "src/framework/datapath.hh"
#include "src/framework/element.hh"
#include "src/framework/exec_context.hh"
#include "src/framework/metadata.hh"
#include "src/framework/packet.hh"
#include "src/framework/pipeline.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/mill/packet_mill.hh"
#include "src/mill/profile.hh"
#include "src/mill/source_gen.hh"
#include "src/mill/verify.hh"
#include "src/net/checksum.hh"
#include "src/net/flow.hh"
#include "src/net/headers.hh"
#include "src/net/packet_builder.hh"
#include "src/net/steering.hh"
#include "src/nic/nic_device.hh"
#include "src/runtime/cost_model.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/table/cuckoo_hash.hh"
#include "src/table/lpm.hh"
#include "src/table/timer_wheel.hh"
#include "src/telemetry/bench_report.hh"
#include "src/telemetry/export.hh"
#include "src/telemetry/metrics.hh"
#include "src/telemetry/sampler.hh"
#include "src/trace/trace.hh"
#include "src/tracing/lifecycle.hh"
#include "src/tracing/trace_export.hh"
#include "src/tracing/tracer.hh"
#include "src/workload/samplers.hh"
#include "src/workload/workload.hh"

#endif // PMILL_PMILL_HH
