/**
 * @file
 * The traced run's copy of the core pipeline. tracedPrepare and
 * tracedExecute make the same layer calls as prepareKernel and
 * executeOnFabric (src/core/system.cc), in the same order, for the
 * configurations the benchmark uses (one tile, mapped, analyzed, no
 * time-multiplexing), with a span around each layer's entry point.
 * The caller checks that they reproduce the untraced run exactly:
 * identical SimStats (sim::statsEqual) and memory image.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <string>

#include "core/system.hh"
#include "spans.hh"

namespace perfbench {

/** prepareKernel under spans. nullptr with @p error set on failure. */
pipestitch::PreparedPtr
tracedPrepare(const pipestitch::workloads::KernelInstance &kernel,
              const pipestitch::RunConfig &config, Tracer &tracer,
              int64_t request, std::string &error);

/** executeOnFabric under spans; @p error set on failure. */
pipestitch::FabricRun
tracedExecute(const pipestitch::PreparedKernel &prepared,
              const pipestitch::workloads::KernelInstance &kernel,
              const pipestitch::RunConfig &config, Tracer &tracer,
              int64_t request, std::string &error);

/** Ran cleanly: no error, no deadlock, certified bound present and
 *  holding. */
bool runOk(const pipestitch::FabricRun &run, const std::string &error);

/** Total fires over every node (the simulator's unit of work). */
int64_t totalFires(const pipestitch::sim::SimStats &stats);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
