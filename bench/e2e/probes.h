// The probe pass: after the live run, time single public calls of each
// layer on the workload's own inputs. Every probe runs on every workload,
// so each per-layer metric exists everywhere; README.md maps each to the
// end-to-end metrics it should move.

#ifndef PBS_BENCH_E2E_PROBES_H_
#define PBS_BENCH_E2E_PROBES_H_

#include <map>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace pbs::e2e {

struct ProbeReport {
  std::map<std::string, double> metrics;  ///< Per-layer name -> value.
  int wrong = 0;  ///< Scheme probes that recovered a wrong difference.
  std::string error;  ///< Non-empty when a probe could not run.
};

/// Runs every probe on `in`, recording each timed call as a span of
/// trace 0.
ProbeReport RunProbes(const ProbeInputs& in, Tracer* tracer);

}  // namespace pbs::e2e

#endif  // PBS_BENCH_E2E_PROBES_H_
