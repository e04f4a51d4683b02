// The client side of a live run: non-blocking loopback TCP connections
// pumped by pbs::EventLoop, each driving one SessionEngine (an initiator
// per reconciliation, an updater per UPDATE). The readers share the
// calling thread's pump; the writer, when the workload has one, runs its
// own pump on a second thread.
//
// Readers run closed-loop: a connection starts its next reconciliation
// when the previous one settles. A reconciliation whose decode misses
// (the session settles without the difference) is retried under a fresh
// seed, as a client wanting the exact difference would; only one that
// errors, misses every attempt, or recovers a wrong difference fails.
// The writer, when the workload has one, runs open-loop: update k is due
// at start + k / rate, and its latency counts from that due time.

#ifndef PBS_BENCH_E2E_PUMP_H_
#define PBS_BENCH_E2E_PUMP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace pbs::e2e {

/// One reconciliation, over all its attempts.
struct OpRecord {
  uint64_t index = 0;
  double latency_ms = 0.0;  ///< First connect to final settle.
  size_t wire_bytes = 0;    ///< Framed bytes, both directions, all attempts.
  int frames = 0;
  int attempts = 0;
  int misses = 0;           ///< Attempts that settled without the answer.
  int rounds = 0;           ///< Scheme rounds of the final attempt.
  bool ok = false;          ///< Recovered an admissible difference.
  bool wrong = false;       ///< Claimed success with another difference.
  std::string error;        ///< Why not, when !ok.
};

struct UpdateRecord {
  double latency_ms = 0.0;  ///< Due time to settle.
  double late_ms = 0.0;     ///< Due time to connect: generator lateness.
  bool ok = false;
};


struct WindowResult {
  std::vector<OpRecord> ops;  ///< In completion order.
  std::vector<UpdateRecord> updates;
  double wall_s = 0.0;        ///< Window start to the last settle.
  double cpu_s = 0.0;         ///< Process CPU time (client and server).
  std::string fatal;          ///< Non-empty when the pump had to give up.
};

/// Runs one window against `inst`'s server: starts work for `seconds`,
/// and past them until at least `min_ops` reconciliations have started,
/// then lets the work in flight finish. Spans go to `tracer` when it is
/// enabled.
WindowResult RunWindow(Instance& inst, double seconds, uint64_t min_ops,
                       Tracer* tracer);

}  // namespace pbs::e2e

#endif  // PBS_BENCH_E2E_PUMP_H_
