// True transfer sizes: abstract payload accounting vs framed wire bytes.
//
// The schemes' data_bytes reproduce the paper's accounting (tightly packed
// payloads, estimator excluded). A deployment pays more: the ToW estimate
// exchange, the handshake, and a 20-byte header + CRC per frame. This
// bench runs every registered scheme through a real loopback session
// (core/wire_session.h) and reports both numbers side by side, plus the
// frame count — the overhead a capacity planner actually provisions for.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/core/wire_session.h"
#include "pbs/sim/metrics.h"
#include "pbs/sim/workload.h"

using namespace pbs;

int main() {
  const size_t set_size = bench::FullMode() ? 100000 : 20000;
  const int instances = bench::FullMode() ? 20 : 5;
  std::printf("== Wire overhead: payload vs framed bytes ==\n");
  std::printf("mode=%s |A|=%zu instances=%d\n\n",
              bench::FullMode() ? "FULL" : "quick", set_size, instances);

  bench::Recorder table("wire_overhead", {"d", "scheme", "payload_B", "estimator_B", "wire_B",
                     "frames", "overhead", "success"});
  for (size_t d : {size_t{10}, size_t{100}, size_t{1000}}) {
    for (const std::string& name : SchemeRegistry::Instance().Names()) {
      double payload = 0, estimator = 0, wire = 0, frames = 0, success = 0;
      for (int i = 0; i < instances; ++i) {
        const SetPair pair = GenerateSetPair(
            set_size, d, 32, 0x31BE + d * 131 + static_cast<uint64_t>(i));
        SessionConfig config;
        config.scheme_name = name;
        config.options.pbs.max_rounds = 8;
        config.seed = 0xBE7 + i;
        config.estimate_seed = 0xE57 + i;
        const SessionResult r = RunLoopbackSession(config, pair.a, pair.b);
        if (!r.ok) continue;
        payload += static_cast<double>(r.outcome.data_bytes);
        estimator += static_cast<double>(r.outcome.estimator_bytes);
        wire += static_cast<double>(r.outcome.wire_bytes);
        frames += r.outcome.wire_frames;
        success += r.outcome.success ? 1 : 0;
      }
      const double n = instances;
      table.AddRow({std::to_string(d), name, FormatDouble(payload / n, 0),
                    FormatDouble(estimator / n, 0), FormatDouble(wire / n, 0),
                    FormatDouble(frames / n, 1),
                    FormatDouble(wire / (payload + estimator), 3),
                    FormatDouble(success / n, 2)});
    }
  }
  table.Print();
  std::printf("\noverhead = framed wire bytes / (payload + estimator) -- the\n"
              "multiplier between the paper's accounting and a real socket.\n");
  return 0;
}
