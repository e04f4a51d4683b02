// Span recording and order statistics for pbs_e2e.
//
// Spans are recorded only around calls the benchmark itself makes into
// the library (a connect, an engine construction, one Feed, the wait for
// a reply): nothing inside the library is instrumented. Spans stay in
// memory and are written out once, after the measured window, as one JSON
// object per line with the keys trace_id, span_id, parent, name, start_ns
// and end_ns. Spans of one session share a trace id; probe spans use
// trace id 0.

#ifndef PBS_BENCH_E2E_TRACE_H_
#define PBS_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pbs::e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Span {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent = 0;  ///< 0 = root.
  const char* name = "";  ///< Static string; see the name tables in pump.cc.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store, shared by the reader and writer pump threads.
/// Disabled tracers accept and drop every span, so call sites need no
/// branches of their own. Enable or disable only while no pump runs.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// A fresh span id, for parents whose children end before they do.
  uint32_t NewId() { return ++last_id_; }

  /// A fresh trace id (one per session; 0 is the probe pass).
  uint64_t NewTraceId() { return ++last_trace_; }

  void Record(uint64_t trace_id, uint32_t span_id, uint32_t parent,
              const char* name, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({trace_id, span_id, parent, name, ToNs(start),
                      ToNs(end)});
  }

  /// Per span name: the median over trace ids of that name's summed self
  /// time within the trace (its duration minus its children's), in ms.
  std::map<std::string, double> MedianSelfMs() const;

  /// The same for the summed self time of every span whose name starts
  /// with `prefix`; traces without such a span are skipped.
  double MedianSelfMsOfPrefix(const std::string& prefix) const;

  /// Writes every span to `path` as JSON lines, replacing its contents.
  bool WriteJsonl(const std::string& path, std::string* error) const;

 private:
  bool enabled_ = false;
  std::atomic<uint32_t> last_id_{0};
  std::atomic<uint64_t> last_trace_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_ while pumps run.
};

/// Nearest-rank quantile (q in (0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace pbs::e2e

#endif  // PBS_BENCH_E2E_TRACE_H_
