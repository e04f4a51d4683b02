// Shared plumbing for the bench binaries.
//
// Every binary runs a reduced-scale sweep by default so the whole bench
// suite finishes in minutes; set PBS_BENCH_FULL=1 to run the paper's scale
// (|A| = 10^6, 1000 instances, d up to 10^5; see pbs/sim/figures.h). Scale
// notes are printed into the output so recorded runs are self-describing.
//
// Machine-readable output: when PBS_BENCH_JSON=<path> is set, every
// Recorder row (and any direct JsonEmitter call) is appended to <path> as
// one JSON object per line, tagged with the bench name and scale mode.
// scripts/collect_bench.py merges such runs into BENCH_pbs.json, the
// repo's recorded perf trajectory (see docs/BENCHMARKS.md).

#ifndef PBS_BENCH_BENCH_COMMON_H_
#define PBS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pbs/common/cpu_features.h"
#include "pbs/gf/gf2m.h"
#include "pbs/sim/figures.h"
#include "pbs/sim/metrics.h"

namespace pbs::bench {

/// PBS_BENCH_FULL=1: run at the paper's scale (pbs::DefaultScale()).
inline bool FullMode() { return DefaultScale().full; }

/// Runs `op` repeatedly for ~`budget_seconds` of wall clock (after untimed
/// warm-up passes) split over several repetitions, and returns the best
/// (minimum) ns per operation -- the repetition least disturbed by
/// scheduling noise. Shared by the kernel microbenches (bench_hotpath,
/// bench_micro_gf, bench_micro_bch).
inline double TimeNs(const std::function<void()>& op, double budget_seconds) {
  using Clock = std::chrono::steady_clock;
  op();  // Warm-up: sizes every reused buffer, loads tables.
  op();
  constexpr int kRepetitions = 5;
  double best_ns = 1e18;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    int iters = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      for (int i = 0; i < 16; ++i) op();
      iters += 16;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < budget_seconds / kRepetitions);
    best_ns = std::min(best_ns, elapsed * 1e9 / iters);
  }
  return best_ns;
}

/// ns/op -> million ops per second, formatted for a table cell. Shared by
/// the kernel microbenches.
inline std::string FormatMops(double ns) {
  return FormatDouble(1e9 / ns / 1e6, 3);
}

/// Dispatch label for single-element ops routed through a GF2m field: the
/// log/antilog table path below kMaxTableBits, the runtime-dispatched
/// carry-less path ("clmul" or "portable") above it.
inline const char* FieldPathLabel(const GF2m& f) {
  return f.has_tables() ? "table" : cpu::CarrylessMulBackend();
}

// ---------------------------------------------------------------------------
// JSON-lines emission (PBS_BENCH_JSON=<path>).
// ---------------------------------------------------------------------------

/// Appends one JSON object per emitted record to the file named by the
/// PBS_BENCH_JSON environment variable; inert when the variable is unset.
/// Values that parse fully as numbers are emitted as JSON numbers, all
/// others as escaped strings.
class JsonEmitter {
 public:
  static JsonEmitter& Instance() {
    static JsonEmitter emitter;
    return emitter;
  }

  bool enabled() const { return file_ != nullptr; }

  /// Emits one record per row of `table`, keyed by its column names.
  void Emit(const Table& table) {
    for (const std::vector<Cell>& row : table.rows) {
      std::vector<std::pair<std::string, std::string>> fields;
      for (size_t c = 0; c < row.size(); ++c) {
        fields.emplace_back(table.columns[c], row[c].text);
      }
      Emit(table.bench, fields);
    }
  }

  /// Emits {"bench": <bench>, "mode": quick|full, "cpu": <features>,
  /// <key>: <value>, ...}. The "cpu" tag (cpu::FeatureString(), e.g.
  /// "clmul+avx2" or "portable") attributes every record to the hardware
  /// capability it ran under; scripts/collect_bench.py treats it as
  /// metadata, not identity, so runs remain comparable across machines.
  void Emit(const std::string& bench,
            const std::vector<std::pair<std::string, std::string>>& fields) {
    if (file_ == nullptr) return;
    std::string line = "{\"bench\":" + Quote(bench) + ",\"mode\":" +
                       Quote(FullMode() ? "full" : "quick") + ",\"cpu\":" +
                       Quote(cpu::FeatureString());
    for (const auto& [key, value] : fields) {
      line += "," + Quote(key) + ":" + ValueLiteral(value);
    }
    line += "}\n";
    std::fputs(line.c_str(), file_);
    std::fflush(file_);
  }

 private:
  JsonEmitter() {
    const char* path = std::getenv("PBS_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') file_ = std::fopen(path, "a");
  }
  ~JsonEmitter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  // True iff `s` matches the JSON number grammar exactly:
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strtod alone is too
  // permissive ("inf", "nan", hex, ".5", "5.", "+5" all parse but are
  // invalid JSON literals and would make collectors drop the record).
  static bool IsJsonNumber(const std::string& s) {
    size_t i = 0;
    const size_t n = s.size();
    const auto digits = [&] {
      const size_t start = i;
      while (i < n && s[i] >= '0' && s[i] <= '9') ++i;
      return i > start;
    };
    if (i < n && s[i] == '-') ++i;
    if (i < n && s[i] == '0') {
      ++i;  // A leading 0 must stand alone before '.'/'e'.
    } else {
      if (!digits()) return false;
    }
    if (i < n && s[i] == '.') {
      ++i;
      if (!digits()) return false;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < n && (s[i] == '+' || s[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == n && n > 0;
  }

  static std::string ValueLiteral(const std::string& value) {
    return IsJsonNumber(value) ? value : Quote(value);
  }

  std::FILE* file_ = nullptr;
};

/// Builds a Table row by row, streaming every row to the JSON emitter
/// under a stable bench name, so one PBS_BENCH_JSON run captures the whole
/// sweep.
class Recorder {
 public:
  Recorder(std::string bench, std::vector<std::string> columns)
      : table_{std::move(bench), "", std::move(columns), {}} {}

  void AddRow(const std::vector<std::string>& cells) {
    std::vector<std::pair<std::string, std::string>> fields;
    const size_t n = std::min(table_.columns.size(), cells.size());
    fields.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      fields.emplace_back(table_.columns[i], cells[i]);
    }
    JsonEmitter::Instance().Emit(table_.bench, fields);
    table_.AddRow(cells);
  }

  void Print() const { table_.Print(); }

 private:
  Table table_;
};

}  // namespace pbs::bench

#endif  // PBS_BENCH_BENCH_COMMON_H_
