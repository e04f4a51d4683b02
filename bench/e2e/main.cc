// pbs_e2e: the repository's end-to-end reconciliation benchmark.
//
//   pbs_e2e --workload <name> --seed <n> --seconds <s> [--trace <file>]
//
// One process: a ReconcileServer serves the workload's set on loopback
// TCP from its own threads, and this thread pumps up to four client
// connections (pump.h). The inputs are generated once; set-up (server and
// store creation) runs several times and reports its median; a warm-up
// runs untimed; then one window of --seconds is measured, held open until
// the workload's seed-fixed prefix of reconciliations has started. Every
// recovered difference is checked against the generated ground truth.
//
// With --trace, the window is split: an untraced half, then a traced half
// whose spans give the per-layer times (and, against the untraced half,
// the tracing overhead), then the probe pass (probes.h). The spans are
// written to <file>.
//
// Output: every metric as "name value unit", then one JSON record as the
// last line. The exit code is non-zero on any wrong answer or error.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "pbs/common/cpu_features.h"
#include "probes.h"
#include "pump.h"
#include "trace.h"
#include "workloads.h"

namespace pbs::e2e {
namespace {

// Set-up repeats at least kMinSetups times, and while it has used less
// than kSetupBudgetSeconds, up to kMaxSetups: one set-up of churn_100k
// takes 30 ms, one of storm_small 30 us.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 5000;
constexpr double kSetupBudgetSeconds = 0.5;

// Every flag but --trace is required: run length especially has no
// default, so two runs meant to be compared cannot differ in it silently.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_path;  // Empty: untraced.
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
      have_seconds = true;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : list_) {
      if (m.name == name) {
        m = {name, value, unit};
        return;
      }
    }
    list_.push_back({name, value, unit});
  }
  double Get(const std::string& name) const {
    for (const Metric& m : list_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

// Peak resident memory of serving (warm-up and the measured window), not
// of input generation: the allocator hands back what set-up freed, and
// the kernel's high-water mark restarts from what is still live. Warm-up
// then grows the heap back, so the window itself runs warm. Where
// /proc/self/clear_refs is not writable the mark stays the process peak.
void ResetPeakRss() {
  ::malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Counts over every window of the run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void Add(const WindowResult& w) {
    attempted += w.ops.size() + w.updates.size();
    for (const OpRecord& op : w.ops) {
      if (!op.ok) {
        failed += 1;
        if (op.wrong) wrong += 1;
        std::fprintf(stderr, "pbs_e2e: reconciliation %" PRIu64 " failed: %s\n",
                     op.index, op.error.c_str());
      }
    }
    for (const UpdateRecord& u : w.updates) {
      if (!u.ok) failed += 1;
    }
    if (!w.fatal.empty()) {
      failed += 1;
      std::fprintf(stderr, "pbs_e2e: %s\n", w.fatal.c_str());
    }
  }
};

// The end-to-end metrics of one window.
void AddEndToEnd(const WorkloadSpec& spec, const WindowResult& w,
                 Metrics* m) {
  std::vector<double> latencies;
  double rounds = 0.0;
  uint64_t failed = 0;
  // Byte, frame and miss counts cover only the first spec.wire_ops
  // reconciliations, whose inputs and seeds the workload seed fixes.
  double wire = 0.0, frames = 0.0, fixed_ops = 0.0;
  uint64_t attempts = 0, misses = 0;
  for (const OpRecord& op : w.ops) {
    if (op.index < spec.wire_ops) {
      wire += static_cast<double>(op.wire_bytes);
      frames += op.frames;
      fixed_ops += 1.0;
      attempts += static_cast<uint64_t>(op.attempts);
      misses += static_cast<uint64_t>(op.misses);
    }
    if (!op.ok) {
      failed += 1;
      continue;
    }
    latencies.push_back(op.latency_ms);
    rounds += op.rounds;
  }
  const double ok_ops = static_cast<double>(latencies.size());
  const double ops = static_cast<double>(std::max<size_t>(1, w.ops.size()));
  m->Set("session_p50_ms", Median(latencies), "ms");
  m->Set("session_tail_ms", Quantile(latencies, spec.tail_quantile), "ms");
  m->Set("sessions_per_s", w.wall_s > 0.0 ? ok_ops / w.wall_s : 0.0, "1/s");
  m->Set("wire_B_per_session", fixed_ops > 0.0 ? wire / fixed_ops : 0.0, "B");
  m->Set("frames_per_session", fixed_ops > 0.0 ? frames / fixed_ops : 0.0,
         "count");
  m->Set("cpu_ms_per_session", w.cpu_s * 1e3 / ops, "ms");
  m->Set("sessions", ok_ops, "count");
  m->Set("session_p90_ms", Quantile(latencies, 0.90), "ms");
  m->Set("session_p99_ms", Quantile(latencies, 0.99), "ms");
  m->Set("prefix_ops", fixed_ops, "count");
  m->Set("fail_rate", static_cast<double>(failed) / ops, "ratio");
  m->Set("decode_miss_rate",
         attempts > 0 ? static_cast<double>(misses) / attempts : 0.0, "ratio");
  m->Set("rounds_mean", ok_ops > 0.0 ? rounds / ok_ops : 0.0, "count");
  if (!w.updates.empty()) {
    std::vector<double> latency, late;
    for (const UpdateRecord& u : w.updates) {
      latency.push_back(u.latency_ms);
      late.push_back(u.late_ms);
    }
    m->Set("update_p50_ms", Median(latency), "ms");
    m->Set("update_p99_ms", Quantile(latency, 0.99), "ms");
    m->Set("gen.writer_late_p99_ms", Quantile(late, 0.99), "ms");
    m->Set("updates", static_cast<double>(w.updates.size()), "count");
  }
}

// Per-layer metrics of the traced window: the client's own spans.
void AddSpanMetrics(const Tracer& tracer, Metrics* m) {
  const std::map<std::string, double> spans = tracer.MedianSelfMs();
  for (const auto& [name, ms] : spans) m->Set(name + "_ms", ms, "ms");
  m->Set("client.feed_ms", tracer.MedianSelfMsOfPrefix("client.on_"), "ms");
  m->Set("wait.server_ms", tracer.MedianSelfMsOfPrefix("wait."), "ms");
}

void AddServerStats(const ServerStats& stats, Metrics* m) {
  const double sessions =
      static_cast<double>(std::max<uint64_t>(1, stats.completed));
  m->Set("net.accepted", static_cast<double>(stats.accepted), "count");
  m->Set("net.completed", static_cast<double>(stats.completed), "count");
  m->Set("net.failed", static_cast<double>(stats.failed), "count");
  m->Set("net.timed_out", static_cast<double>(stats.timed_out), "count");
  m->Set("net.rejected_capacity",
         static_cast<double>(stats.rejected_capacity), "count");
  m->Set("net.bytes_in_per_session",
         static_cast<double>(stats.bytes_in) / sessions, "B");
  m->Set("net.bytes_out_per_session",
         static_cast<double>(stats.bytes_out) / sessions, "B");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "pbs_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  rlimit files{};
  ::getrlimit(RLIMIT_NOFILE, &files);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const bool tracing = !args.trace_path.empty();
  std::printf("# pbs_e2e workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec->name, args.seed, args.seconds, tracing ? 1 : 0);
  std::printf("# cpu=%s nproc=%ld rlimit_nofile=%llu build=NDEBUG\n",
              cpu::FeatureString(), nproc,
              static_cast<unsigned long long>(files.rlim_cur));
  std::printf("# link: loopback TCP, not a real link\n");

  // Set-up: create the server and configure its store. Generating the
  // inputs is the benchmark's own work, memory-latency bound and noisy,
  // so it runs once, untimed.
  std::unique_ptr<Instance> inst = spec->generate(args.seed);
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  do {
    inst->Unserve();
    std::vector<uint64_t> elements = *inst->served;
    std::string error;
    const Clock::time_point start = Clock::now();
    const bool served = inst->Serve(std::move(elements), &error);
    const Clock::time_point end = Clock::now();
    if (!served) {
      std::fprintf(stderr, "pbs_e2e: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(MsBetween(start, end) / 1e3);
  } while (static_cast<int>(setup_s.size()) < kMinSetups ||
           (MsBetween(setup_start, Clock::now()) < kSetupBudgetSeconds * 1e3 &&
            static_cast<int>(setup_s.size()) < kMaxSetups));
  inst->Start();

  Tracer tracer;
  Tally tally;
  Metrics metrics;
  ResetPeakRss();
  if (spec->warmup_seconds > 0.0) {
    tally.Add(RunWindow(*inst, spec->warmup_seconds, 0, &tracer));
  }
  ProbeReport probes;
  double peak_rss_mb = 0.0;
  bool prefix_complete = true;
  if (!tracing) {
    const WindowResult window =
        RunWindow(*inst, args.seconds, spec->wire_ops, &tracer);
    peak_rss_mb = PeakRssMb();
    tally.Add(window);
    AddEndToEnd(*spec, window, &metrics);
    // The byte, frame and miss counts are exact only over the whole prefix.
    prefix_complete = metrics.Get("prefix_ops") ==
                      static_cast<double>(spec->wire_ops);
    if (!prefix_complete) {
      std::fprintf(stderr, "pbs_e2e: only %g of the first %" PRIu64
                   " reconciliations settled\n", metrics.Get("prefix_ops"),
                   spec->wire_ops);
    }
  } else {
    // The halves compare latency only; the counts come from untraced runs.
    const WindowResult plain =
        RunWindow(*inst, args.seconds / 2.0, 0, &tracer);
    tracer.set_enabled(true);
    const WindowResult traced =
        RunWindow(*inst, args.seconds / 2.0, 0, &tracer);
    peak_rss_mb = PeakRssMb();
    tally.Add(plain);
    tally.Add(traced);
    AddEndToEnd(*spec, plain, &metrics);
    AddSpanMetrics(tracer, &metrics);
    Metrics traced_e2e;
    AddEndToEnd(*spec, traced, &traced_e2e);
    const double plain_p50 = metrics.Get("session_p50_ms");
    const double traced_p50 = traced_e2e.Get("session_p50_ms");
    metrics.Set("trace.overhead_pct",
                plain_p50 > 0.0 ? (traced_p50 / plain_p50 - 1.0) * 100.0 : 0.0,
                "%");
    metrics.Set("core.rounds_mean", traced_e2e.Get("rounds_mean"), "count");
    metrics.Set("core.decode_miss_rate", traced_e2e.Get("decode_miss_rate"),
                "ratio");
    probes = RunProbes(inst->probe, &tracer);
    for (const auto& [name, value] : probes.metrics) {
      const bool count = name == "sync.differing_shards";
      const bool micros = name.size() > 3 &&
                          name.compare(name.size() - 3, 3, "_us") == 0;
      metrics.Set(name, value, count ? "count" : (micros ? "us" : "ms"));
    }
  }
  metrics.Set("setup_s", Median(setup_s), "s");
  metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  metrics.Set("setup_runs", static_cast<double>(setup_s.size()), "count");

  const ServerStats stats = inst->server->stats();
  AddServerStats(stats, &metrics);
  inst.reset();  // Stops and joins the server.

  uint64_t failed = tally.failed + stats.failed + stats.timed_out +
                    stats.rejected_capacity + (prefix_complete ? 0 : 1);
  bool correct = tally.wrong == 0 && probes.wrong == 0;
  if (!probes.error.empty()) {
    std::fprintf(stderr, "pbs_e2e: probe: %s\n", probes.error.c_str());
    failed += 1;
  }
  if (probes.wrong > 0) {
    std::fprintf(stderr, "pbs_e2e: %d scheme probes recovered a wrong "
                 "difference\n", probes.wrong);
  }
  if (tracing) {
    std::string error;
    if (!tracer.WriteJsonl(args.trace_path, &error)) {
      std::fprintf(stderr, "pbs_e2e: %s\n", error.c_str());
      failed += 1;
    }
  }

  for (const Metric& m : metrics.list()) {
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string record = "{\"workload\":" + JsonString(spec->name) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"seconds\":" + JsonNumber(args.seconds) +
                       ",\"trace\":" + (tracing ? "1" : "0") +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(tally.attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"env\":{\"cpu\":" +
                       JsonString(cpu::FeatureString()) +
                       ",\"nproc\":" + std::to_string(nproc) +
                       ",\"rlimit_nofile\":" +
                       std::to_string(files.rlim_cur) +
                       ",\"link\":\"loopback TCP\"},\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics.list()) {
    record += (first ? "" : ",") + JsonString(m.name) +
              ":{\"value\":" + JsonNumber(m.value) +
              ",\"unit\":" + JsonString(m.unit) + "}";
    first = false;
  }
  record += "}}";
  std::printf("%s\n", record.c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pbs::e2e

int main(int argc, char** argv) {
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "pbs_e2e: built without NDEBUG; timings of an assert-enabled "
               "build are not comparable. Build with CMAKE_BUILD_TYPE=Release "
               "(bench/e2e/run.py does).\n");
  return 2;
#else
  // A peer that closes early must fail its session, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  pbs::e2e::Args args;
  if (!pbs::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pbs_e2e --workload <name> --seed <n> "
                 "--seconds <s> [--trace <file.jsonl>]\n");
    return 2;
  }
  return pbs::e2e::Run(args);
#endif
}
