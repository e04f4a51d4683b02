// pbs_cli: command-line set reconciliation over signature files.
//
// A signature file is plain text, one hex signature per line (nonzero,
// up to 63 bits). Subcommands:
//
//   pbs_cli gen <file> <count> [--seed N]
//       Generate a file of distinct random 32-bit signatures.
//   pbs_cli mutate <in> <out> --drop N --add N [--seed N]
//       Derive a diverged copy (drop N random lines, add N fresh ones).
//   pbs_cli estimate <fileA> <fileB>
//       ToW estimate of |A triangle B| (ell = 128).
//   pbs_cli diff <fileA> <fileB> [--scheme S] [--rounds N] [--p0 X]
//           [--delta N]
//       Reconcile with scheme S (default pbs; see --list-schemes); print
//       the symmetric difference and stats.
//   pbs_cli plan <d> [--p0 X] [--rounds N] [--delta N]
//       Show the (g, n, t) parameterization the Section-5.1 optimizer
//       picks for an expected difference of d.
//   pbs_cli serve <file> [--port N] [--once] [--max-sessions N] [--stats]
//           [--shards N] [--mutable] [--layout-d D]
//           [--shards-keyspace S] [--phase-deadline MS]
//       Hold a key set and serve framed reconciliation sessions over TCP
//       from N event-loop shards (any scheme; the client picks; many
//       clients concurrently). --once exits after one session;
//       --max-sessions caps concurrent sessions (default 64); --stats
//       prints the server's counters on exit; --shards sets the
//       event-loop thread count (default 1, 0 = all hardware threads).
//       --mutable serves the set from a live MutableElementStore: each
//       session pins one consistent snapshot epoch, `pbs_cli update`
//       sessions mutate the set in place, and the store maintains the PBS
//       sketches incrementally (sized for an expected difference of
//       --layout-d, default 100) so matching sessions skip the per-session
//       sketch rebuild. --shards-keyspace caps the keyspace-shard count a
//       sharded client may negotiate (proposals above S are clamped; 0 =
//       accept any), and with --mutable also pre-maintains the S
//       per-shard digests incrementally so sharded sessions skip the
//       O(|set|) leaf stream.
//   pbs_cli update --host H --port N [--insert <file>] [--delete <file>]
//           [--batch N]
//       Send insert/delete batches (signature files) to a --mutable serve
//       instance over one UPDATE session; --batch splits the changes into
//       chunks of N per direction (default: one batch).
//   pbs_cli connect <file> --host H --port N [--scheme S] [--rounds N]
//           [--p0 X] [--delta N] [--seed N] [--exact-d D] [--quiet]
//           [--shards-keyspace S] [--retries N] [--retry-base-ms MS]
//           [--deadline MS] [--fault SPEC]
//       Reconcile the local file against a remote serve instance and
//       print the symmetric difference (relative to the local set).
//       --shards-keyspace S runs the session sharded: the keyspace is
//       split into S hash-range shards, a Merkle pre-filter drops the
//       identical ones, and the rest reconcile as pipelined sub-sessions
//       over the same connection (docs/WIRE_FORMAT.md section 2.5).
//       --retries N reconnects with capped decorrelated-jitter backoff on
//       transport failure; an interrupted sharded session resumes via a
//       RESUME frame and finishes only the unsettled shards (section
//       2.6). --deadline MS fails a phase that makes no progress for that
//       long. --fault SPEC (or the PBS_FAULT_SPEC env var) wraps each
//       connection in the fault injector, e.g. "loss=0.01,seed=42"
//       (common/fault_injector.h lists the keys).
//   pbs_cli list-schemes   (also: pbs_cli --list-schemes)
//       List every scheme registered with the SchemeRegistry.
//
// A flag a subcommand does not define is an error (exit 2), so a typo
// never silently falls back to a default.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "pbs/common/cpu_features.h"
#include "pbs/common/fault_injector.h"
#include "pbs/common/rng.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/core/transport.h"
#include "pbs/core/wire_session.h"
#include "pbs/estimator/tow.h"
#include "pbs/markov/optimizer.h"
#include "pbs/net/reconcile_server.h"

namespace {

int Usage();  // Prints every subcommand's synopsis; returns 2.

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t def) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return def;
}

double FlagDouble(int argc, char** argv, const char* flag, double def) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  }
  return def;
}

const char* FlagStr(int argc, char** argv, const char* flag,
                    const char* def) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return def;
}

bool LoadSignatures(const char* path, std::vector<uint64_t>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::string line;
  std::unordered_set<uint64_t> seen;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const uint64_t v = std::strtoull(line.c_str(), nullptr, 16);
    if (v == 0) {
      std::fprintf(stderr, "warning: skipping zero/invalid line '%s'\n",
                   line.c_str());
      continue;
    }
    if (seen.insert(v).second) out->push_back(v);
  }
  return true;
}

bool SaveSignatures(const char* path, const std::vector<uint64_t>& sigs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  for (uint64_t v : sigs) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIx64 "\n", v);
    out << buf;
  }
  return true;
}

int CmdGen(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* path = argv[0];
  const uint64_t count = std::strtoull(argv[1], nullptr, 10);
  pbs::Xoshiro256 rng(FlagU64(argc, argv, "--seed", 1));
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> sigs;
  while (sigs.size() < count) {
    const uint64_t v = rng.Next() & 0xFFFFFFFF;
    if (v != 0 && seen.insert(v).second) sigs.push_back(v);
  }
  if (!SaveSignatures(path, sigs)) return 1;
  std::printf("wrote %zu signatures to %s\n", sigs.size(), path);
  return 0;
}

int CmdMutate(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::vector<uint64_t> sigs;
  if (!LoadSignatures(argv[0], &sigs)) return 1;
  const uint64_t drop = FlagU64(argc, argv, "--drop", 0);
  const uint64_t add = FlagU64(argc, argv, "--add", 0);
  pbs::Xoshiro256 rng(FlagU64(argc, argv, "--seed", 2));
  if (drop > sigs.size()) {
    std::fprintf(stderr, "cannot drop %" PRIu64 " of %zu\n", drop,
                 sigs.size());
    return 1;
  }
  for (uint64_t i = 0; i < drop; ++i) {
    const size_t j = i + rng.NextBounded(sigs.size() - i);
    std::swap(sigs[i], sigs[j]);
  }
  sigs.erase(sigs.begin(), sigs.begin() + drop);
  std::unordered_set<uint64_t> seen(sigs.begin(), sigs.end());
  for (uint64_t i = 0; i < add;) {
    const uint64_t v = rng.Next() & 0xFFFFFFFF;
    if (v != 0 && seen.insert(v).second) {
      sigs.push_back(v);
      ++i;
    }
  }
  if (!SaveSignatures(argv[1], sigs)) return 1;
  std::printf("wrote %zu signatures to %s (dropped %" PRIu64 ", added %"
              PRIu64 ")\n",
              sigs.size(), argv[1], drop, add);
  return 0;
}

int CmdEstimate(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::vector<uint64_t> a, b;
  if (!LoadSignatures(argv[0], &a) || !LoadSignatures(argv[1], &b)) return 1;
  pbs::TowSketch sa(pbs::kTowDefaultSketches, 7);
  pbs::TowSketch sb(pbs::kTowDefaultSketches, 7);
  sa.AddAll(a);
  sb.AddAll(b);
  const double d_hat = pbs::TowSketch::Estimate(sa, sb);
  std::printf("|A|=%zu |B|=%zu d-hat=%.1f (use %d with gamma=%.2f)\n",
              a.size(), b.size(), d_hat,
              pbs::InflateEstimate(d_hat, pbs::kTowGamma), pbs::kTowGamma);
  return 0;
}

int CmdListSchemes(int /*argc*/, char** /*argv*/) {
  const auto& registry = pbs::SchemeRegistry::Instance();
  const pbs::SchemeOptions options;
  std::printf("%-14s %-14s %7s %9s\n", "name", "display", "rounds",
              "estimate");
  for (const std::string& name : registry.Names()) {
    const auto scheme = registry.Create(name, options);
    std::printf("%-14s %-14s %7s %9s\n", name.c_str(),
                scheme->display_name(),
                scheme->supports_rounds() ? "multi" : "single",
                scheme->needs_estimate() ? "needs" : "-");
  }
  return 0;
}

int CmdDiff(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::vector<uint64_t> a, b;
  if (!LoadSignatures(argv[0], &a) || !LoadSignatures(argv[1], &b)) return 1;
  pbs::SchemeOptions options;
  options.pbs.max_rounds =
      static_cast<int>(FlagU64(argc, argv, "--rounds", 3));
  options.pbs.target_rounds = options.pbs.max_rounds;
  options.pbs.p0 = FlagDouble(argc, argv, "--p0", 0.99);
  options.pbs.delta = static_cast<int>(FlagU64(argc, argv, "--delta", 5));
  options.pbs.strong_verification = true;

  const char* scheme_name = FlagStr(argc, argv, "--scheme", "pbs");
  const auto reconciler =
      pbs::SchemeRegistry::Instance().Create(scheme_name, options);
  if (!reconciler) {
    std::fprintf(stderr, "unknown scheme '%s'; run pbs_cli list-schemes\n",
                 scheme_name);
    return 2;
  }

  // Estimate exchange (Section 6): ToW sketches under a shared seed.
  const pbs::TowExchange estimate =
      pbs::TowEstimateExchange(a, b, options.pbs.ell, 0xE57);

  auto result = reconciler->Reconcile(a, b, estimate.d_hat, 0xC11);
  std::fprintf(stderr,
               "scheme=%s success=%s rounds=%d bytes=%zu (+%zu estimator) "
               "params(%s)\n",
               reconciler->display_name(), result.success ? "yes" : "no",
               result.rounds, result.data_bytes,
               result.estimator_bytes + estimate.bytes,
               result.params_summary.c_str());
  if (!result.success) return 1;
  std::sort(result.difference.begin(), result.difference.end());
  std::unordered_set<uint64_t> in_a(a.begin(), a.end());
  for (uint64_t v : result.difference) {
    std::printf("%c %" PRIx64 "\n", in_a.count(v) ? '-' : '+', v);
  }
  return 0;
}

bool FlagPresent(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int CmdServe(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::vector<uint64_t> elements;
  if (!LoadSignatures(argv[0], &elements)) return 1;
  const auto port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 7557));
  const bool once = FlagPresent(argc, argv, "--once");
  const bool print_stats = FlagPresent(argc, argv, "--stats");

  // N event-loop shards, one responder SessionEngine per connection:
  // clients no longer queue behind each other, and shards spread the
  // session work across cores (net/reconcile_server.h).
  pbs::ServerOptions options;
  options.port = port;
  options.shards = static_cast<int>(FlagU64(argc, argv, "--shards", 1));
  options.max_sessions =
      static_cast<int>(FlagU64(argc, argv, "--max-sessions", 64));
  options.idle_timeout_ms = 30000;
  options.serve_limit = once ? 1 : 0;
  options.keyspace_shards =
      static_cast<int>(FlagU64(argc, argv, "--shards-keyspace", 0));
  options.phase_deadline_ms =
      static_cast<int>(FlagU64(argc, argv, "--phase-deadline", 0));

  std::string error;
  const size_t key_count = elements.size();
  const bool mutable_store = FlagPresent(argc, argv, "--mutable");
  if (mutable_store) {
    // Live served set: sessions pin store snapshots and `pbs_cli update`
    // can mutate it. The layout config mirrors the `connect` defaults so
    // a default client's sessions adopt the store's pre-built sketches.
    auto store = std::make_shared<pbs::MutableElementStore>();
    pbs::PbsConfig layout_config;
    layout_config.max_rounds = 3;
    layout_config.target_rounds = 3;
    layout_config.p0 = 0.99;
    layout_config.delta = 5;
    layout_config.sig_bits = 32;
    const int layout_d =
        static_cast<int>(FlagU64(argc, argv, "--layout-d", 100));
    if (!store->ConfigureLayout(layout_config, /*seed=*/0xC11, layout_d,
                                &error)) {
      std::fprintf(stderr, "serve: %s\n", error.c_str());
      return 1;
    }
    pbs::UpdateBatch initial;
    initial.inserts = std::move(elements);
    elements.clear();
    store->Apply(initial);
    if (options.keyspace_shards > 0) {
      // Maintain the per-shard digests incrementally under the default
      // `connect` seed (the plan is keyed by the initiator's seed):
      // matching sharded sessions take their pre-filter leaves straight
      // off the snapshot instead of streaming the whole set.
      if (!store->ConfigureShardChecksums(options.keyspace_shards,
                                          /*seed=*/0xC11, &error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
      }
    }
    options.mutable_store = std::move(store);
  }
  auto server =
      pbs::ReconcileServer::Create(options, std::move(elements), &error);
  if (!server) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  bool last_session_ok = false;
  server->set_session_logger([&last_session_ok](
                                 const pbs::SessionResult& result) {
    if (result.ok) {
      std::fprintf(stderr,
                   "session scheme=%s success=%s rounds=%d d-hat=%.1f "
                   "wire=%zuB/%d frames\n",
                   result.scheme.c_str(),
                   result.outcome.success ? "yes" : "no",
                   result.outcome.rounds, result.d_hat,
                   result.outcome.wire_bytes, result.outcome.wire_frames);
    } else {
      std::fprintf(stderr, "session failed: %s\n", result.error.c_str());
    }
    last_session_ok = result.ok && result.outcome.success;
  });
  std::fprintf(stderr,
               "serving %zu keys on port %u (%s, max %d concurrent, "
               "%d shard%s, cpu %s)\n",
               key_count, server->port(),
               once ? "single session" : "loop", options.max_sessions,
               server->shard_count(),
               server->shard_count() == 1 ? "" : "s", pbs::cpu::FeatureString());
  server->Run();
  if (print_stats) {
    const pbs::ServerStats stats = server->stats();
    std::fprintf(stderr,
                 "stats: accepted=%llu completed=%llu failed=%llu "
                 "timed-out=%llu rejected=%llu in=%lluB out=%lluB\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.timed_out),
                 static_cast<unsigned long long>(stats.rejected_capacity),
                 static_cast<unsigned long long>(stats.bytes_in),
                 static_cast<unsigned long long>(stats.bytes_out));
    for (const auto& [scheme, count] : stats.completed_by_scheme) {
      std::fprintf(stderr, "stats: scheme %s completed=%llu\n",
                   scheme.c_str(),
                   static_cast<unsigned long long>(count));
    }
  }
  return once ? (last_session_ok ? 0 : 1) : 0;
}

int CmdUpdate(int argc, char** argv) {
  std::vector<uint64_t> inserts, deletes;
  const char* insert_path = FlagStr(argc, argv, "--insert", nullptr);
  const char* delete_path = FlagStr(argc, argv, "--delete", nullptr);
  if (insert_path == nullptr && delete_path == nullptr) {
    std::fprintf(stderr, "update: need --insert and/or --delete\n");
    return Usage();
  }
  if (insert_path != nullptr && !LoadSignatures(insert_path, &inserts)) {
    return 1;
  }
  if (delete_path != nullptr && !LoadSignatures(delete_path, &deletes)) {
    return 1;
  }

  std::vector<pbs::UpdateBatch> batches;
  const uint64_t batch_size = FlagU64(argc, argv, "--batch", 0);
  if (batch_size == 0) {
    pbs::UpdateBatch batch;
    batch.inserts = std::move(inserts);
    batch.deletes = std::move(deletes);
    batches.push_back(std::move(batch));
  } else {
    // Chunk each direction independently; a chunk may carry both kinds.
    const size_t total = std::max(inserts.size(), deletes.size());
    for (size_t start = 0; start < total; start += batch_size) {
      pbs::UpdateBatch batch;
      for (size_t i = start; i < inserts.size() && i < start + batch_size;
           ++i) {
        batch.inserts.push_back(inserts[i]);
      }
      for (size_t i = start; i < deletes.size() && i < start + batch_size;
           ++i) {
        batch.deletes.push_back(deletes[i]);
      }
      batches.push_back(std::move(batch));
    }
  }

  const char* host = FlagStr(argc, argv, "--host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 7557));
  std::string error;
  auto transport = pbs::TcpConnect(host, port, &error);
  if (!transport) {
    std::fprintf(stderr, "update: %s\n", error.c_str());
    return 1;
  }
  const pbs::SessionResult result = pbs::RunUpdateSession(*transport, batches);
  if (!result.ok) {
    std::fprintf(stderr, "update failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("update ok: %d batch%s, %s\n", result.outcome.rounds,
              result.outcome.rounds == 1 ? "" : "es",
              result.outcome.params_summary.c_str());
  return 0;
}

int CmdConnect(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::vector<uint64_t> elements;
  if (!LoadSignatures(argv[0], &elements)) return 1;

  pbs::SessionConfig config;
  config.scheme_name = FlagStr(argc, argv, "--scheme", "pbs");
  // --rounds means the same as in `diff`: both the plan's round target
  // and the hard cap.
  config.options.pbs.max_rounds =
      static_cast<int>(FlagU64(argc, argv, "--rounds", 3));
  config.options.pbs.target_rounds = config.options.pbs.max_rounds;
  config.options.pbs.p0 = FlagDouble(argc, argv, "--p0", 0.99);
  config.options.pbs.delta =
      static_cast<int>(FlagU64(argc, argv, "--delta", 5));
  config.options.pbs.strong_verification = true;
  config.seed = FlagU64(argc, argv, "--seed", 0xC11);
  config.estimate_seed = config.seed ^ 0xE57A11CE;
  config.exact_d = FlagDouble(argc, argv, "--exact-d", -1.0);
  config.keyspace_shards =
      static_cast<int>(FlagU64(argc, argv, "--shards-keyspace", 0));
  config.phase_deadline_ms =
      static_cast<int>(FlagU64(argc, argv, "--deadline", 0));
  const bool quiet = FlagPresent(argc, argv, "--quiet");

  if (!pbs::SchemeRegistry::Instance().Contains(config.scheme_name)) {
    std::fprintf(stderr, "unknown scheme '%s'; run pbs_cli list-schemes\n",
                 config.scheme_name.c_str());
    return 2;
  }

  // Fault injection: --fault takes precedence, else the PBS_FAULT_SPEC
  // env var (inactive default when unset).
  pbs::FaultSpec fault;
  std::string fault_error;
  const char* fault_text = FlagStr(argc, argv, "--fault", nullptr);
  const bool fault_parsed =
      fault_text != nullptr
          ? pbs::FaultSpec::Parse(fault_text, &fault, &fault_error)
          : pbs::FaultSpec::FromEnv(&fault, &fault_error);
  if (!fault_parsed) {
    std::fprintf(stderr, "connect: bad fault spec: %s\n", fault_error.c_str());
    return 2;
  }

  const char* host = FlagStr(argc, argv, "--host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 7557));

  // Each (re)connect builds a fresh transport; with faults configured the
  // connection is wrapped in the injector under a per-connection seed so
  // every attempt sees an independent (but reproducible) schedule.
  // once=1 (first_conn_only) faults only the first connection — the
  // deterministic way to demo "fail once, then resume cleanly".
  int connections = 0;
  const auto factory =
      [&](std::string* err) -> std::unique_ptr<pbs::ByteTransport> {
    auto transport = pbs::TcpConnect(host, port, err);
    if (transport == nullptr) return nullptr;
    const int index = connections++;
    if (!fault.active() || (fault.first_conn_only && index > 0)) {
      return transport;
    }
    pbs::FaultSpec per_conn = fault;
    per_conn.seed = fault.seed + static_cast<uint64_t>(index);
    return pbs::MakeFaultyTransport(std::move(transport), per_conn);
  };

  pbs::ResilientOptions resilient;
  resilient.retry.max_attempts =
      static_cast<int>(FlagU64(argc, argv, "--retries", 1));
  resilient.retry.base_delay_ms =
      static_cast<int>(FlagU64(argc, argv, "--retry-base-ms", 100));
  resilient.retry.max_delay_ms =
      std::max(resilient.retry.base_delay_ms, 2000);
  resilient.retry.seed = config.seed;
  resilient.log = [](const std::string& message) {
    std::fprintf(stderr, "connect: %s\n", message.c_str());
  };
  pbs::ResilienceReport report;
  const pbs::SessionResult result = pbs::RunResilientInitiatorSession(
      factory, config, elements, resilient, &report);
  if (!result.ok) {
    std::fprintf(stderr, "session failed: %s\n", result.error.c_str());
    return 1;
  }
  if (report.sessions_run > 1 || report.used_resume) {
    std::fprintf(stderr,
                 "resilience: attempts=%d resumed=%s stale=%s "
                 "wire-last=%zuB wire-total=%zuB\n",
                 report.sessions_run, report.used_resume ? "yes" : "no",
                 report.stale_resume ? "yes" : "no", report.last_wire_bytes,
                 report.total_wire_bytes);
  }
  std::fprintf(stderr,
               "scheme=%s success=%s rounds=%d d-hat=%.1f payload=%zuB "
               "(+%zuB estimator) wire=%zuB in %d frames params(%s)\n",
               result.scheme.c_str(),
               result.outcome.success ? "yes" : "no", result.outcome.rounds,
               result.d_hat, result.outcome.data_bytes,
               result.outcome.estimator_bytes, result.outcome.wire_bytes,
               result.outcome.wire_frames,
               result.outcome.params_summary.c_str());
  if (!result.outcome.success) return 1;
  std::vector<uint64_t> difference = result.outcome.difference;
  std::sort(difference.begin(), difference.end());
  if (!quiet) {
    std::unordered_set<uint64_t> local(elements.begin(), elements.end());
    for (uint64_t v : difference) {
      std::printf("%c %" PRIx64 "\n", local.count(v) ? '-' : '+', v);
    }
  } else {
    std::printf("%zu differences\n", difference.size());
  }
  return 0;
}

int CmdPlan(int argc, char** argv) {
  if (argc < 1) return Usage();
  pbs::PbsConfig config;
  config.target_rounds = static_cast<int>(FlagU64(argc, argv, "--rounds", 3));
  config.p0 = FlagDouble(argc, argv, "--p0", 0.99);
  config.delta = static_cast<int>(FlagU64(argc, argv, "--delta", 5));
  const int d = std::atoi(argv[0]);
  const pbs::PbsPlan plan = pbs::PlanFor(config, d);
  std::printf("d=%d delta=%d r=%d p0=%.4f\n", d, config.delta,
              config.target_rounds, config.p0);
  std::printf("  groups g = %d\n", plan.params.g);
  std::printf("  bins   n = %d (m = %d)\n", plan.params.n, plan.params.m);
  std::printf("  BCH    t = %d\n", plan.params.t);
  std::printf("  success lower bound = %.4f\n", plan.params.lower_bound);
  std::printf("  first-round bits/group = %.0f (total ~%.1f KB)\n",
              plan.params.bits_per_group,
              plan.params.bits_per_group * plan.params.g / 8192.0);
  return 0;
}

// Each subcommand's synopsis (everything after its name) is also its flag
// list: "--name" followed by a placeholder (N, X, <file>, ...) takes a
// value, and a bracketed "[--name]" stands alone. Parsing the one text
// keeps the help and the accepted flags in step.
struct Command {
  const char* name;
  const char* synopsis;
  int (*run)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"gen", "<file> <count> [--seed N]", CmdGen},
    {"mutate", "<in> <out> --drop N --add N [--seed N]", CmdMutate},
    {"estimate", "<fileA> <fileB>", CmdEstimate},
    {"diff",
     "<fileA> <fileB> [--scheme S] [--rounds N] [--p0 X]\n"
     "          [--delta N]",
     CmdDiff},
    {"plan", "<d> [--p0 X] [--rounds N] [--delta N]", CmdPlan},
    {"serve",
     "<file> [--port N] [--once] [--max-sessions N]\n"
     "          [--stats] [--shards N] [--mutable] [--layout-d D]\n"
     "          [--shards-keyspace S] [--phase-deadline MS]",
     CmdServe},
    {"update",
     "--host H --port N [--insert <file>]\n"
     "          [--delete <file>] [--batch N]",
     CmdUpdate},
    {"connect",
     "<file> --host H --port N [--scheme S] [--rounds N]\n"
     "          [--p0 X] [--delta N] [--seed N] [--exact-d D] [--quiet]\n"
     "          [--shards-keyspace S] [--retries N]\n"
     "          [--retry-base-ms MS] [--deadline MS] [--fault SPEC]",
     CmdConnect},
    {"list-schemes", "", CmdListSchemes},
};

int Usage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "  pbs_cli %s %s\n", command.name, command.synopsis);
  }
  return 2;
}

// The first "--" argument `command` does not define, or null. The value
// after a flag that takes one is skipped.
const char* UnknownFlag(const Command& command, int argc, char** argv) {
  std::vector<std::string> value_flags, bare_flags;
  std::istringstream synopsis(command.synopsis);
  std::string token;
  while (synopsis >> token) {
    const size_t start = token[0] == '[' ? 1 : 0;
    if (token.compare(start, 2, "--") != 0) continue;
    if (token.back() == ']') {
      bare_flags.push_back(token.substr(start, token.size() - start - 1));
    } else {
      value_flags.push_back(token.substr(start));
    }
  }
  const auto defined = [](const std::vector<std::string>& flags,
                          const char* arg) {
    return std::find(flags.begin(), flags.end(), arg) != flags.end();
  };
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    if (defined(value_flags, argv[i])) {
      ++i;
    } else if (!defined(bare_flags, argv[i])) {
      return argv[i];
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string name = argv[1];
  if (name == "--list-schemes") name = "list-schemes";
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    if (const char* flag = UnknownFlag(command, argc - 2, argv + 2)) {
      std::fprintf(stderr,
                   "pbs_cli %s: unknown flag %s\nusage: pbs_cli %s %s\n",
                   command.name, flag, command.name, command.synopsis);
      return 2;
    }
    return command.run(argc - 2, argv + 2);
  }
  return Usage();
}
