// The four pbs_e2e workloads: inputs generated from the workload seed, a
// ReconcileServer serving them on loopback TCP, and what the client pump
// and the probe pass need to drive and check them. README.md says why
// each workload exists and which layers it stresses.

#ifndef PBS_BENCH_E2E_WORKLOADS_H_
#define PBS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pbs/core/element_store.h"
#include "pbs/core/session_engine.h"
#include "pbs/net/reconcile_server.h"

namespace pbs::e2e {

using SharedSet = std::shared_ptr<const std::vector<uint64_t>>;

/// Keyspace shards of sharded_1m's sessions and of the sync probes.
inline constexpr int kKeyspaceShards = 64;

/// Independent seed for `tag` under `seed` (SplitMix64 mix).
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// The `pbs_cli connect` defaults: rounds 3, p0 0.99, delta 5, strong
/// verification, 32-bit signatures, ToW estimate on.
SchemeOptions ConnectOptions();
SessionConfig ConnectConfig(const std::string& scheme, uint64_t seed);

/// The PbsConfig a PBS engine built from `options` plans with: the
/// scheme-level signature width folded in.
PbsConfig PbsConfigOf(const SchemeOptions& options);

/// The workload's own inputs, as the probe pass times them.
struct ProbeInputs {
  SharedSet a;            ///< Whole initiator set.
  SharedSet b;            ///< Whole served set.
  uint64_t seed = 0;      ///< Session seed of the first measured session.
  double d_hat = 0.0;     ///< Monolithic difference bound for a, b.
  /// What one scheme engine pair sees in a live session: the whole sets,
  /// or one differing shard's slices in a sharded session.
  SharedSet scheme_a;
  SharedSet scheme_b;
  std::vector<uint64_t> scheme_truth;  ///< Sorted difference of the slices.
  double scheme_d_hat = 0.0;
  uint64_t scheme_seed = 0;
};

/// One workload after set-up. Owns the server; destruction stops it.
struct Instance {
  Instance() = default;
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// The timed set-up: creates the server over `elements` (a copy of
  /// `served`), through a layout-configured MutableElementStore when
  /// `store_backed`. Returns false with *error set on failure.
  bool Serve(std::vector<uint64_t> elements, std::string* error);
  /// Drops the server and store again; only before Start().
  void Unserve();
  /// Starts serving on a background thread (not part of set-up time).
  void Start();
  uint16_t port() const { return server->port(); }

  /// The served set, and how Serve() serves it.
  SharedSet served;
  int server_shards = 1;
  bool store_backed = false;

  /// One initiator set and what reconciling it may correctly recover.
  struct Client {
    SessionEngine::SharedElements a;
    /// Sorted admissible differences: a recovered difference is correct
    /// iff it equals one of them (one per served state a session may pin).
    std::vector<std::vector<uint64_t>> truths;
  };

  /// Closed-loop reader connections.
  int readers = 1;
  /// Reconciliation `op` runs from clients[op % clients.size()].
  std::vector<Client> clients;
  /// Config of attempt `attempt` (0-based; later attempts retry a decode
  /// miss) of reconciliation number `op`.
  std::function<SessionConfig(uint64_t op, int attempt)> session_config;

  /// Open-loop UPDATE writer (0 = none). The served set holds exactly one
  /// of `pools`; each update deletes the live one and inserts the next.
  double writer_hz = 0.0;
  std::vector<std::vector<uint64_t>> pools;
  size_t live_pool = 0;

  ProbeInputs probe;

  std::shared_ptr<MutableElementStore> store;
  std::unique_ptr<ReconcileServer> server;
  std::thread serving;  // Last: joined before the members it uses go.
};

struct WorkloadSpec {
  const char* name;
  /// Untimed load before the measured window, writer included, so
  /// buffers, caches and the store's epoch turnover are warm. Zero for
  /// bulk_1m, whose sessions take seconds.
  double warmup_seconds;
  /// Percentile reported as session_tail_ms: the highest one the
  /// workload's sample count supports with ten samples beyond it.
  double tail_quantile;
  /// wire_B_per_session and frames_per_session average the first this
  /// many reconciliations, so they are a function of the seed alone. The
  /// untraced window stays open until all of them have started.
  uint64_t wire_ops;
  /// Generates the workload's inputs from its seed (untimed, once a run).
  std::unique_ptr<Instance> (*generate)(uint64_t seed);
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

}  // namespace pbs::e2e

#endif  // PBS_BENCH_E2E_WORKLOADS_H_
