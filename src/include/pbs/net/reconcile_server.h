// ReconcileServer: many concurrent reconciliations from N event-loop
// shards.
//
// The sans-I/O split (core/session_engine.h) is what makes this layer
// small: the server owns sockets, readiness, timeouts, and counters; each
// accepted connection owns one responder-side SessionEngine, and a shard
// loop just moves bytes between the two.
//
// Topology (net/shard.h, net/event_loop.h):
//
//   Run() caller thread          N shard threads (--shards)
//   ┌─────────────────────┐      ┌──────────────────────────────────┐
//   │ acceptor event loop │  fd  │ shard event loop (epoll / poll)  │
//   │  listener + wake    │─────▶│  slot-based session table        │
//   │  batch accept       │ pipe │  one SessionEngine per session   │
//   │  EMFILE backoff     │      │  LRU idle list, 64 KiB buffer    │
//   │  capacity rejects   │      │  per-shard atomic counters       │
//   └─────────────────────┘      └──────────────────────────────────┘
//
// Accepted connections are distributed round-robin by fd handoff (a
// 4-byte write into the shard's pipe, which doubles as its wakeup
// channel). A session lives its whole life on one shard: its engine,
// buffers, idle bookkeeping, and counters are shard-local, so the
// steady-state Feed/Poll path takes no locks and performs no heap
// allocations; stats() aggregates the per-shard counters on demand.
//
// Policy knobs:
//   * shards          — event-loop threads (1 keeps the old one-loop
//                       behavior, results identical by test);
//   * max_sessions    — connections beyond the cap are told why (a
//                       best-effort ERROR frame) and closed;
//   * idle timeout    — a peer that goes quiet mid-session is dropped;
//   * serve_limit     — stop after N finished sessions (pbs_cli --once);
//   * accept backoff  — on EMFILE/ENFILE the listener leaves the accept
//                       loop for a short window instead of spinning hot.
//
// Run() owns the calling thread until Stop() (thread-safe, wakes the
// loop via a self-pipe) or the serve limit; RunOnce() exposes single
// acceptor iterations for embeddings that already have a loop of their
// own (shard threads still run in the background between calls).

#ifndef PBS_NET_RECONCILE_SERVER_H_
#define PBS_NET_RECONCILE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pbs/core/session_engine.h"
#include "pbs/net/event_loop.h"

namespace pbs {

/// Construction-time server policy.
struct ServerOptions {
  /// TCP port to listen on (0 picks an ephemeral port; read it back with
  /// port()).
  uint16_t port = 0;
  /// Event-loop shard threads. 1 = one loop (the classic single-threaded
  /// server, wire-identical results); 0 = one shard per hardware thread.
  int shards = 1;
  /// Concurrent-session cap, server-wide. Peers accepted beyond it
  /// receive an ERROR frame ("server at session capacity") and are
  /// closed immediately.
  int max_sessions = 64;
  /// Drop a connection with no inbound/outbound progress for this long.
  int idle_timeout_ms = 30000;
  /// Stop serving after this many sessions finished (completed, failed,
  /// or timed out). 0 = serve until Stop().
  uint64_t serve_limit = 0;
  /// After accept(2) fails with EMFILE/ENFILE/ENOBUFS/ENOMEM, stop
  /// watching the listener for this long instead of spinning on a
  /// readiness the kernel cannot satisfy.
  int accept_backoff_ms = 100;
  /// Readiness backend for every loop (acceptor + shards). kAuto picks
  /// epoll on Linux, poll elsewhere; PBS_EVENT_LOOP overrides kAuto.
  EventLoop::Backend event_backend = EventLoop::Backend::kAuto;
  /// Scheme registry served to every session's responder engine.
  /// nullptr = the process-wide SchemeRegistry::Instance(); tests inject
  /// their own.
  const SchemeRegistry* registry = nullptr;
  /// Live mutable served set (core/element_store.h). When set, the
  /// `elements` vector passed to Create() is ignored: every admitted
  /// session pins the store's snapshot at admit time (one consistent
  /// epoch per session, however fast writers churn the set), schemes
  /// with a snapshot fast path adopt the store's incrementally-maintained
  /// sketches instead of rebuilding per session, and UPDATE sessions
  /// (kUpdate frames, e.g. `pbs_cli update`) mutate the store in place.
  /// The store must outlive the server; writers may call Apply() from any
  /// thread concurrently with serving. nullptr = classic immutable set.
  std::shared_ptr<MutableElementStore> mutable_store;
  /// Local keyspace-shard cap for sharded sessions (SHARD_PLAN): a
  /// proposal above this is clamped down to it in the SHARD_PLAN_ACK.
  /// 0 = accept whatever the initiator proposes.
  int keyspace_shards = 0;
  /// Per-phase deadline for every served session (SessionConfig::
  /// phase_deadline_ms): a peer that sends no complete frame for this
  /// long is failed with "phase deadline exceeded while <phase>" rather
  /// than holding a slot until the idle timeout. 0 = disabled.
  int phase_deadline_ms = 0;
};

/// Monotonic counters, snapshot via ReconcileServer::stats() — an
/// on-demand aggregation of the per-shard counter blocks plus the
/// acceptor's own tallies.
struct ServerStats {
  uint64_t accepted = 0;           ///< Connections admitted into a session.
  uint64_t completed = 0;          ///< Sessions that reached DONE.
  uint64_t failed = 0;             ///< Sessions that ended in an error.
  uint64_t timed_out = 0;          ///< Sessions dropped by the idle timeout.
  uint64_t rejected_capacity = 0;  ///< Connections refused at max_sessions.
  uint64_t bytes_in = 0;           ///< Total bytes read from peers.
  uint64_t bytes_out = 0;          ///< Total bytes written to peers.
  /// Completed sessions per scheme registry key.
  std::map<std::string, uint64_t> completed_by_scheme;
  /// Sessions currently in flight (gauge, not a counter).
  uint64_t active = 0;
  /// Keyspace sub-sessions served with a degraded (fallback) scheme
  /// after the initiator's retry ladder exhausted its primary.
  uint64_t degraded_shards = 0;
};

/// What the accept loop should do about a failed accept(2). Exposed for
/// tests; the classification is the load-bearing part of the server's
/// accept resilience.
enum class AcceptErrorAction {
  /// Transient, per-connection: the next accept may succeed right away
  /// (ECONNABORTED, EINTR, EPROTO, and the transient network errnos).
  kRetry,
  /// Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) or anything
  /// unrecognized: retrying immediately would spin hot on a readiness
  /// the kernel cannot satisfy, so leave the accept loop for a backoff
  /// window.
  kBackoff,
};

/// Maps an accept(2) errno to the loop's reaction.
AcceptErrorAction ClassifyAcceptError(int error);

/// Sharded event-loop server holding one responder SessionEngine per
/// accepted connection. Construct with Create(), then either hand the
/// calling thread to Run() or drive RunOnce() from an existing loop.
/// Thread contract: Run()/RunOnce() from one thread; Stop()/stats()/
/// port() from any thread. The session logger runs on shard threads,
/// serialized by an internal mutex.
class ReconcileServer {
 public:
  /// Per-finished-session hook (called on the owning shard's thread,
  /// after the session closed): the responder-side SessionResult.
  using SessionLogger = std::function<void(const SessionResult&)>;

  /// Binds and listens. `elements` is the served key set (the responder
  /// set of every session). Returns nullptr and fills *error on failure.
  static std::unique_ptr<ReconcileServer> Create(
      const ServerOptions& options, std::vector<uint64_t> elements,
      std::string* error);

  ~ReconcileServer();
  ReconcileServer(const ReconcileServer&) = delete;
  ReconcileServer& operator=(const ReconcileServer&) = delete;

  /// The bound port (resolves ephemeral port-0 requests).
  uint16_t port() const;

  /// The number of shard threads actually serving.
  int shard_count() const;

  /// Serves until Stop() or the serve limit: spawns the shard threads,
  /// runs the acceptor on the calling thread, joins the shards before
  /// returning. Returns the number of sessions finished over this call.
  uint64_t Run();

  /// One acceptor iteration: waits up to `timeout_ms` for listener/wake
  /// readiness and performs every ready accept. Shard threads are
  /// started on the first call and keep serving between calls. Returns
  /// false once the server should stop (Stop() called or serve limit
  /// reached) — shard threads are joined before that false returns.
  bool RunOnce(int timeout_ms);

  /// Asks the loop to stop; safe from any thread and from the logger.
  void Stop();

  /// Snapshot of the counters; safe from any thread.
  ServerStats stats() const;

  /// Installs the per-session hook. Call before Run().
  void set_session_logger(SessionLogger logger);

 private:
  class Impl;
  explicit ReconcileServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbs

#endif  // PBS_NET_RECONCILE_SERVER_H_
