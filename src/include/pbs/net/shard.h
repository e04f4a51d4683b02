// Shard: one event-loop thread's worth of the sharded reconcile server.
//
// A shard owns, exclusively and forever on its own thread:
//
//   * an EventLoop (epoll on Linux, persistent-table poll elsewhere);
//   * a slot-based session table — one responder SessionEngine per live
//     connection, slots recycled through a free list so the steady state
//     never touches a hash map or allocates;
//   * an intrusive LRU idle list threaded through the slots (O(1) touch
//     on progress, O(reaped) sweep, and the head bounds the epoll
//     timeout so silent peers are reaped on time);
//   * a 64 KiB read buffer;
//   * its stats block: relaxed atomic counters written only by the shard
//     thread and read by anyone (ReconcileServer::stats() aggregates all
//     shards on demand — no shared mutex anywhere near the byte path).
//
// Connections arrive by fd handoff: the acceptor writes the 4-byte fd
// value into the shard's handoff pipe (atomic below PIPE_BUF), which
// doubles as the shard's wakeup channel — Wake() writes the -1 sentinel.
// Everything else the shard does — Feed/Poll pumping, interest updates,
// idle reaping, finalization — happens without locks; the only mutexes
// are per-shard around the (once-per-session) scheme tally map and the
// server-wide logger serialization, neither of which is on the
// steady-state Feed/Poll path. tests/core/hotpath_alloc_test.cc pins the
// shard loop's steady-state round processing at zero heap allocations.
//
// This header is an internal building block of net/reconcile_server.h;
// it is public so tests can drive a shard directly, but the stable API
// is ReconcileServer.

#ifndef PBS_NET_SHARD_H_
#define PBS_NET_SHARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pbs/core/session_engine.h"
#include "pbs/net/event_loop.h"

namespace pbs {

/// Counters one shard maintains. Plain relaxed atomics: the shard thread
/// is the only writer, aggregation reads are racy-by-design snapshots
/// (exact once the shard quiesces). The scheme tally map is the one
/// mutex-guarded member, touched once per COMPLETED session.
struct ShardStats {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> active{0};  ///< Sessions adopted, not yet finished.
  /// Sub-sessions served with a degraded (fallback) scheme, summed over
  /// completed sessions (SessionResult::degraded_shards).
  std::atomic<uint64_t> degraded{0};

  mutable std::mutex scheme_mutex;
  std::map<std::string, uint64_t> completed_by_scheme;
};

/// State shared between the acceptor and every shard (one instance per
/// ReconcileServer).
struct ShardShared {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> finished{0};  ///< Sessions finished, server-wide.
  std::atomic<uint64_t> active{0};    ///< Admitted and not yet finished.
  uint64_t serve_limit = 0;           ///< Immutable after start; 0 = none.
  /// Acceptor wake pipe (write end); a shard that trips the serve limit
  /// pokes it so Run() returns promptly. -1 = none.
  int acceptor_wake_fd = -1;
  /// Serializes the user's session logger across shard threads (the
  /// logger contract stays "called once per finished session", now from
  /// whichever shard owned it).
  std::mutex logger_mutex;
  std::function<void(const SessionResult&)> logger;
};

/// One event-loop shard. Construct, then either hand a thread to Loop()
/// or drive LoopOnce() inline (the shards=1 embedding). Handoff()/Wake()
/// are the only cross-thread entry points.
class Shard {
 public:
  struct Options {
    int idle_timeout_ms = 30000;
    int keyspace_shards = 0;  // Local SHARD_PLAN clamp; 0 = accept any.
    // Per-phase deadline handed to every session engine (SessionConfig::
    // phase_deadline_ms): a session whose peer sends no complete frame
    // for this long is failed with a phase diagnostic instead of waiting
    // for the (longer) idle timeout. 0 = disabled.
    int phase_deadline_ms = 0;
    EventLoop::Backend backend = EventLoop::Backend::kAuto;
  };

  /// `store` is optional: when non-null, each adopted connection pins the
  /// store's current snapshot (one consistent epoch per session) instead
  /// of using `elements`, and the session accepts UPDATE frames.
  Shard(int index, const Options& options,
        SessionEngine::SharedElements elements,
        std::shared_ptr<MutableElementStore> store,
        const SchemeRegistry* registry, ShardShared* shared);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// False when construction failed (pipe/event-loop); error() says why.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// Which readiness backend this shard runs on ("epoll"/"poll").
  const char* backend_name() const { return loop_.backend_name(); }

  /// Hands a connected, non-blocking fd to the shard (acceptor thread).
  /// Returns false when the handoff pipe is full — thousands of adoptions
  /// already pending — which callers treat as overload and reject.
  bool Handoff(int fd);

  /// Wakes the shard loop without handing it a connection (any thread).
  void Wake();

  /// Runs LoopOnce until ShardShared::stop. Thread body.
  void Loop();

  /// One loop iteration: waits up to `timeout_ms` (clamped to the nearest
  /// idle deadline), adopts handed-off fds, services ready sessions,
  /// reaps idle ones. Returns false once the shard should stop.
  bool LoopOnce(int timeout_ms);

  const ShardStats& stats() const { return stats_; }
  int index() const { return index_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    int fd = -1;
    std::unique_ptr<SessionEngine> engine;
    Clock::time_point last_active{};
    uint32_t interest = 0;
    // Intrusive idle-LRU links (head = oldest) and the free list.
    int lru_prev = -1;
    int lru_next = -1;
    int next_free = -1;
  };

  void DrainHandoffPipe();
  void Adopt(int fd);
  int PopFreeSlot();
  void PushFreeSlot(int slot);
  void LruUnlink(int slot);
  void LruAppend(int slot);
  void LruTouch(int slot);
  int ClampToIdleDeadline(int timeout_ms) const;
  void ServiceSlot(int slot, uint32_t ready);
  bool ReadReady(Slot& s);
  void FlushWrites(Slot& s);
  void UpdateInterest(int slot);
  void MaybeFinalize(int slot, bool peer_gone);
  void SweepIdle();
  void SweepDeadlines();
  void FinishSession(int slot, bool timed_out);

  const int index_;
  const Options options_;
  const SessionEngine::SharedElements elements_;
  const std::shared_ptr<MutableElementStore> store_;
  const SchemeRegistry* const registry_;
  ShardShared* const shared_;

  EventLoop loop_;
  int handoff_read_ = -1;
  int handoff_write_ = -1;
  bool ok_ = false;
  std::string error_;

  std::vector<Slot> slots_;
  int free_head_ = -1;
  int lru_head_ = -1;
  int lru_tail_ = -1;

  // Partial 4-byte handoff messages can straddle pipe reads.
  uint8_t carry_[512];
  size_t carry_len_ = 0;
  uint8_t read_buffer_[64 * 1024];

  ShardStats stats_;
};

}  // namespace pbs

#endif  // PBS_NET_SHARD_H_
