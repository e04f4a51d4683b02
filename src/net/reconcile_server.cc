#include "pbs/net/reconcile_server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "pbs/core/messages.h"
#include "pbs/core/transport.h"
#include "pbs/net/shard.h"

namespace pbs {

namespace {

using Clock = std::chrono::steady_clock;

// Acceptor event-loop tags.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

bool SetNonBlockingFd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int ResolveShardCount(int requested) {
  if (requested > 0) return std::min(requested, 64);
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(1u, std::min(hw, 64u)));
}

}  // namespace

AcceptErrorAction ClassifyAcceptError(int error) {
  switch (error) {
    // Per-connection failures: the aborted/broken connection is consumed
    // by the failed accept itself, so the very next accept can succeed.
    // Linux also surfaces errors of the *accepted* socket here (the
    // network-down family), which likewise say nothing about the
    // listener's health.
    case ECONNABORTED:
    case EINTR:
    case EPROTO:
    case EPERM:
    case ENETDOWN:
    case ENETUNREACH:
    case EHOSTDOWN:
    case EHOSTUNREACH:
    case EOPNOTSUPP:
#ifdef ENONET
    case ENONET:
#endif
      return AcceptErrorAction::kRetry;
    // EMFILE/ENFILE/ENOBUFS/ENOMEM, and anything unrecognized: retrying
    // immediately spins hot on a readiness the kernel cannot satisfy.
    default:
      return AcceptErrorAction::kBackoff;
  }
}

class ReconcileServer::Impl {
 public:
  Impl(const ServerOptions& options, std::vector<uint64_t> elements,
       std::unique_ptr<TcpListener> listener, int wake_read, int wake_write)
      : options_(options),
        // One copy for the whole server: every connection's engine shares
        // this set instead of holding its own (memory would otherwise
        // scale O(active_sessions * set_size)).
        elements_(std::make_shared<const std::vector<uint64_t>>(
            std::move(elements))),
        listener_(std::move(listener)),
        wake_read_(wake_read),
        wake_write_(wake_write),
        loop_(options.event_backend) {
    shared_.serve_limit = options_.serve_limit;
    shared_.acceptor_wake_fd = wake_write_;

    Shard::Options shard_options;
    shard_options.idle_timeout_ms = options_.idle_timeout_ms;
    shard_options.keyspace_shards = options_.keyspace_shards;
    shard_options.phase_deadline_ms = options_.phase_deadline_ms;
    shard_options.backend = options_.event_backend;
    const int shard_count = ResolveShardCount(options_.shards);
    shards_.reserve(shard_count);
    for (int i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>(
          i, shard_options, elements_, options_.mutable_store,
          options_.registry, &shared_));
    }
  }

  ~Impl() {
    Shutdown();
    ::close(wake_read_);
    ::close(wake_write_);
  }

  bool Init(std::string* error) {
    if (!loop_.ok()) {
      if (error) *error = "acceptor event loop initialization failed";
      return false;
    }
    for (const auto& shard : shards_) {
      if (!shard->ok()) {
        if (error) *error = shard->error();
        return false;
      }
    }
    if (!loop_.Add(wake_read_, EventLoop::kRead, kWakeTag) ||
        !loop_.Add(listener_->fd(), EventLoop::kRead, kListenerTag)) {
      if (error) *error = "cannot register acceptor fds";
      return false;
    }
    listener_watched_ = true;
    return true;
  }

  uint16_t port() const { return listener_->port(); }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  void set_session_logger(SessionLogger logger) {
    shared_.logger = std::move(logger);
  }

  void Stop() {
    shared_.stop.store(true, std::memory_order_release);
    const uint8_t byte = 1;
    // Best-effort: a full pipe already guarantees a wakeup.
    (void)!::write(wake_write_, &byte, 1);
  }

  uint64_t Run() {
    const uint64_t before = shared_.finished.load(std::memory_order_acquire);
    EnsureStarted();
    while (AcceptorOnce(/*timeout_ms=*/250)) {
    }
    Shutdown();
    return shared_.finished.load(std::memory_order_acquire) - before;
  }

  bool RunOnce(int timeout_ms) {
    EnsureStarted();
    if (!AcceptorOnce(timeout_ms)) {
      Shutdown();
      return false;
    }
    return true;
  }

  ServerStats stats() const {
    ServerStats out;
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.rejected_capacity = rejected_.load(std::memory_order_relaxed);
    out.active = shared_.active.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
      const ShardStats& s = shard->stats();
      out.completed += s.completed.load(std::memory_order_relaxed);
      out.failed += s.failed.load(std::memory_order_relaxed);
      out.timed_out += s.timed_out.load(std::memory_order_relaxed);
      out.bytes_in += s.bytes_in.load(std::memory_order_relaxed);
      out.bytes_out += s.bytes_out.load(std::memory_order_relaxed);
      out.degraded_shards += s.degraded.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(s.scheme_mutex);
      for (const auto& [scheme, count] : s.completed_by_scheme) {
        out.completed_by_scheme[scheme] += count;
      }
    }
    return out;
  }

 private:
  bool ShouldStop() const {
    return shared_.stop.load(std::memory_order_acquire);
  }

  void EnsureStarted() {
    if (started_) return;
    started_ = true;
    threads_.reserve(shards_.size());
    for (const auto& shard : shards_) {
      threads_.emplace_back([s = shard.get()] { s->Loop(); });
    }
  }

  // Idempotent: stop flag, wake + join every shard thread.
  void Shutdown() {
    shared_.stop.store(true, std::memory_order_release);
    for (const auto& shard : shards_) shard->Wake();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

  bool AcceptorOnce(int timeout_ms) {
    if (ShouldStop()) return false;
    int wait_ms = std::max(0, timeout_ms);
    const Clock::time_point now = Clock::now();
    if (!listener_watched_) {
      if (now >= backoff_until_) {
        ResumeAccepting();
      } else {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                backoff_until_ - now)
                .count();
        wait_ms = std::min(wait_ms, static_cast<int>(remaining) + 1);
      }
    }
    const int ready = loop_.Wait(wait_ms);
    if (ready < 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, wait_ms)));
    }
    for (int i = 0; i < ready; ++i) {
      const EventLoop::Event& event = loop_.events()[i];
      if (event.tag == kWakeTag) {
        DrainWakePipe();
      } else if (event.tag == kListenerTag) {
        AcceptPending();
      }
    }
    if (!listener_watched_ && Clock::now() >= backoff_until_) {
      ResumeAccepting();
    }
    return !ShouldStop();
  }

  void DrainWakePipe() {
    uint8_t sink[64];
    while (::read(wake_read_, sink, sizeof(sink)) > 0) {
    }
  }

  // Batch accept: drains the listener's accept queue, admitting up to the
  // session cap and distributing admitted fds round-robin across shards.
  void AcceptPending() {
    while (true) {
      const int fd = listener_->AcceptRaw();
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (ClassifyAcceptError(errno) == AcceptErrorAction::kBackoff) {
          // Out of fds (or kernel memory, or something unrecognized):
          // readiness can't be satisfied, so polling the listener again
          // would spin hot. Drop it from the loop for a backoff window;
          // in-flight sessions keep draining and freeing fds meanwhile.
          PauseAccepting();
          return;
        }
        // Transient per-connection failures (ECONNABORTED, EINTR,
        // EPROTO, ...): skip this connection, keep draining the queue.
        continue;
      }
      if (ShouldStop()) {
        ::close(fd);
        continue;
      }
      if (shared_.active.load(std::memory_order_relaxed) >=
          static_cast<uint64_t>(options_.max_sessions)) {
        RejectAtCapacity(fd);
        continue;
      }
      if (!SetNonBlockingFd(fd)) {
        ::close(fd);
        continue;
      }
      shared_.active.fetch_add(1, std::memory_order_relaxed);
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (!shards_[next_shard_]->Handoff(fd)) {
        // The shard's handoff pipe is full — thousands of adoptions
        // already pending there. Treat as capacity.
        shared_.active.fetch_sub(1, std::memory_order_relaxed);
        accepted_.fetch_sub(1, std::memory_order_relaxed);
        RejectAtCapacity(fd);
      }
      next_shard_ = (next_shard_ + 1) % shards_.size();
    }
  }

  void PauseAccepting() {
    if (!listener_watched_) return;
    loop_.Remove(listener_->fd());
    listener_watched_ = false;
    backoff_until_ =
        Clock::now() +
        std::chrono::milliseconds(std::max(1, options_.accept_backoff_ms));
  }

  void ResumeAccepting() {
    if (listener_watched_) return;
    if (loop_.Add(listener_->fd(), EventLoop::kRead, kListenerTag)) {
      listener_watched_ = true;
    } else {
      // Re-registration failed (should not happen); retry next window
      // rather than busy-loop.
      backoff_until_ = Clock::now() + std::chrono::milliseconds(
                                          std::max(1, options_.accept_backoff_ms));
    }
  }

  // A peer beyond the cap learns why instead of watching the connection
  // drop: one best-effort ERROR frame, then close. The write is a single
  // non-blocking attempt — a client too slow to take ~60 bytes gets the
  // close alone.
  void RejectAtCapacity(int fd) {
    static const char kMessage[] = "server at session capacity";
    std::vector<uint8_t> frame;
    wire::AppendFrame(wire::FrameType::kError, 0, 0,
                      reinterpret_cast<const uint8_t*>(kMessage),
                      sizeof(kMessage) - 1, &frame);
    SetNonBlockingFd(fd);
    (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(fd);
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }

  const ServerOptions options_;
  const SessionEngine::SharedElements elements_;
  std::unique_ptr<TcpListener> listener_;
  const int wake_read_;
  const int wake_write_;

  EventLoop loop_;  // Acceptor's own loop: listener + wake pipe.
  bool listener_watched_ = false;
  Clock::time_point backoff_until_{};

  ShardShared shared_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  size_t next_shard_ = 0;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
};

// ----------------------------------------------------------- public shim --

std::unique_ptr<ReconcileServer> ReconcileServer::Create(
    const ServerOptions& options, std::vector<uint64_t> elements,
    std::string* error) {
  auto listener = TcpListener::Listen(options.port, error);
  if (!listener) return nullptr;
  if (!listener->SetNonBlocking(true)) {
    if (error) *error = "cannot make listener non-blocking";
    return nullptr;
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  SetNonBlockingFd(pipe_fds[0]);
  SetNonBlockingFd(pipe_fds[1]);
  auto impl = std::make_unique<Impl>(options, std::move(elements),
                                     std::move(listener), pipe_fds[0],
                                     pipe_fds[1]);
  if (!impl->Init(error)) return nullptr;
  return std::unique_ptr<ReconcileServer>(
      new ReconcileServer(std::move(impl)));
}

ReconcileServer::ReconcileServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ReconcileServer::~ReconcileServer() = default;

uint16_t ReconcileServer::port() const { return impl_->port(); }
int ReconcileServer::shard_count() const { return impl_->shard_count(); }
uint64_t ReconcileServer::Run() { return impl_->Run(); }
bool ReconcileServer::RunOnce(int timeout_ms) {
  return impl_->RunOnce(timeout_ms);
}
void ReconcileServer::Stop() { impl_->Stop(); }
ServerStats ReconcileServer::stats() const { return impl_->stats(); }
void ReconcileServer::set_session_logger(SessionLogger logger) {
  impl_->set_session_logger(std::move(logger));
}

}  // namespace pbs
