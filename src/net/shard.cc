#include "pbs/net/shard.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace pbs {

namespace {

// The handoff pipe shares the shard's event loop under this tag; session
// slots use their (small, non-negative) slot index.
constexpr uint64_t kWakeTag = ~uint64_t{0};

// The 4-byte handoff message that means "no fd, just wake up".
constexpr int kWakeSentinel = -1;

bool SetNonBlockingFd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Shard::Shard(int index, const Options& options,
             SessionEngine::SharedElements elements,
             std::shared_ptr<MutableElementStore> store,
             const SchemeRegistry* registry, ShardShared* shared)
    : index_(index),
      options_(options),
      elements_(std::move(elements)),
      store_(std::move(store)),
      registry_(registry),
      shared_(shared),
      loop_(options.backend) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    error_ = std::string("shard pipe: ") + std::strerror(errno);
    return;
  }
  handoff_read_ = pipe_fds[0];
  handoff_write_ = pipe_fds[1];
  SetNonBlockingFd(handoff_read_);
  SetNonBlockingFd(handoff_write_);
  if (!loop_.ok() || !loop_.Add(handoff_read_, EventLoop::kRead, kWakeTag)) {
    error_ = "shard event loop initialization failed";
    return;
  }
  ok_ = true;
}

Shard::~Shard() {
  for (Slot& s : slots_) {
    if (s.fd >= 0) ::close(s.fd);
  }
  if (handoff_read_ >= 0) ::close(handoff_read_);
  if (handoff_write_ >= 0) ::close(handoff_write_);
}

bool Shard::Handoff(int fd) {
  // 4-byte writes are atomic below PIPE_BUF, so concurrent Wake() calls
  // never interleave with a handoff message. A full pipe means thousands
  // of adoptions are already queued on this shard — overload, reported
  // to the caller instead of blocking the acceptor.
  const int value = fd;
  while (true) {
    const ssize_t n = ::write(handoff_write_, &value, sizeof(value));
    if (n == sizeof(value)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

void Shard::Wake() {
  const int value = kWakeSentinel;
  // Best-effort: a full pipe already guarantees a wakeup.
  (void)!::write(handoff_write_, &value, sizeof(value));
}

void Shard::Loop() {
  while (LoopOnce(/*timeout_ms=*/250)) {
  }
}

bool Shard::LoopOnce(int timeout_ms) {
  if (shared_->stop.load(std::memory_order_acquire)) return false;
  const int wait_ms = ClampToIdleDeadline(timeout_ms);
  const int ready = loop_.Wait(wait_ms);
  if (ready < 0) {
    // A persistent backend failure (e.g. ENOMEM) must not become a hot
    // spin: back off for the interval the wait would have covered.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, wait_ms)));
  }
  for (int i = 0; i < ready; ++i) {
    const EventLoop::Event& event = loop_.events()[i];
    if (event.tag == kWakeTag) {
      DrainHandoffPipe();
    } else {
      ServiceSlot(static_cast<int>(event.tag), event.ready);
    }
  }
  SweepDeadlines();
  SweepIdle();
  return !shared_->stop.load(std::memory_order_acquire);
}

void Shard::DrainHandoffPipe() {
  while (true) {
    const ssize_t n = ::read(handoff_read_, carry_ + carry_len_,
                             sizeof(carry_) - carry_len_);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained.
    }
    if (n == 0) break;  // Write end closed (shutdown).
    carry_len_ += static_cast<size_t>(n);
    size_t consumed = 0;
    while (carry_len_ - consumed >= sizeof(int)) {
      int fd;
      std::memcpy(&fd, carry_ + consumed, sizeof(fd));
      consumed += sizeof(fd);
      if (fd >= 0) Adopt(fd);
    }
    if (consumed > 0) {
      std::memmove(carry_, carry_ + consumed, carry_len_ - consumed);
      carry_len_ -= consumed;
    }
  }
}

void Shard::Adopt(int fd) {
  const int slot = PopFreeSlot();
  Slot& s = slots_[slot];
  s.fd = fd;
  SessionConfig local_config;
  local_config.keyspace_shards = options_.keyspace_shards;
  local_config.phase_deadline_ms = options_.phase_deadline_ms;
  if (store_ != nullptr) {
    // Mutable serving: pin the store's current snapshot for this whole
    // session. Concurrent writers keep publishing new epochs; this
    // session reconciles against exactly the one it admitted with (and,
    // with the store attached, also accepts UPDATE sessions).
    s.engine = std::make_unique<SessionEngine>(SessionEngine::Responder(
        local_config, store_->snapshot(), store_, registry_));
  } else {
    s.engine = std::make_unique<SessionEngine>(
        SessionEngine::Responder(local_config, elements_, registry_));
  }
  s.last_active = Clock::now();
  s.interest = EventLoop::kRead;
  if (!loop_.Add(fd, s.interest, static_cast<uint64_t>(slot))) {
    // Registration failure is a failed session, accounted like any other
    // so the server-wide active/finished bookkeeping never drifts.
    ::close(fd);
    s.fd = -1;
    s.engine.reset();
    PushFreeSlot(slot);
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    shared_->active.fetch_sub(1, std::memory_order_relaxed);
    shared_->finished.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  LruAppend(slot);
  stats_.active.fetch_add(1, std::memory_order_relaxed);
}

int Shard::PopFreeSlot() {
  if (free_head_ >= 0) {
    const int slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = -1;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size()) - 1;
}

void Shard::PushFreeSlot(int slot) {
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Shard::LruUnlink(int slot) {
  Slot& s = slots_[slot];
  if (s.lru_prev >= 0) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else if (lru_head_ == slot) {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next >= 0) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else if (lru_tail_ == slot) {
    lru_tail_ = s.lru_prev;
  }
  s.lru_prev = s.lru_next = -1;
}

void Shard::LruAppend(int slot) {
  Slot& s = slots_[slot];
  s.lru_prev = lru_tail_;
  s.lru_next = -1;
  if (lru_tail_ >= 0) {
    slots_[lru_tail_].lru_next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

void Shard::LruTouch(int slot) {
  slots_[slot].last_active = Clock::now();
  if (lru_tail_ == slot) return;  // Already newest.
  LruUnlink(slot);
  LruAppend(slot);
}

// The oldest session's deadline bounds the wait so a silent peer is
// dropped on time even when no fd ever becomes ready. O(1): the LRU head
// IS the oldest.
int Shard::ClampToIdleDeadline(int timeout_ms) const {
  if (lru_head_ < 0 || options_.idle_timeout_ms <= 0) return timeout_ms;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - slots_[lru_head_].last_active)
                           .count();
  const int remaining =
      static_cast<int>(options_.idle_timeout_ms - elapsed);
  return std::max(0, std::min(timeout_ms, remaining));
}

void Shard::ServiceSlot(int slot, uint32_t ready) {
  if (slot < 0 || slot >= static_cast<int>(slots_.size())) return;
  Slot& s = slots_[slot];
  if (s.fd < 0 || s.engine == nullptr) return;  // Already finalized.
  bool peer_gone = false;
  if ((ready & (EventLoop::kRead | EventLoop::kHangup)) != 0) {
    peer_gone = !ReadReady(s);
  }
  // Catch slow-loris peers that keep the socket warm with partial
  // frames: bytes arrived but the phase clock (which only restarts on
  // complete frames) may still have expired. CheckDeadline queues the
  // ERROR diagnostic, which the flush below delivers.
  if (!peer_gone) (void)s.engine->CheckDeadline();
  if (!peer_gone && (s.engine->outbound_size() > 0)) FlushWrites(s);
  MaybeFinalize(slot, peer_gone);
}

// Reads until EAGAIN, feeding the engine as bytes arrive. Returns false
// once the peer is gone (EOF or hard error).
bool Shard::ReadReady(Slot& s) {
  while (true) {
    const ssize_t n =
        ::recv(s.fd, read_buffer_, sizeof(read_buffer_), MSG_DONTWAIT);
    if (n > 0) {
      s.engine->Feed(read_buffer_, static_cast<size_t>(n));
      LruTouch(static_cast<int>(&s - slots_.data()));
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    }
    // EOF or hard error: let the engine turn it into a diagnostic.
    s.engine->FeedEof();
    return false;
  }
}

// Writes the engine's pending outbound bytes until EAGAIN or empty.
// Anything left keeps the fd registered for writability (backpressure).
void Shard::FlushWrites(Slot& s) {
  while (s.engine->outbound_size() > 0) {
    const ssize_t n = ::send(s.fd, s.engine->outbound_data(),
                             s.engine->outbound_size(), MSG_NOSIGNAL);
    if (n > 0) {
      s.engine->ConsumeOutbound(static_cast<size_t>(n));
      LruTouch(static_cast<int>(&s - slots_.data()));
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(n),
                                 std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    s.engine->FailTransport();
    return;
  }
}

void Shard::UpdateInterest(int slot) {
  Slot& s = slots_[slot];
  const uint32_t wanted =
      EventLoop::kRead |
      (s.engine->outbound_size() > 0 ? EventLoop::kWrite : 0u);
  if (wanted == s.interest) return;
  if (loop_.Modify(s.fd, wanted, static_cast<uint64_t>(slot))) {
    s.interest = wanted;
  }
}

// Closes and accounts a session once it settled and its last bytes (DONE
// ack, ERROR) are on the wire — or immediately when the peer is gone and
// nothing can be delivered anymore.
void Shard::MaybeFinalize(int slot, bool peer_gone) {
  Slot& s = slots_[slot];
  const SessionStatus status = s.engine->Status();
  const bool settled =
      status == SessionStatus::kDone || status == SessionStatus::kError;
  if (!settled && !peer_gone) {
    UpdateInterest(slot);
    return;
  }
  if (settled && !peer_gone && s.engine->outbound_size() > 0) {
    UpdateInterest(slot);
    return;
  }
  FinishSession(slot, /*timed_out=*/false);
}

// Fails sessions whose peer sent no complete frame within the phase
// deadline, even if the fd never becomes ready again (a silent peer
// generates no events, so ServiceSlot alone cannot catch it). Only runs
// when the feature is on; the walk is O(slots) per loop tick.
void Shard::SweepDeadlines() {
  if (options_.phase_deadline_ms <= 0) return;
  for (int slot = 0; slot < static_cast<int>(slots_.size()); ++slot) {
    Slot& s = slots_[slot];
    if (s.fd < 0 || s.engine == nullptr) continue;
    if (s.engine->CheckDeadline()) {
      FlushWrites(s);  // Best-effort delivery of the queued ERROR frame.
      FinishSession(slot, /*timed_out=*/false);
    }
  }
}

void Shard::SweepIdle() {
  if (options_.idle_timeout_ms <= 0) return;
  const Clock::time_point cutoff =
      Clock::now() - std::chrono::milliseconds(options_.idle_timeout_ms);
  // The LRU is ordered oldest-first, so reaping is a walk from the head.
  while (lru_head_ >= 0 && slots_[lru_head_].last_active < cutoff) {
    FinishSession(lru_head_, /*timed_out=*/true);
  }
}

void Shard::FinishSession(int slot, bool timed_out) {
  Slot& s = slots_[slot];
  if (s.fd < 0 || s.engine == nullptr) return;
  SessionResult result = s.engine->TakeResult();
  if (timed_out && result.error.empty()) {
    result.ok = false;
    result.error = "idle timeout";
  }
  loop_.Remove(s.fd);
  ::close(s.fd);
  s.fd = -1;
  s.engine.reset();
  LruUnlink(slot);
  PushFreeSlot(slot);

  if (timed_out) {
    stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
  } else if (result.ok) {
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    if (result.degraded_shards > 0) {
      stats_.degraded.fetch_add(static_cast<uint64_t>(result.degraded_shards),
                                std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(stats_.scheme_mutex);
    stats_.completed_by_scheme[result.scheme] += 1;
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.active.fetch_sub(1, std::memory_order_relaxed);
  shared_->active.fetch_sub(1, std::memory_order_relaxed);

  if (shared_->logger) {
    std::lock_guard<std::mutex> lock(shared_->logger_mutex);
    shared_->logger(result);
  }

  const uint64_t finished =
      shared_->finished.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (shared_->serve_limit > 0 && finished >= shared_->serve_limit &&
      !shared_->stop.exchange(true, std::memory_order_acq_rel)) {
    // Serve limit reached: stop the server and poke the acceptor, which
    // in turn wakes and joins every shard.
    if (shared_->acceptor_wake_fd >= 0) {
      const uint8_t byte = 1;
      (void)!::write(shared_->acceptor_wake_fd, &byte, 1);
    }
  }
}

}  // namespace pbs
