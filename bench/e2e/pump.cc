#include "pump.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "pbs/net/event_loop.h"

namespace pbs::e2e {

namespace {

constexpr int kMaxAttempts = 3;
constexpr size_t kReadChunk = 64 * 1024;
// A connection without I/O progress for this long is a hung session: the
// run fails instead of sitting out the caller's time limit.
constexpr auto kStallLimit = std::chrono::seconds(60);

// Span names per SessionEngine::phase_name(), for the reader's and the
// writer's sessions. A Feed is named after the reply it consumes, a wait
// after the reply it waits for.
struct PhaseNames {
  const char* phase;
  const char* on;
  const char* wait;
  const char* writer_on;
  const char* writer_wait;
};

constexpr PhaseNames kPhaseNames[] = {
    {"awaiting HELLO_ACK", "client.on_hello_ack", "wait.hello",
     "writer.on_hello_ack", "writer.wait.hello"},
    {"awaiting estimate reply", "client.on_estimate_reply", "wait.estimate",
     "writer.on_estimate_reply", "writer.wait.estimate"},
    {"awaiting scheme reply", "client.on_scheme_reply", "wait.scheme",
     "writer.on_scheme_reply", "writer.wait.scheme"},
    {"awaiting UPDATE_ACK", "client.on_update_ack", "wait.update",
     "writer.on_update_ack", "writer.wait.update"},
    {"awaiting SHARD_PLAN_ACK", "client.on_shard_plan_ack", "wait.shard_plan",
     "writer.on_shard_plan_ack", "writer.wait.shard_plan"},
    {"awaiting RESUME_ACK", "client.on_resume_ack", "wait.resume",
     "writer.on_resume_ack", "writer.wait.resume"},
    {"awaiting digest reply", "client.on_digest_reply", "wait.digest",
     "writer.on_digest_reply", "writer.wait.digest"},
    {"running sub-sessions", "client.on_sub_session", "wait.sub_session",
     "writer.on_sub_session", "writer.wait.sub_session"},
    {"awaiting DONE ack", "client.on_done_ack", "wait.done",
     "writer.on_done_ack", "writer.wait.done"},
};
constexpr PhaseNames kOtherPhase = {"", "client.on_other", "wait.other",
                                    "writer.on_other", "writer.wait.other"};

const PhaseNames& NamesFor(const char* phase) {
  for (const PhaseNames& names : kPhaseNames) {
    if (std::strcmp(names.phase, phase) == 0) return names;
  }
  return kOtherPhase;
}

// Blocking connect (the loopback handshake needs no accept), then
// non-blocking I/O with Nagle off, as the library's own TcpConnect does.
int ConnectLoopback(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

// Process CPU time (user + system) of every thread, client and server.
double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The updater's DONE summary: "epoch=E inserted=I deleted=D rejected=R".
bool UpdateApplied(const SessionResult& result, size_t inserts,
                   size_t deletes) {
  unsigned long long epoch = 0;
  unsigned inserted = 0, deleted = 0, rejected = 0;
  if (!result.ok ||
      std::sscanf(result.outcome.params_summary.c_str(),
                  "epoch=%llu inserted=%u deleted=%u rejected=%u", &epoch,
                  &inserted, &deleted, &rejected) != 4) {
    return false;
  }
  return inserted == inserts && deleted == deletes && rejected == 0;
}

struct Conn {
  bool busy = false;
  bool writer = false;
  int fd = -1;
  uint32_t interest = 0;
  std::unique_ptr<SessionEngine> engine;
  OpRecord op;                  // Reader: the reconciliation in flight.
  Clock::time_point op_start;
  Clock::time_point due;        // Writer: when the update was due.
  Clock::time_point session_start;
  Clock::time_point last_progress;
  Clock::time_point sent_at;
  bool waiting = false;         // Request sent, no reply byte yet.
  uint64_t trace_id = 0;
  uint32_t span = 0;
};

// Readers and the writer run in separate pumps: the writer is an
// independent user, and a reader's Feed can hold a pump for tens of
// milliseconds, which would otherwise stall every update behind it.
enum class Role { kReaders, kWriter };

class Pump {
 public:
  Pump(Instance& inst, double seconds, uint64_t min_ops, Tracer* tracer,
       Role role)
      : inst_(inst), seconds_(seconds), min_ops_(min_ops), tracer_(tracer),
        role_(role), buf_(kReadChunk) {
    conns_.resize(role == Role::kReaders ? static_cast<size_t>(inst.readers)
                                         : 1);
    if (role == Role::kWriter) conns_.front().writer = true;
  }

  WindowResult Run();

 private:
  Clock::time_point Due(uint64_t k) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / inst_.writer_hz));
  }
  // Starts due work; returns how long Wait may sleep, or -1 when the
  // window is over and nothing is in flight.
  int StartWork(Clock::time_point now);
  void StartOp(size_t slot, Clock::time_point now);
  void StartUpdate(size_t slot, Clock::time_point now);
  void Open(size_t slot, Clock::time_point now, const SessionConfig* config);
  void Service(size_t slot, uint32_t ready);
  void Advance(size_t slot);
  void Flush(Conn& c);
  void Read(Conn& c);
  void Settle(size_t slot);
  void FinishOp(Conn& c, Clock::time_point end);
  void FinishUpdate(Conn& c, Clock::time_point end, bool ok);
  void CloseAll();

  Instance& inst_;
  double seconds_;
  uint64_t min_ops_;
  Tracer* tracer_;
  Role role_;
  EventLoop loop_;
  std::vector<Conn> conns_;
  std::vector<uint8_t> buf_;
  Clock::time_point start_;
  Clock::time_point stop_at_;
  Clock::time_point last_settle_;
  uint64_t next_op_ = 0;
  uint64_t next_update_ = 0;
  WindowResult result_;
};

void Pump::StartOp(size_t slot, Clock::time_point now) {
  Conn& c = conns_[slot];
  c.busy = true;
  c.op = OpRecord();
  c.op.index = next_op_++;
  c.op_start = now;
  const SessionConfig config = inst_.session_config(c.op.index, 0);
  Open(slot, now, &config);
}

void Pump::StartUpdate(size_t slot, Clock::time_point now) {
  Conn& c = conns_[slot];
  c.busy = true;
  c.due = Due(next_update_++);
  Open(slot, now, nullptr);
}

// Connects and mints the session's engine: an initiator for `config`, or
// the updater when `config` is null.
void Pump::Open(size_t slot, Clock::time_point now,
                const SessionConfig* config) {
  Conn& c = conns_[slot];
  c.session_start = now;
  c.trace_id = tracer_->NewTraceId();
  c.span = tracer_->NewId();
  c.waiting = false;
  std::string error;
  c.fd = ConnectLoopback(inst_.port(), &error);
  const Clock::time_point connected = Clock::now();
  tracer_->Record(c.trace_id, tracer_->NewId(), c.span,
                  c.writer ? "writer.connect" : "client.connect", now,
                  connected);
  if (c.fd < 0) {
    if (c.writer) {
      FinishUpdate(c, connected, false);
    } else {
      c.op.attempts += 1;
      c.op.error = error;
      FinishOp(c, connected);
    }
    return;
  }
  if (config != nullptr) {
    const Instance::Client& client =
        inst_.clients[c.op.index % inst_.clients.size()];
    c.engine = std::make_unique<SessionEngine>(
        SessionEngine::Initiator(*config, client.a));
  } else {
    UpdateBatch batch;
    batch.inserts = inst_.pools[(inst_.live_pool + 1) % inst_.pools.size()];
    batch.deletes = inst_.pools[inst_.live_pool];
    std::vector<UpdateBatch> batches;
    batches.push_back(std::move(batch));
    c.engine = std::make_unique<SessionEngine>(
        SessionEngine::Updater(std::move(batches)));
  }
  const Clock::time_point built = Clock::now();
  tracer_->Record(c.trace_id, tracer_->NewId(), c.span,
                  c.writer ? "writer.engine_init" : "client.engine_init",
                  connected, built);
  c.last_progress = built;
  c.interest = EventLoop::kRead | EventLoop::kWrite;
  if (!loop_.Add(c.fd, c.interest, slot)) {
    c.engine->FailTransport();
  }
  Advance(slot);
}

void Pump::Service(size_t slot, uint32_t ready) {
  Conn& c = conns_[slot];
  if (!c.busy || c.engine == nullptr) return;
  if ((ready & (EventLoop::kRead | EventLoop::kHangup)) != 0) Read(c);
  Advance(slot);
}

void Pump::Advance(size_t slot) {
  Conn& c = conns_[slot];
  if (c.engine->Status() == SessionStatus::kWantWrite) Flush(c);
  const SessionStatus status = c.engine->Status();
  if (status == SessionStatus::kDone || status == SessionStatus::kError) {
    Settle(slot);
    return;
  }
  const uint32_t want = status == SessionStatus::kWantWrite
                            ? (EventLoop::kRead | EventLoop::kWrite)
                            : EventLoop::kRead;
  if (want != c.interest && loop_.Modify(c.fd, want, slot)) c.interest = want;
}

// The wait for a reply starts when the request's last bytes go to the
// kernel: on loopback a small reply can arrive before send() returns.
void Pump::Flush(Conn& c) {
  while (c.engine->outbound_size() > 0) {
    const Clock::time_point before = Clock::now();
    const ssize_t n = ::send(c.fd, c.engine->outbound_data(),
                             c.engine->outbound_size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.engine->ConsumeOutbound(static_cast<size_t>(n));
      c.last_progress = Clock::now();
      c.sent_at = before;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.engine->FailTransport();
    return;
  }
  if (c.engine->Status() == SessionStatus::kWantRead) c.waiting = true;
}

void Pump::Read(Conn& c) {
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf_.data(), buf_.size(), 0);
    if (n > 0) {
      const Clock::time_point now = Clock::now();
      c.last_progress = now;
      const PhaseNames& names = NamesFor(c.engine->phase_name());
      if (c.waiting) {
        tracer_->Record(c.trace_id, tracer_->NewId(), c.span,
                        c.writer ? names.writer_wait : names.wait, c.sent_at,
                        now);
        c.waiting = false;
      }
      c.engine->Feed(buf_.data(), static_cast<size_t>(n));
      tracer_->Record(c.trace_id, tracer_->NewId(), c.span,
                      c.writer ? names.writer_on : names.on, now,
                      Clock::now());
      if (c.engine->Status() != SessionStatus::kWantRead) return;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.engine->FeedEof();  // EOF or a socket error.
    return;
  }
}

void Pump::Settle(size_t slot) {
  Conn& c = conns_[slot];
  loop_.Remove(c.fd);
  ::close(c.fd);
  c.fd = -1;
  c.interest = 0;
  const Clock::time_point end = Clock::now();
  tracer_->Record(c.trace_id, c.span, 0,
                  c.writer ? "writer.session" : "client.session",
                  c.session_start, end);
  SessionResult result = c.engine->TakeResult();
  c.engine.reset();
  last_settle_ = end;

  if (c.writer) {
    const size_t pool_size = inst_.pools[inst_.live_pool].size();
    FinishUpdate(c, end, UpdateApplied(result, pool_size, pool_size));
    return;
  }
  OpRecord& op = c.op;
  op.attempts += 1;
  op.wire_bytes += result.outcome.wire_bytes;
  op.frames += result.outcome.wire_frames;
  op.rounds = result.outcome.rounds;
  if (!result.ok) {
    op.error = result.error;
  } else if (!result.outcome.success) {
    op.misses += 1;
    if (op.attempts < kMaxAttempts) {
      const SessionConfig config =
          inst_.session_config(op.index, op.attempts);
      Open(slot, end, &config);
      return;
    }
    op.error = "decode missed on every attempt";
  } else {
    std::vector<uint64_t> difference = std::move(result.outcome.difference);
    std::sort(difference.begin(), difference.end());
    const std::vector<std::vector<uint64_t>>& truths =
        inst_.clients[op.index % inst_.clients.size()].truths;
    op.ok = std::find(truths.begin(), truths.end(), difference) !=
            truths.end();
    op.wrong = !op.ok;
    if (op.wrong) op.error = "wrong difference";
  }
  FinishOp(c, end);
}

void Pump::FinishOp(Conn& c, Clock::time_point end) {
  c.op.latency_ms = MsBetween(c.op_start, end);
  result_.ops.push_back(c.op);
  c.busy = false;
}

void Pump::FinishUpdate(Conn& c, Clock::time_point end, bool ok) {
  UpdateRecord update;
  update.latency_ms = MsBetween(c.due, end);
  update.late_ms = MsBetween(c.due, c.session_start);
  update.ok = ok;
  if (ok) inst_.live_pool = (inst_.live_pool + 1) % inst_.pools.size();
  result_.updates.push_back(update);
  c.busy = false;
}

void Pump::CloseAll() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      loop_.Remove(c.fd);
      ::close(c.fd);
      c.fd = -1;
    }
    c.engine.reset();
    c.busy = false;
  }
}

int Pump::StartWork(Clock::time_point now) {
  constexpr int kIdleWaitMs = 50;
  if (role_ == Role::kReaders) {
    const bool more = now < stop_at_ || next_op_ < min_ops_;
    bool busy = false;
    for (size_t slot = 0; slot < conns_.size(); ++slot) {
      if (!conns_[slot].busy && more) StartOp(slot, now);
      busy = busy || conns_[slot].busy;
    }
    return busy || more ? kIdleWaitMs : -1;
  }
  Conn& writer = conns_.front();
  if (writer.busy) return kIdleWaitMs;
  const Clock::time_point due = Due(next_update_);
  if (due >= stop_at_) return -1;
  // Idle, so nothing is in flight: sleep to the due time itself. The
  // event loop's millisecond timeout would start updates up to a
  // millisecond late, and that lateness would dominate update latency.
  if (due > now) std::this_thread::sleep_until(due);
  StartUpdate(0, Clock::now());
  return 0;
}

WindowResult Pump::Run() {
  if (!loop_.ok()) {
    result_.fatal = "client event loop failed to initialize";
    return result_;
  }
  start_ = Clock::now();
  stop_at_ = start_ + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds_));
  last_settle_ = start_;
  for (;;) {
    const int timeout_ms = StartWork(Clock::now());
    if (timeout_ms < 0) break;
    const int ready = loop_.Wait(timeout_ms);
    if (ready < 0) {
      result_.fatal = "client event loop wait failed";
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const EventLoop::Event event = loop_.events()[i];
      Service(static_cast<size_t>(event.tag), event.ready);
    }
    const Clock::time_point now = Clock::now();
    for (const Conn& c : conns_) {
      if (c.busy && c.engine != nullptr &&
          now - c.last_progress > kStallLimit) {
        result_.fatal = std::string("session stalled while ") +
                        c.engine->phase_name();
      }
    }
    if (!result_.fatal.empty()) break;
  }
  CloseAll();
  result_.wall_s =
      std::chrono::duration<double>(last_settle_ - start_).count();
  return result_;
}

}  // namespace

WindowResult RunWindow(Instance& inst, double seconds, uint64_t min_ops,
                       Tracer* tracer) {
  const double cpu_start = CpuSeconds();
  WindowResult updates;
  std::thread writer;
  // Joins the writer on every path out of this function.
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{writer};
  if (inst.writer_hz > 0.0) {
    writer = std::thread([&] {
      updates = Pump(inst, seconds, 0, tracer, Role::kWriter).Run();
    });
  }
  WindowResult result =
      Pump(inst, seconds, min_ops, tracer, Role::kReaders).Run();
  if (writer.joinable()) writer.join();
  result.updates = std::move(updates.updates);
  if (result.fatal.empty()) result.fatal = updates.fatal;
  result.cpu_s = CpuSeconds() - cpu_start;
  return result;
}

}  // namespace pbs::e2e
