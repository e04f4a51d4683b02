// Concurrent-session bench: thousands of clients reconcile against ONE
// server process (net/ReconcileServer — N event-loop shards, one sans-I/O
// SessionEngine per connection).
//
// Two stages:
//  * parity — for every registered scheme, 32 concurrent sessions against
//    a --shards 1 server must recover a difference BYTE-IDENTICAL to the
//    blocking drivers (RunInitiatorSession / RunResponderSession over a
//    dedicated transport) run with the same config, elements, and seed;
//  * throughput — 1,000 then 10,000 mixed-scheme sessions against a
//    sharded server, driven by a single-threaded async client pump (a
//    thread per client would need 10k stacks; an EventLoop needs 10k
//    fds). Reports wall clock, sessions/s, and p50/p99 session latency
//    (connect initiation -> session settled).
//
// The pump opens connections through a rolling window: `window` sessions
// concurrently open (bounded by the process fd limit — each session costs
// two fds in-process, client end + server end), at most 512 connects in
// flight at once so a storm never outruns the listener backlog.
//
// Env knobs: PBS_BENCH_SESSIONS=N runs one throughput stage of N sessions
// instead of the 1k/10k pair; PBS_BENCH_SHARDS=N sets the server shard
// count (default 4); PBS_BENCH_FULL=1 scales the parity stage to 128
// clients over 100k-element sets. The threads column is always 1 (a
// session runs on one thread); it stays so rows key-match older records.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.h"
#include "pbs/core/session_engine.h"
#include "pbs/core/transport.h"
#include "pbs/core/wire_session.h"
#include "pbs/net/event_loop.h"
#include "pbs/net/reconcile_server.h"
#include "pbs/sim/workload.h"

namespace {

using Clock = std::chrono::steady_clock;
using pbs::SessionConfig;
using pbs::SessionEngine;
using pbs::SessionResult;

// The blocking-driver reference: same config, same sets, dedicated
// loopback transport pair, one thread per side.
SessionResult BlockingReference(const SessionConfig& config,
                                const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  auto transports = pbs::MakeLoopbackTransportPair();
  std::unique_ptr<pbs::ByteTransport> initiator_end =
      std::move(transports.first);
  std::unique_ptr<pbs::ByteTransport> responder_end =
      std::move(transports.second);
  std::thread responder([transport = std::move(responder_end), &b]() mutable {
    pbs::RunResponderSession(*transport, b);
  });
  SessionResult result = pbs::RunInitiatorSession(*initiator_end, config, a);
  initiator_end.reset();
  responder.join();
  return result;
}

SessionConfig ConfigFor(const std::string& scheme, size_t client,
                        double exact_d) {
  SessionConfig config;
  config.scheme_name = scheme;
  config.options.pbs.max_rounds = 8;
  config.options.pbs.target_rounds = 3;
  config.seed = 0xBE9C + static_cast<uint64_t>(client) * 0x9E37;
  config.exact_d = exact_d;
  return config;
}

// ------------------------------------------------------- async client pump --

// All `count` initiator sessions pumped from this one thread through a
// pbs::EventLoop: nonblocking connect, then Feed/Poll per readiness.
struct PumpOutcome {
  std::vector<SessionResult> results;  // One per session, in launch order.
  std::vector<double> latency_ms;     // connect() -> settled, per session.
  double wall_ms = 0.0;
  size_t failures = 0;       // Connect/transport/protocol failures (!ok).
  size_t decode_misses = 0;  // Protocol ok, but the scheme failed to
                             // recover the difference — expected at a low
                             // rate for the probabilistic schemes.
};

class ClientPump {
 public:
  ClientPump(uint16_t port, size_t count, size_t window,
             std::function<SessionConfig(size_t)> config_for,
             SessionEngine::SharedElements elements)
      : port_(port),
        count_(count),
        window_(std::min(window, count)),
        config_for_(std::move(config_for)),
        elements_(std::move(elements)) {
    clients_.resize(count);
  }

  PumpOutcome Run() {
    PumpOutcome out;
    out.results.resize(count_);
    out.latency_ms.resize(count_, 0.0);
    const auto start = Clock::now();
    auto last_progress = start;
    while (done_ < count_) {
      while (next_ < count_ && open_ < window_ &&
             connecting_ < kConnectWindow) {
        Launch(next_++);
      }
      const size_t done_before = done_;
      const int ready = loop_.Wait(1000);
      for (int i = 0; i < ready; ++i) {
        const pbs::EventLoop::Event event = loop_.events()[i];
        Service(static_cast<size_t>(event.tag), event.ready);
      }
      const auto now = Clock::now();
      if (done_ > done_before) {
        last_progress = now;
      } else if (now - last_progress > std::chrono::seconds(60)) {
        // Stalled: fail every unfinished session instead of hanging the
        // bench forever.
        for (size_t i = 0; i < count_; ++i) {
          if (clients_[i].fd >= 0) Abort(i, "client pump stalled");
          if (i >= next_) {
            clients_[i].failed = true;
            clients_[i].error = "never launched (pump stalled)";
          }
        }
        done_ = count_;
        next_ = count_;
        break;
      }
    }
    out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            start)
                      .count();
    for (size_t i = 0; i < count_; ++i) {
      Client& c = clients_[i];
      out.results[i] = std::move(c.result);
      if (c.failed && out.results[i].error.empty()) {
        out.results[i].ok = false;
        out.results[i].error = c.error;
      }
      out.latency_ms[i] =
          std::chrono::duration<double, std::milli>(c.end - c.start).count();
      if (!out.results[i].ok) {
        ++out.failures;
      } else if (!out.results[i].outcome.success) {
        ++out.decode_misses;
      }
    }
    return out;
  }

 private:
  static constexpr size_t kConnectWindow = 512;

  struct Client {
    int fd = -1;
    std::unique_ptr<SessionEngine> engine;
    uint32_t interest = 0;
    bool connecting = false;
    bool failed = false;
    std::string error;
    Clock::time_point start{};
    Clock::time_point end{};
    SessionResult result;
  };

  void Launch(size_t index) {
    Client& c = clients_[index];
    c.start = Clock::now();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Fail(index, "socket");
      return;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    c.fd = fd;
    ++open_;
    if (rc == 0) {
      OnConnected(index);
      return;
    }
    if (errno != EINPROGRESS) {
      Abort(index, std::string("connect: ") + std::strerror(errno));
      return;
    }
    c.connecting = true;
    ++connecting_;
    c.interest = pbs::EventLoop::kWrite;
    if (!loop_.Add(fd, c.interest, index)) {
      --connecting_;
      c.connecting = false;
      Abort(index, "event loop add failed");
    }
  }

  void OnConnected(size_t index) {
    Client& c = clients_[index];
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    c.engine = std::make_unique<SessionEngine>(
        SessionEngine::Initiator(config_for_(index), elements_));
    if (c.interest == 0) {
      // Fresh fd (connect completed synchronously): register it now.
      c.interest = pbs::EventLoop::kRead | pbs::EventLoop::kWrite;
      if (!loop_.Add(c.fd, c.interest, index)) {
        Abort(index, "event loop add failed");
        return;
      }
    }
    Drive(index);
  }

  void Service(size_t index, uint32_t ready) {
    Client& c = clients_[index];
    if (c.fd < 0) return;
    if (c.connecting) {
      c.connecting = false;
      --connecting_;
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        Abort(index, std::string("connect: ") + std::strerror(err));
        return;
      }
      OnConnected(index);
      return;
    }
    if ((ready & (pbs::EventLoop::kRead | pbs::EventLoop::kHangup)) != 0) {
      while (true) {
        const ssize_t n =
            ::recv(c.fd, read_buffer_, sizeof(read_buffer_), MSG_DONTWAIT);
        if (n > 0) {
          c.engine->Feed(read_buffer_, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) {
          c.engine->FeedEof();
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        c.engine->FeedEof();  // Hard read error == peer gone.
        break;
      }
    }
    Drive(index);
  }

  // Flushes pending outbound bytes, retires the session if settled, and
  // keeps the loop's interest set in sync with what the engine needs.
  void Drive(size_t index) {
    Client& c = clients_[index];
    while (c.engine->outbound_size() > 0) {
      const ssize_t n = ::send(c.fd, c.engine->outbound_data(),
                               c.engine->outbound_size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.engine->ConsumeOutbound(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c.engine->FailTransport();
      break;
    }
    const pbs::SessionStatus status = c.engine->Status();
    if ((status == pbs::SessionStatus::kDone ||
         status == pbs::SessionStatus::kError) &&
        c.engine->outbound_size() == 0) {
      c.result = c.engine->TakeResult();
      Finish(index, /*failed=*/false, "");
      return;
    }
    const uint32_t wanted =
        pbs::EventLoop::kRead |
        (c.engine->outbound_size() > 0 ? pbs::EventLoop::kWrite : 0u);
    if (wanted != c.interest) {
      c.interest = wanted;
      loop_.Modify(c.fd, wanted, index);
    }
  }

  // A session that failed before its engine could produce a result.
  void Abort(size_t index, const std::string& error) {
    Finish(index, /*failed=*/true, error);
  }

  void Fail(size_t index, const std::string& error) {
    Client& c = clients_[index];
    c.failed = true;
    c.error = error;
    c.end = Clock::now();
    ++done_;
  }

  void Finish(size_t index, bool failed, const std::string& error) {
    Client& c = clients_[index];
    if (c.interest != 0 || c.connecting) loop_.Remove(c.fd);
    if (c.connecting) {
      c.connecting = false;
      --connecting_;
    }
    ::close(c.fd);
    c.fd = -1;
    c.engine.reset();
    c.failed = failed;
    c.error = error;
    c.end = Clock::now();
    --open_;
    ++done_;
  }

  const uint16_t port_;
  const size_t count_;
  const size_t window_;
  const std::function<SessionConfig(size_t)> config_for_;
  const SessionEngine::SharedElements elements_;
  pbs::EventLoop loop_;
  std::vector<Client> clients_;
  size_t next_ = 0;
  size_t open_ = 0;
  size_t connecting_ = 0;
  size_t done_ = 0;
  uint8_t read_buffer_[64 * 1024];
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      std::min(values.size() - 1.0, p * (values.size() - 1) / 100.0 + 0.5));
  return values[index];
}

std::string Format1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

int main() {
  const bool full = pbs::bench::FullMode();
  const char* shards_env = std::getenv("PBS_BENCH_SHARDS");
  const int shards =
      shards_env != nullptr ? std::max(1, std::atoi(shards_env)) : 4;

  pbs::bench::Recorder table(
      "concurrent_sessions",
      {"scheme", "sessions", "window", "shards", "threads", "wall_ms",
       "sessions_per_s", "p50_ms", "p99_ms", "wire_B_per_session", "parity"});

  // ---- Stage 1: per-scheme parity against the blocking drivers --------
  const int parity_clients = full ? 128 : 32;
  const size_t common = full ? 100000 : 20000;
  const pbs::SetPair pair = pbs::GenerateTwoSidedPair(common, 40, 60, 32, 7);
  const double exact_d = static_cast<double>(pair.truth_diff.size());
  auto shared_a =
      std::make_shared<const std::vector<uint64_t>>(pair.a);

  std::printf("== concurrent sessions: async clients vs one server ==\n");
  std::printf("mode=%s parity: %d clients/scheme |A|=%zu d=%zu\n\n",
              full ? "FULL" : "quick", parity_clients, pair.a.size(),
              pair.truth_diff.size());

  bool all_parity = true;
  for (const std::string& scheme : pbs::SchemeRegistry::Instance().Names()) {
    pbs::ServerOptions options;
    options.shards = 1;  // Parity leg: the classic single-loop server.
    options.max_sessions = parity_clients;
    options.idle_timeout_ms = 120000;
    std::string error;
    auto server = pbs::ReconcileServer::Create(options, pair.b, &error);
    if (!server) {
      std::fprintf(stderr, "server: %s\n", error.c_str());
      return 1;
    }
    std::thread serving([&server] { server->Run(); });

    ClientPump pump(
        server->port(), static_cast<size_t>(parity_clients),
        static_cast<size_t>(parity_clients),
        [&](size_t i) { return ConfigFor(scheme, i, exact_d); }, shared_a);
    PumpOutcome outcome = pump.Run();
    server->Stop();
    serving.join();

    // Parity pass: every concurrent session vs its blocking-driver twin.
    bool parity = outcome.failures == 0;
    size_t wire_bytes = 0;
    for (int i = 0; i < parity_clients && parity; ++i) {
      const SessionResult& got = outcome.results[static_cast<size_t>(i)];
      const SessionResult reference =
          BlockingReference(ConfigFor(scheme, static_cast<size_t>(i),
                                      exact_d),
                            pair.a, pair.b);
      parity = got.ok == reference.ok &&
               got.outcome.success == reference.outcome.success &&
               got.outcome.rounds == reference.outcome.rounds &&
               got.outcome.difference == reference.outcome.difference &&
               got.outcome.wire_bytes == reference.outcome.wire_bytes &&
               got.outcome.wire_frames == reference.outcome.wire_frames;
      wire_bytes += got.outcome.wire_bytes;
    }
    all_parity = all_parity && parity;

    table.AddRow(
        {scheme, std::to_string(parity_clients),
         std::to_string(parity_clients), "1", "1",
         Format1(outcome.wall_ms),
         Format1(parity_clients / (outcome.wall_ms / 1000.0)),
         Format1(Percentile(outcome.latency_ms, 50)),
         Format1(Percentile(outcome.latency_ms, 99)),
         std::to_string(wire_bytes /
                        static_cast<size_t>(parity ? parity_clients : 1)),
         parity ? "yes" : "NO"});
  }

  // ---- Stage 2: mixed-scheme throughput on the sharded server ---------
  // Small per-session sets (the bench measures the server's session
  // machinery, not decode kernels) so a 10k-session storm finishes in
  // seconds.
  const pbs::SetPair small = pbs::GenerateTwoSidedPair(1000, 10, 10, 32, 11);
  const double small_d = static_cast<double>(small.truth_diff.size());
  auto shared_small_a =
      std::make_shared<const std::vector<uint64_t>>(small.a);
  const std::vector<std::string> schemes =
      pbs::SchemeRegistry::Instance().Names();

  std::vector<size_t> stages = {1000, 10000};
  const char* sessions_env = std::getenv("PBS_BENCH_SESSIONS");
  if (sessions_env != nullptr) {
    stages = {static_cast<size_t>(
        std::max(1L, std::strtol(sessions_env, nullptr, 10)))};
  }

  std::printf("\nthroughput: mixed schemes, |B|=%zu d=%zu shards=%d\n\n",
              small.b.size(), small.truth_diff.size(), shards);

  bool all_ok = true;
  for (const size_t sessions : stages) {
    // Each in-process session pair costs two fds; stay well under the
    // 20k-ish default RLIMIT_NOFILE.
    const size_t window = std::min<size_t>(sessions, 8192);
    pbs::ServerOptions options;
    options.shards = shards;
    options.max_sessions = static_cast<int>(window) + 64;
    options.idle_timeout_ms = 120000;
    std::string error;
    auto server = pbs::ReconcileServer::Create(options, small.b, &error);
    if (!server) {
      std::fprintf(stderr, "server: %s\n", error.c_str());
      return 1;
    }
    std::thread serving([&server] { server->Run(); });

    ClientPump pump(
        server->port(), sessions, window,
        [&](size_t i) {
          return ConfigFor(schemes[i % schemes.size()], i, small_d);
        },
        shared_small_a);
    PumpOutcome outcome = pump.Run();
    server->Stop();
    serving.join();

    size_t wire_bytes = 0;
    for (const SessionResult& r : outcome.results) {
      wire_bytes += r.outcome.wire_bytes;
    }
    const bool ok = outcome.failures == 0;
    all_ok = all_ok && ok;
    if (outcome.decode_misses > 0) {
      std::printf("note: %zu/%zu sessions decoded unsuccessfully "
                  "(probabilistic schemes; protocol completed)\n",
                  outcome.decode_misses, sessions);
    }
    if (!ok) {
      std::map<std::string, size_t> failed_by_scheme;
      const char* example = nullptr;
      for (size_t i = 0; i < outcome.results.size(); ++i) {
        const SessionResult& r = outcome.results[i];
        if (r.ok) continue;
        ++failed_by_scheme[schemes[i % schemes.size()]];
        if (example == nullptr && !r.error.empty()) example = r.error.c_str();
      }
      for (const auto& [scheme, n] : failed_by_scheme) {
        std::fprintf(stderr, "failed: %zu x %s\n", n, scheme.c_str());
      }
      if (example != nullptr) std::fprintf(stderr, "example: %s\n", example);
    }
    table.AddRow(
        {"mixed", std::to_string(sessions), std::to_string(window),
         std::to_string(server->shard_count()), "1",
         Format1(outcome.wall_ms),
         Format1(sessions / (outcome.wall_ms / 1000.0)),
         Format1(Percentile(outcome.latency_ms, 50)),
         Format1(Percentile(outcome.latency_ms, 99)),
         std::to_string(wire_bytes / sessions), ok ? "yes" : "NO"});
  }

  table.Print();
  if (!all_parity) {
    std::fprintf(stderr,
                 "FAIL: a concurrent session diverged from the blocking "
                 "drivers\n");
    return 1;
  }
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a throughput-stage session failed\n");
    return 1;
  }
  std::printf("\nall sessions byte-identical to the blocking drivers\n");
  return 0;
}
