#include "pbs/core/wire_session.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pbs/sync/sharded_session.h"

namespace pbs {

namespace {

// The blocking shell: one SessionEngine pumped over one ByteTransport.
// kWantRead receives exactly the bytes the engine needs to finish the
// frame in flight (header first, then payload), so the byte-for-byte
// read pattern — and therefore every transport-level failure mode — is
// identical to the historical hand-rolled drivers.
SessionResult DriveBlocking(SessionEngine* engine, ByteTransport& transport) {
  std::vector<uint8_t> buffer;
  for (;;) {
    switch (engine->Status()) {
      case SessionStatus::kWantWrite: {
        const size_t n = engine->outbound_size();
        if (!transport.Send(engine->outbound_data(), n)) {
          engine->FailTransport();
          break;
        }
        engine->ConsumeOutbound(n);
        break;
      }
      case SessionStatus::kWantRead: {
        const size_t need = engine->NeededBytes();
        buffer.resize(need);
        const int64_t remaining = engine->DeadlineRemainingMs();
        if (remaining < 0) {
          // No phase deadline: classic unbounded blocking read.
          if (!transport.Recv(buffer.data(), need)) {
            engine->FeedEof();
            break;
          }
        } else {
          if (remaining == 0) {
            engine->CheckDeadline();  // Fails with a phase diagnostic.
            break;
          }
          const RecvStatus status = transport.RecvTimed(
              buffer.data(), need, static_cast<int>(remaining));
          if (status == RecvStatus::kTimeout) {
            engine->CheckDeadline();
            break;
          }
          if (status == RecvStatus::kClosed) {
            engine->FeedEof();
            break;
          }
        }
        engine->Feed(buffer.data(), need);
        break;
      }
      case SessionStatus::kDone:
      case SessionStatus::kError:
        return engine->TakeResult();
    }
  }
}

}  // namespace

SessionResult RunInitiatorSession(ByteTransport& transport,
                                  const SessionConfig& config,
                                  const std::vector<uint64_t>& elements) {
  SessionEngine engine = SessionEngine::Initiator(config, elements);
  return DriveBlocking(&engine, transport);
}

SessionResult RunResponderSession(ByteTransport& transport,
                                  const std::vector<uint64_t>& elements) {
  SessionEngine engine = SessionEngine::Responder(elements);
  return DriveBlocking(&engine, transport);
}

SessionResult RunUpdateSession(ByteTransport& transport,
                               const std::vector<UpdateBatch>& batches) {
  SessionEngine engine = SessionEngine::Updater(batches);
  return DriveBlocking(&engine, transport);
}

SessionResult RunResilientInitiatorSession(
    const TransportFactory& factory, const SessionConfig& config,
    const std::vector<uint64_t>& elements, const ResilientOptions& options,
    ResilienceReport* report) {
  ResilienceReport local;
  ResilienceReport& rep = report != nullptr ? *report : local;
  rep = ResilienceReport();
  // One shared copy of the set across every attempt: re-attempts (and
  // especially resumes) must reconcile exactly the same elements.
  const auto shared =
      std::make_shared<const std::vector<uint64_t>>(elements);
  RetryBackoff backoff(options.retry);
  SessionConfig attempt_config = config;
  std::shared_ptr<const sync::ShardResumeState> resume;
  SessionResult last;
  last.ok = false;
  last.error = "no attempts made";
  const int max_attempts =
      options.retry.max_attempts < 1 ? 1 : options.retry.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    ++rep.connect_attempts;
    std::string connect_error;
    std::unique_ptr<ByteTransport> transport = factory(&connect_error);
    if (transport == nullptr) {
      last = SessionResult();
      last.ok = false;
      last.error =
          connect_error.empty() ? "connect failed" : std::move(connect_error);
    } else {
      attempt_config.resume = resume;
      SessionEngine engine = SessionEngine::Initiator(attempt_config, shared);
      ++rep.sessions_run;
      if (resume != nullptr) {
        ++rep.resumed_sessions;
        rep.used_resume = true;
      }
      last = DriveBlocking(&engine, *transport);
      rep.last_wire_bytes = last.outcome.wire_bytes;
      rep.total_wire_bytes += last.outcome.wire_bytes;
      if (last.ok) return last;
      if (last.error.find(sync::kStaleResumeError) != std::string::npos) {
        // The responder's set changed: the banked shard outcomes are
        // worthless. Drop the token and restart clean.
        rep.stale_resume = true;
        resume = nullptr;
        backoff.Reset();
      } else if (options.allow_resume && last.resume_state != nullptr) {
        resume = last.resume_state;
      }
    }
    if (attempt == max_attempts) break;
    const int delay = backoff.NextDelayMs();
    if (options.log) {
      options.log("session attempt " + std::to_string(attempt) + " failed (" +
                  last.error + "); " +
                  (resume != nullptr ? "resuming" : "restarting") + " in " +
                  std::to_string(delay) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
  return last;
}

SessionResult RunLoopbackSession(const SessionConfig& config,
                                 const std::vector<uint64_t>& a,
                                 const std::vector<uint64_t>& b) {
  SessionEngine initiator = SessionEngine::Initiator(config, a);
  SessionEngine responder = SessionEngine::Responder(b);
  // Single-threaded pump: move whichever side's outbound bytes exist into
  // the other side until neither makes progress. The strict ping-pong
  // protocol guarantees that a healthy session always has exactly one
  // side with pending output; both sides idle means both settled (or one
  // failed before producing its next frame, e.g. a config error).
  uint8_t chunk[4096];
  bool progress = true;
  while (progress) {
    progress = false;
    while (initiator.Status() == SessionStatus::kWantWrite) {
      const size_t n = initiator.Poll(chunk, sizeof(chunk));
      responder.Feed(chunk, n);
      progress = true;
    }
    while (responder.Status() == SessionStatus::kWantWrite) {
      const size_t n = responder.Poll(chunk, sizeof(chunk));
      initiator.Feed(chunk, n);
      progress = true;
    }
  }
  if (initiator.Status() == SessionStatus::kWantRead) initiator.FeedEof();
  return initiator.TakeResult();
}

}  // namespace pbs
