// Internal to the session layer (not installed): the role interface that
// SessionEngine's frame core dispatches to, and the wire helpers its roles
// share. core/session_engine.cc holds the monolithic initiator, the
// updater and the monolithic, update and first-frame responders;
// sync/sharded_session.cc holds the two sharded roles.

#ifndef PBS_CORE_SESSION_ROLE_H_
#define PBS_CORE_SESSION_ROLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "pbs/core/session_engine.h"

namespace pbs {

// ------------------------------------------------- little-endian helpers --

inline void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

inline void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int b = 0; b < 8; ++b) {
    out->push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<uint32_t>(p[b]) << (8 * b);
  return v;
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
  return v;
}

inline uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// ------------------------------------------------------- shared codecs --

/// HELLO payload (docs/WIRE_FORMAT.md section 2.1); SHARD_PLAN and RESUME
/// embed it verbatim.
std::vector<uint8_t> EncodeHello(const SessionConfig& config);

/// Overwrites every wire-carried field of *config; side-local knobs
/// (keyspace_shards, deadlines) keep their values. False
/// on a truncated payload or an out-of-range field.
bool DecodeHello(const std::vector<uint8_t>& payload, SessionConfig* config);

/// DONE summary: success flag, rounds, recovered-difference cardinality.
std::vector<uint8_t> EncodeDone(const ReconcileOutcome& outcome);

/// Reads a DONE summary; false on a truncated payload. The cardinality is
/// informational and not returned.
bool DecodeDone(const std::vector<uint8_t>& payload, bool* success,
                int* rounds);

inline std::string UnknownScheme(const std::string& name) {
  return "unknown scheme '" + name + "'";
}

/// What a responder was built with; the peer's first frame hands it to
/// the role that frame selects.
struct ServeContext {
  SessionConfig config;  ///< Side-local defaults; the HELLO fills the rest.
  SessionEngine::SharedElements elements;
  std::shared_ptr<const StoreSnapshot> snapshot;
  std::shared_ptr<MutableElementStore> store;
  const SchemeRegistry* registry = nullptr;  ///< Resolved; never null.
};

// ------------------------------------------------------------- roles --

/// One kind of session on top of the SessionEngine frame core. The core
/// owns the bytes, the accounting, the deadline clock and the terminal
/// state; a role owns only its protocol state, and reaches the core
/// through the static helpers below (SessionEngine befriends this base).
/// Roles never hold on to the core: every call passes it, so engines stay
/// movable.
class SessionRole {
 public:
  SessionRole() = default;
  SessionRole(const SessionRole&) = delete;
  SessionRole& operator=(const SessionRole&) = delete;
  virtual ~SessionRole() = default;

  /// Handles one complete inbound frame. kError frames never get here:
  /// the core turns them into a failure itself.
  virtual void OnFrame(SessionEngine& core, const wire::WireFrame& frame) = 0;

  /// Runs once per Feed() after the core consumed every complete frame,
  /// while the session still runs (the sharded roles process the
  /// sub-session records batched in that pass).
  virtual void OnDrained(SessionEngine& /*core*/) {}

  /// The session is failing; the sharded initiator leaves a resume token.
  virtual void OnFail(SessionResult* /*result*/) const {}

  /// SessionEngine::phase_name() while the session runs.
  virtual const char* phase() const = 0;

  /// Responders tell the peer why they fail (an ERROR frame before a
  /// malformed envelope or a deadline drops the connection); initiators
  /// only report it in their result.
  virtual bool tells_peer() const { return false; }

  /// What the failure cause says before a peer ERROR's text.
  virtual const char* peer_error_prefix() const {
    return tells_peer() ? "initiator error: " : "responder error: ";
  }

 protected:
  static void Send(SessionEngine& core, wire::FrameType type, uint32_t round,
                   const uint8_t* payload, size_t size, const char* label);
  static void Send(SessionEngine& core, wire::FrameType type, uint32_t round,
                   const std::vector<uint8_t>& payload, const char* label) {
    Send(core, type, round, payload.data(), payload.size(), label);
  }
  static void Fail(SessionEngine& core, std::string error);
  /// Queues an ERROR frame telling the peer `message`, then fails.
  static void Reject(SessionEngine& core, const std::string& message) {
    Reject(core, message, message);
  }
  static void Reject(SessionEngine& core, const std::string& told_peer,
                     std::string error);
  static SessionResult& Result(SessionEngine& core);
  /// Names the session's scheme in the result and in every later header.
  static void SetScheme(SessionEngine& core, const std::string& name);
  /// Replaces the core's role, destroying the calling one.
  static void Install(SessionEngine& core, std::unique_ptr<SessionRole> role);

  // Protocol steps more than one role takes.

  /// Initiators: queues the DONE summary of Result(core).outcome.
  static void SendDone(SessionEngine& core, uint32_t round);
  /// Initiators: the peer's DONE echo settles the session.
  static void OnDoneAck(SessionEngine& core, const wire::WireFrame& frame);
  /// Initiators: queues the ToW ESTIMATE_REQUEST over `elements`. Both
  /// estimate steps add their payload sizes to *estimator_bytes.
  static void SendEstimateRequest(SessionEngine& core,
                                  const SessionConfig& config,
                                  const std::vector<uint64_t>& elements,
                                  size_t* estimator_bytes);
  /// Initiators: reads the ESTIMATE_REPLY into *d_hat (and the result), or
  /// fails the session and returns false.
  static bool ReadEstimateReply(SessionEngine& core,
                                const wire::WireFrame& frame, double* d_hat,
                                size_t* estimator_bytes);
  /// Responders: answers an ESTIMATE_REQUEST from the local set.
  static void ServeEstimate(SessionEngine& core, const wire::WireFrame& frame,
                            const SessionConfig& config,
                            const std::vector<uint64_t>& elements,
                            double* d_hat);
  /// Responders: echoes the initiator's DONE and settles.
  static void ServeDone(SessionEngine& core, const wire::WireFrame& frame,
                        double d_hat, int degraded_shards);
};

namespace sync {

/// The sharded initiator (SessionConfig::keyspace_shards >= 2, or a
/// resume token): queues SHARD_PLAN or RESUME and returns the role.
std::unique_ptr<SessionRole> StartShardedInitiator(
    SessionEngine& core, const SessionConfig& config,
    SessionEngine::SharedElements elements, const SchemeRegistry& registry);

/// The sharded responder, selected by a first SHARD_PLAN or RESUME frame:
/// answers it and returns the role, or rejects it and returns null.
std::unique_ptr<SessionRole> AcceptShardedSession(SessionEngine& core,
                                                  const wire::WireFrame& frame,
                                                  ServeContext& serve);

}  // namespace sync

}  // namespace pbs

#endif  // PBS_CORE_SESSION_ROLE_H_
