// Resume state of keyspace-sharded sessions.
//
// A sharded session (SessionConfig::keyspace_shards >= 2) reconciles only
// the shards the Merkle pre-filter names as differing, each as a
// pipelined sub-session over the one connection (the two SessionEngine
// roles in sync/sharded_session.cc; docs/ARCHITECTURE.md section 7,
// docs/WIRE_FORMAT.md sections 2.5-2.6). When such a session fails after
// the shard plan was agreed, the initiator's result carries the
// ShardResumeState below, so a reconnecting client finishes only the
// unsettled shards.

#ifndef PBS_SYNC_SHARDED_SESSION_H_
#define PBS_SYNC_SHARDED_SESSION_H_

#include <cstdint>
#include <vector>

namespace pbs::sync {

/// The failure cause of a RESUME whose token no longer matches the
/// responder's set (its Merkle root changed between attempts). Both sides
/// report it verbatim, so a driver recognizes it by this text and falls
/// back to a fresh session.
inline constexpr char kStaleResumeError[] =
    "stale resume: responder set changed";

/// Everything a reconnecting initiator needs to finish an interrupted
/// sharded session. Left in SessionResult::resume_state by the failing
/// sharded initiator, carried across the reconnect by the resilient
/// driver, and handed back via SessionConfig::resume. The settled_* fields
/// keep the work already banked (differences recovered, accounting) on the
/// client; only `pending` travels to the responder inside the RESUME frame.
struct ShardResumeState {
  /// The negotiated (post-clamp) shard count of the interrupted session.
  int shard_count = 0;
  /// The responder's Merkle root from SHARD_PLAN_ACK / RESUME_ACK. The
  /// responder re-validates it on resume: a mismatch means its set
  /// changed between attempts and the resume is stale.
  uint64_t remote_root = 0;
  /// The per-shard first-attempt bound the interrupted session used.
  double initial_d = 1.0;
  /// Pre-filter / ladder accounting carried into the final summary.
  int identical_shards = 0;
  int retries = 0;
  int degraded = 0;

  /// One unsettled shard: where its retry/degradation ladder stood.
  struct Pending {
    uint32_t shard = 0;
    uint8_t attempt = 0;        ///< Last attempt number used (>= 1).
    uint8_t degrade_level = 0;  ///< 0 = primary scheme; >0 = fallback index.
    double d_attempt = 1.0;     ///< The bound that attempt ran with.
  };
  std::vector<Pending> pending;  ///< Ascending shard id.

  /// Work already settled before the disconnect, kept client-side.
  std::vector<uint64_t> settled_difference;
  uint64_t settled_data_bytes = 0;
  int settled_rounds = 0;
  double settled_encode_seconds = 0.0;
  double settled_decode_seconds = 0.0;
  int settled_count = 0;  ///< Differing shards that completed.
};

}  // namespace pbs::sync

#endif  // PBS_SYNC_SHARDED_SESSION_H_
