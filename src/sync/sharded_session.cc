// Keyspace-sharded sessions: the two SessionEngine roles that reconcile a
// set shard by shard over one connection.
//
// After the Merkle pre-filter (sync/merkle_prefilter.h) has named the
// shards whose digests disagree, each surviving shard reconciles as an
// independent sub-session: its own scheme engines under a shard-derived
// seed, its own outcome. Estimation is *conditional on the pre-filter*:
// when the diff bitmap names only a handful of shards, the initiator
// skips the ToW sketch exchange entirely (a small default bound plus the
// retry ladder is cheaper than shipping the sketch); otherwise one
// *global* estimate exchange runs -- the same ESTIMATE_REQUEST /
// ESTIMATE_REPLY frames as a monolithic session -- and the total is
// apportioned across the differing shards. A sub-session whose scheme
// decode fails is retried with a geometrically escalated difference bound
// (the per-attempt bound travels in the scheme-request prefix, and every
// scheme's responder sizes itself from request bytes), which bounds wasted
// bytes by a constant factor of the final successful attempt; a shard
// whose ladder runs out degrades to a fallback scheme.
//
// Sub-sessions ride inside kSubSession frames; each frame carries a
// *batch* of records (u16 shard, u8 inner type, u32 length, payload), so
// the 23-byte outer envelope amortizes across every shard that had
// traffic in the flush. Up to SessionConfig::shard_pipeline shards are in
// flight at once -- shard k+1's request overlaps shard k's decode.
//
// Batch model: inbound records are queued as they decode, and the whole
// batch is processed once per Feed() after the frame loop drained, in
// arrival order. Each record's reply is appended to one outbound batch,
// so a flush answers every shard that had traffic with a single
// SUB_SESSION frame, and the recovered difference is identical for every
// byte chunking.
//
// Wire layout: docs/WIRE_FORMAT.md sections 2.5-2.6; design:
// docs/ARCHITECTURE.md section 7.

#include "pbs/sync/sharded_session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session_role.h"
#include "pbs/sync/merkle_prefilter.h"
#include "pbs/sync/shard_planner.h"

namespace pbs::sync {
namespace {

using wire::FrameType;
using wire::WireFrame;
using SharedElements = SessionEngine::SharedElements;

// A failed sub-session attempt retries with its difference bound
// escalated by this factor: the wasted bytes of the whole ladder stay
// within a constant factor of the final successful attempt.
constexpr double kSubRetryGrowth = 4.0;
constexpr int kMaxSubAttempts = 6;
// When the pre-filter names at most this many differing shards, the
// global estimate exchange is skipped: a few retry-ladder escalations
// from kSkipInitialD cost less than a full-set ToW sketch on the wire.
constexpr size_t kEstimateSkipShards = 4;
constexpr double kSkipInitialD = 4.0;

// Per-shard scheme-request prefix: u8 attempt + f64 difference bound.
// When the attempt byte's top bit is set (graceful degradation), one
// scheme-id byte follows the attempt before the bound — clean sessions
// keep the classic 9-byte prefix bit-for-bit.
constexpr size_t kSubRequestPrefix = 9;
constexpr uint8_t kSubSchemeOverride = 0x80;
// Attempt counters share the byte with the override bit, so they are
// capped well below 0x80 (the ladders never get near this in practice).
constexpr uint8_t kMaxAttemptCounter = 120;

// Degradation ladder: when a shard's retry ladder exhausts under the
// primary scheme, it falls back to the first usable alternate from this
// list, then the next. Ordered by robustness under a wrong bound.
constexpr const char* kFallbackSchemes[] = {"graphene", "ddigest",
                                            "pinsketch"};

// The `level`-th (1-based) usable fallback for `primary`: registered,
// different from the primary, and with a nonzero wire id (the id is how
// the choice travels). Empty when the ladder is out of options.
std::string FallbackSchemeAt(const std::string& primary, int level,
                             const SchemeRegistry& reg) {
  int found = 0;
  for (const char* name : kFallbackSchemes) {
    if (primary == name) continue;
    if (!reg.Contains(name)) continue;
    if (wire::SchemeWireId(name) == 0) continue;
    if (++found == level) return name;
  }
  return std::string();
}

std::string ShardError(const char* what, uint32_t shard) {
  return std::string(what) + " (shard " + std::to_string(shard) + ")";
}

// Every per-shard bound lies in [1, kMaxDifferenceEstimate].
double ClampBound(double d) {
  return std::min(std::max(d, 1.0), kMaxDifferenceEstimate);
}

// ---------------------------------------------------------------- codecs --

// SHARD_PLAN payload: u16 proposed shard count (LE), u64 Merkle root of
// the initiator's per-shard digests (LE), then the HELLO payload verbatim
// (docs/WIRE_FORMAT.md section 2.5). SHARD_PLAN_ACK is the bare 10-byte
// header: the accepted count and the responder's root.
std::vector<uint8_t> EncodeShardPlan(int shards, uint64_t root,
                                     const std::vector<uint8_t>& hello = {}) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + hello.size());
  PutU16(static_cast<uint16_t>(shards), &payload);
  PutU64(root, &payload);
  payload.insert(payload.end(), hello.begin(), hello.end());
  return payload;
}

bool DecodeShardPlan(const std::vector<uint8_t>& payload, int* shards,
                     uint64_t* root, std::vector<uint8_t>* hello) {
  if (payload.size() < 10) return false;
  *shards = GetU16(payload.data());
  *root = GetU64(payload.data() + 2);
  hello->assign(payload.begin() + 10, payload.end());
  return true;
}

// RESUME payload: u16 negotiated shard count, u64 responder root the
// initiator saw before the disconnect, u16 pending count, pending count
// x (u16 shard, u8 last attempt) ascending, then the HELLO payload
// verbatim (docs/WIRE_FORMAT.md section 2.6). Only the ladder positions
// travel; settled differences stay banked on the client.
std::vector<uint8_t> EncodeResume(const ShardResumeState& token,
                                  const std::vector<uint8_t>& hello) {
  std::vector<uint8_t> payload;
  payload.reserve(12 + token.pending.size() * 3 + hello.size());
  PutU16(static_cast<uint16_t>(token.shard_count), &payload);
  PutU64(token.remote_root, &payload);
  PutU16(static_cast<uint16_t>(token.pending.size()), &payload);
  for (const auto& p : token.pending) {
    PutU16(static_cast<uint16_t>(p.shard), &payload);
    payload.push_back(p.attempt);
  }
  payload.insert(payload.end(), hello.begin(), hello.end());
  return payload;
}

bool DecodeResume(const std::vector<uint8_t>& payload, int* shards,
                  uint64_t* root,
                  std::vector<std::pair<uint32_t, uint8_t>>* entries,
                  std::vector<uint8_t>* hello) {
  if (payload.size() < 12) return false;
  *shards = GetU16(payload.data());
  *root = GetU64(payload.data() + 2);
  const size_t count = GetU16(payload.data() + 10);
  if (payload.size() < 12 + count * 3) return false;
  entries->clear();
  entries->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* p = payload.data() + 12 + i * 3;
    entries->emplace_back(GetU16(p), p[2]);
  }
  hello->assign(payload.begin() + 12 + count * 3, payload.end());
  return true;
}

// Resume tokens come from a prior session of this same binary, but the
// driver may hold them across reconnects; reject anything that could not
// have been produced by a sane initiator before trusting it with a wire
// frame.
bool ValidResumeToken(const ShardResumeState& token) {
  if (token.shard_count < kMinKeyspaceShards ||
      token.shard_count > kMaxKeyspaceShards) {
    return false;
  }
  if (token.pending.size() > static_cast<size_t>(token.shard_count)) {
    return false;
  }
  uint32_t prev = 0;
  bool first = true;
  for (const auto& p : token.pending) {
    if (p.shard >= static_cast<uint32_t>(token.shard_count)) return false;
    if (p.attempt > kMaxAttemptCounter) return false;
    if (!first && p.shard <= prev) return false;
    prev = p.shard;
    first = false;
  }
  return true;
}

// One decoded kSubSession record: shard id, inner frame type
// (wire::FrameType as a byte), and the inner payload bytes.
struct SubFrame {
  uint32_t shard = 0;
  uint8_t inner_type = 0;
  std::vector<uint8_t> payload;
};

// Appends one record to a kSubSession batch payload: u16 shard (LE), u8
// inner type, u32 payload length (LE), payload.
void AppendSubRecord(uint32_t shard, uint8_t inner_type,
                     const std::vector<uint8_t>& data,
                     std::vector<uint8_t>* out) {
  PutU16(static_cast<uint16_t>(shard), out);
  out->push_back(inner_type);
  PutU32(static_cast<uint32_t>(data.size()), out);
  out->insert(out->end(), data.begin(), data.end());
}

// False when a record header is truncated or a length overruns the
// buffer.
bool ParseSubRecords(const std::vector<uint8_t>& payload,
                     std::vector<SubFrame>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 7) return false;
    SubFrame frame;
    frame.shard = GetU16(payload.data() + pos);
    frame.inner_type = payload[pos + 2];
    const uint32_t len = GetU32(payload.data() + pos + 3);
    pos += 7;
    if (payload.size() - pos < len) return false;
    frame.payload.assign(payload.begin() + pos, payload.begin() + pos + len);
    pos += len;
    out->push_back(std::move(frame));
  }
  return true;
}

// -------------------------------------------------------- shared plumbing --

// One shard's sub-session, as both sides track it.
struct SubBase {
  uint32_t shard = 0;
  // The shard's slice of the local set, kept until the shard settles: a
  // retried attempt rebuilds its engine from the same slice.
  std::vector<uint64_t> elements;
  bool queued = false;       // An inbound record for this shard is queued.
  uint8_t pending_type = 0;  // Inner type to emit after Process (0 = none).
  std::vector<uint8_t> scratch;  // Outbound inner payload.
  std::string error;
};

// What both sharded roles share: the plan and its digest leaves, the
// per-shard sub-sessions in ascending shard order, and the batch model
// (file comment) -- Enqueue() as records decode, Drain() once per Feed.
template <typename Sub>
class ShardedRole : public SessionRole {
 protected:
  ShardedRole(SessionConfig config, SharedElements elements,
              const SchemeRegistry& registry,
              std::unique_ptr<SetReconciler> reconciler, int shards)
      : config_(std::move(config)),
        elements_(std::move(elements)),
        registry_(registry),
        reconciler_(std::move(reconciler)),
        plan_(ShardPlan::Derive(shards, config_.seed)) {}

  // Processes one queued record for `sub`.
  virtual void Process(Sub& sub, const SubFrame& frame) = 0;

  // The per-shard digest leaves for the current plan (an O(|set|) stream,
  // computed once per plan) and their Merkle root.
  const std::vector<uint64_t>& leaves() {
    if (!leaves_valid_) {
      leaves_ = ComputeShardLeaves(plan_, elements_->data(), elements_->size());
      leaves_valid_ = true;
    }
    return leaves_;
  }
  uint64_t root() { return MerkleRootOf(leaves()); }

  // Stages a sub-session for each id (ascending) over its slice of the
  // local set; only the selected shards' slices are copied.
  void Stage(const std::vector<uint32_t>& ids) {
    std::vector<std::vector<uint64_t>> parts;
    PartitionSelected(elements_->data(), elements_->size(), plan_, ids, &parts);
    subs_.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      auto sub = std::make_unique<Sub>();
      sub->shard = ids[i];
      sub->elements = std::move(parts[i]);
      subs_.push_back(std::move(sub));
    }
  }

  Sub* Find(uint32_t shard) {
    auto it = std::lower_bound(subs_.begin(), subs_.end(), shard,
                               [](const std::unique_ptr<Sub>& s, uint32_t id) {
                                 return s->shard < id;
                               });
    if (it == subs_.end() || (*it)->shard != shard) return nullptr;
    return it->get();
  }

  // Parses a SUB_SESSION frame and queues its records. `not_ready` names
  // why no record is acceptable yet (null once shards are staged).
  bool Enqueue(const WireFrame& frame, const char* not_ready,
               std::string* error) {
    if (frame.type != FrameType::kSubSession ||
        !ParseSubRecords(frame.payload, &records_) || records_.empty()) {
      *error = "malformed SUB_SESSION";
      return false;
    }
    for (SubFrame& record : records_) {
      if (not_ready != nullptr) {
        *error = not_ready;
        return false;
      }
      Sub* sub = Find(record.shard);
      if (sub == nullptr) {
        *error = ShardError("sub-session record for unknown shard",
                            record.shard);
        return false;
      }
      if (const char* why = sub->Inactive()) {
        *error = ShardError(why, record.shard);
        return false;
      }
      if (sub->queued) {
        *error = ShardError("overlapping sub-session records", record.shard);
        return false;
      }
      sub->queued = true;
      queue_.push_back(std::move(record));
    }
    return true;
  }

  // In arrival order, processes every queued record, runs visit(sub)
  // and appends the shard's pending record to batch_.
  template <typename Visit>
  bool Drain(Visit visit, std::string* error) {
    for (const SubFrame& record : queue_) {
      Sub& sub = *Find(record.shard);
      sub.queued = false;
      Process(sub, record);
      if (!sub.error.empty()) {
        *error = sub.error;
        queue_.clear();
        return false;
      }
      visit(sub);
      Emit(sub);
    }
    queue_.clear();
    return true;
  }

  void Emit(Sub& sub) {
    if (sub.pending_type == 0) return;
    AppendSubRecord(sub.shard, sub.pending_type, sub.scratch, &batch_);
    sub.pending_type = 0;
  }

  // Sends the flush's records as one SUB_SESSION frame: the envelope
  // amortizes across every shard with traffic this round.
  void SendBatch(SessionEngine& core, uint32_t round) {
    Send(core, FrameType::kSubSession, round, batch_,
         "sending sub-session batch");
    batch_.clear();
  }

  SessionConfig config_;
  SharedElements elements_;
  const SchemeRegistry& registry_;
  std::unique_ptr<SetReconciler> reconciler_;
  ShardPlan plan_;
  std::vector<uint64_t> leaves_;
  bool leaves_valid_ = false;
  std::vector<std::unique_ptr<Sub>> subs_;  // Ascending shard id.
  int degraded_ = 0;  // Shards that fell back to an alternate scheme.
  std::vector<uint8_t> batch_;  // Outbound records of the current flush.

 private:
  std::vector<SubFrame> records_;  // Parse target of the inbound frame.
  std::vector<SubFrame> queue_;
};

// -------------------------------------------------------------- initiator --

struct InitiatorSub : SubBase {
  enum Phase : uint8_t { kUnopened, kAwaitScheme, kAwaitDoneAck, kComplete };

  std::unique_ptr<ReconcileInitiator> engine;
  double d_attempt = 1.0;
  uint8_t attempt = 0;
  // First attempt of the current ladder: fresh shards start at 1; a
  // resumed or degraded shard restarts its retry budget here, so
  // (attempt - ladder_start + 1) attempts have run on this ladder.
  uint8_t ladder_start = 1;
  // Graceful degradation: 0 = primary scheme; >0 indexes the fallback
  // list. `alt` is the fallback reconciler, announced to the responder
  // via the override prefix (attempt | 0x80, then the scheme id).
  uint8_t degrade_level = 0;
  uint8_t scheme_wire_id = 0;
  std::unique_ptr<SetReconciler> alt;
  uint8_t phase = kUnopened;
  std::vector<uint8_t> raw;  // Engine request before prefixing.
  // Byte/time accounting accumulated across every attempt.
  uint64_t acc_data_bytes = 0;
  int acc_rounds = 0;
  double acc_encode = 0.0;
  double acc_decode = 0.0;
  ReconcileOutcome outcome;
  bool has_outcome = false;

  const char* Inactive() const {
    return phase == kUnopened || phase == kComplete
               ? "sub-session record for inactive shard"
               : nullptr;
  }

  int retries() const {
    return attempt > ladder_start ? attempt - ladder_start : 0;
  }

  // Queues `raw` behind the per-shard request prefix.
  void StageRequest() {
    scratch.clear();
    const bool degraded = scheme_wire_id != 0;
    scratch.push_back(degraded
                          ? static_cast<uint8_t>(attempt | kSubSchemeOverride)
                          : attempt);
    if (degraded) scratch.push_back(scheme_wire_id);
    PutU64(DoubleBits(d_attempt), &scratch);
    scratch.insert(scratch.end(), raw.begin(), raw.end());
    pending_type = static_cast<uint8_t>(FrameType::kSchemeRequest);
  }
};

// Initiator side: proposes the plan (or resumes one), runs the digest and
// optional estimate exchanges, opens sub-sessions `shard_pipeline` at a
// time, retries/degrades failed attempts, and aggregates the outcome.
class ShardedInitiator final : public ShardedRole<InitiatorSub> {
 public:
  static std::unique_ptr<SessionRole> Start(SessionEngine& core,
                                            const SessionConfig& config,
                                            SharedElements elements,
                                            const SchemeRegistry& registry) {
    auto reconciler = registry.Create(config.scheme_name, config.options);
    if (reconciler == nullptr) {
      Fail(core, UnknownScheme(config.scheme_name));
      return nullptr;
    }
    const ShardResumeState* token = config.resume.get();
    if (token != nullptr && !ValidResumeToken(*token)) {
      Fail(core, "invalid resume token");
      return nullptr;
    }
    // A resumed plan comes from the token: the interrupted session may
    // have been clamped by the responder.
    std::unique_ptr<ShardedInitiator> role(new ShardedInitiator(
        config, std::move(elements), registry, std::move(reconciler),
        token != nullptr ? token->shard_count : config.keyspace_shards));
    const std::vector<uint8_t> hello = EncodeHello(config);
    if (token == nullptr) {
      Send(core, FrameType::kShardPlan, 0,
           EncodeShardPlan(config.keyspace_shards, role->root(), hello),
           "sending SHARD_PLAN");
      return role;
    }
    std::string error;
    if (!role->Rebuild(*token, &error)) {
      Fail(core, std::move(error));
      return nullptr;
    }
    Send(core, FrameType::kResume, 0, EncodeResume(*token, hello),
         "sending RESUME");
    role->state_ = State::kAwaitResumeAck;
    return role;
  }

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    switch (state_) {
      case State::kAwaitShardPlanAck:
        OnShardPlanAck(core, frame);
        return;
      case State::kAwaitResumeAck:
        OnResumeAck(core, frame);
        return;
      case State::kAwaitDigestReply:
        OnDigestReply(core, frame);
        return;
      case State::kAwaitEstimateReply:
        if (ReadEstimateReply(core, frame, &d_hat_total_, &estimator_bytes_)) {
          // Mean apportioned share plus a one-sigma Poisson cushion; the
          // retry ladder covers shards whose slice clusters beyond it.
          const double mean =
              d_hat_total_ /
              static_cast<double>(std::max<size_t>(1, subs_.size()));
          initial_d_ = ClampBound(std::ceil(mean + std::sqrt(mean) + 1.0));
          ready_ = true;
          state_ = State::kRunning;
        }
        return;
      case State::kRunning: {
        std::string error;
        if (!Enqueue(frame, nullptr, &error)) Fail(core, std::move(error));
        return;
      }
      case State::kAwaitDoneAck:
        OnDoneAck(core, frame);
        return;
    }
  }

  // Opens, advances and settles sub-sessions once per Feed.
  void OnDrained(SessionEngine& core) override {
    if (state_ != State::kRunning) return;
    std::string error;
    const bool ok = Drain(
        [this](InitiatorSub& sub) {
          if (sub.phase == InitiatorSub::kComplete) {
            ++completed_;
            --open_;
          }
        },
        &error);
    if (!ok) {
      Fail(core, std::move(error));
      return;
    }
    while (open_ < static_cast<size_t>(config_.shard_pipeline) &&
           next_open_ < subs_.size()) {
      InitiatorSub& sub = *subs_[next_open_++];
      Open(sub);
      Emit(sub);
      ++open_;
    }
    if (!batch_.empty()) SendBatch(core, ++exchange_);
    if (completed_ == subs_.size()) Finish(core);
  }

  // A session that fails once its sub-sessions could open leaves a resume
  // token, so a reconnecting driver finishes only the unsettled shards (an
  // earlier failure restarts fresh: nothing is banked yet).
  void OnFail(SessionResult* result) const override {
    if (ready_) result->resume_state = MakeResumeState();
  }

  const char* phase() const override {
    switch (state_) {
      case State::kAwaitShardPlanAck: return "awaiting SHARD_PLAN_ACK";
      case State::kAwaitResumeAck: return "awaiting RESUME_ACK";
      case State::kAwaitDigestReply: return "awaiting digest reply";
      case State::kAwaitEstimateReply: return "awaiting estimate reply";
      case State::kRunning: return "running sub-sessions";
      case State::kAwaitDoneAck: return "awaiting DONE ack";
    }
    return "unknown";
  }

 private:
  enum class State {
    kAwaitShardPlanAck,
    kAwaitResumeAck,
    kAwaitDigestReply,
    kAwaitEstimateReply,
    kRunning,
    kAwaitDoneAck,
  };

  ShardedInitiator(const SessionConfig& config, SharedElements elements,
                   const SchemeRegistry& registry,
                   std::unique_ptr<SetReconciler> reconciler, int shards)
      : ShardedRole(config, std::move(elements), registry,
                    std::move(reconciler), shards) {}

  // Re-attaches to the session `token` describes: banks its settled work
  // and stages only its pending shards, each ladder where it stood.
  bool Rebuild(const ShardResumeState& token, std::string* error) {
    carried_ = token;
    carried_.pending.clear();
    resumed_ = true;
    remote_root_ = token.remote_root;
    initial_d_ = ClampBound(token.initial_d);
    identical_ = token.identical_shards;
    degraded_ = token.degraded;
    std::vector<uint32_t> ids;
    ids.reserve(token.pending.size());
    for (const auto& p : token.pending) ids.push_back(p.shard);
    Stage(ids);
    for (size_t i = 0; i < ids.size(); ++i) {
      const ShardResumeState::Pending& p = token.pending[i];
      InitiatorSub& sub = *subs_[i];
      sub.attempt = p.attempt;
      sub.d_attempt =
          std::isfinite(p.d_attempt) ? ClampBound(p.d_attempt) : initial_d_;
      if (p.degrade_level == 0) continue;
      // Rebuild the fallback reconciler the interrupted ladder reached.
      const std::string name =
          FallbackSchemeAt(config_.scheme_name, p.degrade_level, registry_);
      sub.degrade_level = p.degrade_level;
      sub.scheme_wire_id = wire::SchemeWireId(name);
      sub.alt = registry_.Create(name, config_.options);
      if (sub.alt == nullptr || sub.scheme_wire_id == 0) {
        *error = "resume token names an unavailable fallback scheme";
        return false;
      }
    }
    ready_ = true;
    return true;
  }

  void OnShardPlanAck(SessionEngine& core, const WireFrame& frame) {
    if (frame.type != FrameType::kShardPlanAck) {
      Fail(core, "expected SHARD_PLAN_ACK");
      return;
    }
    if (frame.payload.size() != 10) {
      Fail(core, "malformed SHARD_PLAN_ACK");
      return;
    }
    const int accepted = GetU16(frame.payload.data());
    remote_root_ = GetU64(frame.payload.data() + 2);  // For resume tokens.
    if (accepted != plan_.shard_count) {
      // The responder may clamp the proposal down, never up.
      if (accepted < kMinKeyspaceShards || accepted > plan_.shard_count) {
        Fail(core, "responder accepted shard count " +
                       std::to_string(accepted) + " outside [" +
                       std::to_string(kMinKeyspaceShards) + ", " +
                       std::to_string(plan_.shard_count) + "]");
        return;
      }
      plan_ = ShardPlan::Derive(accepted, config_.seed);
      leaves_valid_ = false;
    }
    if (root() == remote_root_) {
      // Equal roots certify every shard identical: settle right here, four
      // frames total, without ever shipping the digest leaves.
      SessionResult& result = Result(core);
      result.outcome.success = true;
      result.outcome.rounds = 0;
      char summary[64];
      std::snprintf(summary, sizeof(summary),
                    "shards=%d identical=%d differing=0", accepted, accepted);
      result.outcome.params_summary = summary;
      result.d_hat = 0.0;
      SendDone(core, exchange_);
      state_ = State::kAwaitDoneAck;
      return;
    }
    Send(core, FrameType::kDigestTree, 0, EncodeDigestLeaves(leaves()),
         "sending DIGEST_TREE");
    state_ = State::kAwaitDigestReply;
  }

  void OnResumeAck(SessionEngine& core, const WireFrame& frame) {
    if (frame.type != FrameType::kResumeAck) {
      Fail(core, "expected RESUME_ACK");
      return;
    }
    if (frame.payload.size() != 8) {
      Fail(core, "malformed RESUME_ACK");
      return;
    }
    if (GetU64(frame.payload.data()) != remote_root_) {
      // The responder accepted but reports a different root than the token
      // carries: its set changed under us. Same taxonomy as the
      // responder's own rejection so drivers fall back to a fresh session.
      Fail(core, kStaleResumeError);
      return;
    }
    // OnDrained reopens the pending sub-sessions -- or settles directly
    // when none were staged.
    state_ = State::kRunning;
  }

  // The DIGEST_REPLY diff bitmap names the differing shards: stage their
  // sub-sessions, then either open them or first run the estimate.
  void OnDigestReply(SessionEngine& core, const WireFrame& frame) {
    if (frame.type != FrameType::kDigestReply) {
      Fail(core, "expected DIGEST_REPLY");
      return;
    }
    const size_t shards = static_cast<size_t>(plan_.shard_count);
    if (frame.payload.size() != (shards + 7) / 8) {
      Fail(core, "malformed DIGEST_REPLY");
      return;
    }
    std::vector<uint8_t> differs;
    if (!DecodeDiffBitmap(frame.payload, shards, &differs)) {
      Fail(core, "malformed DIGEST_REPLY bitmap");
      return;
    }
    std::vector<uint32_t> ids;
    for (size_t k = 0; k < differs.size(); ++k) {
      if (differs[k] != 0) ids.push_back(static_cast<uint32_t>(k));
    }
    identical_ = plan_.shard_count - static_cast<int>(ids.size());
    Stage(ids);
    if (config_.exact_d >= 0.0) {
      // exact_d is documented as a valid per-shard upper bound.
      initial_d_ = ClampBound(config_.exact_d);
    } else if (ids.size() > kEstimateSkipShards) {
      // Enough shards differ that one global sketch beats blind retry
      // ladders: run the monolithic estimate exchange and apportion the
      // total. Sub-sessions stay parked until the reply.
      SendEstimateRequest(core, config_, *elements_, &estimator_bytes_);
      state_ = State::kAwaitEstimateReply;
      return;
    } else {
      // Few enough survivors that a sketch costs more than it saves:
      // start from a small default bound and let the ladder escalate.
      initial_d_ = kSkipInitialD;
    }
    // OnDrained opens the first `shard_pipeline` sub-sessions -- or settles
    // directly when the bitmap named no differing shard.
    ready_ = true;
    state_ = State::kRunning;
  }

  void Open(InitiatorSub& sub) {
    if (sub.attempt == 0) {
      sub.attempt = 1;
      sub.ladder_start = 1;
      sub.d_attempt = initial_d_;
    } else {
      // Resumed shard: the new connection needs a new attempt (the
      // responder rebuilds its engine), continuing at the carried bound.
      ++sub.attempt;
      sub.ladder_start = sub.attempt;
    }
    StartAttempt(sub);
  }

  void StartAttempt(InitiatorSub& sub) {
    SetReconciler* maker =
        sub.alt != nullptr ? sub.alt.get() : reconciler_.get();
    sub.engine = maker->CreateInitiator(sub.elements, sub.d_attempt,
                                        plan_.SubSeed(sub.shard));
    sub.engine->NextRequestInto(&sub.raw);
    sub.StageRequest();
    sub.phase = InitiatorSub::kAwaitScheme;
  }

  // Exhausted retry ladder: switch the shard to the next fallback scheme
  // (fresh retry budget, current bound) instead of failing the session.
  bool TryDegrade(InitiatorSub& sub) {
    if (sub.attempt >= kMaxAttemptCounter) return false;
    const std::string name =
        FallbackSchemeAt(config_.scheme_name, sub.degrade_level + 1, registry_);
    if (name.empty()) return false;
    auto alt = registry_.Create(name, config_.options);
    if (alt == nullptr) return false;
    if (sub.degrade_level == 0) {
      ++degraded_;
    }
    ++sub.degrade_level;
    sub.alt = std::move(alt);
    sub.scheme_wire_id = wire::SchemeWireId(name);
    ++sub.attempt;
    sub.ladder_start = sub.attempt;  // Fresh retry budget under the fallback.
    StartAttempt(sub);
    return true;
  }

  void Process(InitiatorSub& sub, const SubFrame& frame) override {
    switch (sub.phase) {
      case InitiatorSub::kAwaitScheme: {
        if (frame.inner_type != static_cast<uint8_t>(FrameType::kSchemeReply)) {
          sub.error = ShardError("unexpected sub-session reply", sub.shard);
          return;
        }
        if (!sub.engine->HandleReply(frame.payload)) {
          sub.error = ShardError("malformed sub-session reply", sub.shard);
          return;
        }
        if (!sub.engine->done()) {
          // Later rounds of the same attempt keep the prefix: the record
          // format stays uniform and the responder re-checks consistency.
          sub.engine->NextRequestInto(&sub.raw);
          sub.StageRequest();
          return;
        }
        ReconcileOutcome attempt_outcome = sub.engine->TakeOutcome();
        sub.engine.reset();
        sub.acc_data_bytes += attempt_outcome.data_bytes;
        sub.acc_rounds += attempt_outcome.rounds;
        sub.acc_encode += attempt_outcome.encode_seconds;
        sub.acc_decode += attempt_outcome.decode_seconds;
        if (!attempt_outcome.success) {
          if (sub.attempt - sub.ladder_start + 1 < kMaxSubAttempts &&
              sub.d_attempt < kMaxDifferenceEstimate &&
              sub.attempt < kMaxAttemptCounter) {
            // Escalate the bound and retry from scratch. Every scheme's
            // responder sizes itself from the request prefix, so the
            // remote engine follows without renegotiation.
            ++sub.attempt;
            sub.d_attempt = std::min(sub.d_attempt * kSubRetryGrowth,
                                     kMaxDifferenceEstimate);
            StartAttempt(sub);
            return;
          }
          // Ladder exhausted: degrade to a fallback scheme for this shard
          // instead of failing the whole session.
          if (TryDegrade(sub)) return;
        }
        sub.outcome = std::move(attempt_outcome);
        sub.outcome.data_bytes = sub.acc_data_bytes;
        sub.outcome.rounds = sub.acc_rounds;
        sub.outcome.encode_seconds = sub.acc_encode;
        sub.outcome.decode_seconds = sub.acc_decode;
        sub.has_outcome = true;
        sub.scratch = EncodeDone(sub.outcome);
        sub.pending_type = static_cast<uint8_t>(FrameType::kDone);
        sub.phase = InitiatorSub::kAwaitDoneAck;
        return;
      }
      case InitiatorSub::kAwaitDoneAck:
        if (frame.inner_type != static_cast<uint8_t>(FrameType::kDone)) {
          sub.error = ShardError("unexpected sub-session done ack", sub.shard);
          return;
        }
        sub.phase = InitiatorSub::kComplete;
        sub.elements = {};
        return;
      default:
        sub.error =
            ShardError("sub-session record for inactive shard", sub.shard);
    }
  }

  void Finish(SessionEngine& core) {
    SessionResult& result = Result(core);
    result.outcome = Outcome();
    result.outcome.estimator_bytes += estimator_bytes_;
    result.degraded_shards = degraded_;
    result.d_hat = total_d_hat();
    SendDone(core, ++exchange_);
    state_ = State::kAwaitDoneAck;
  }

  // The negotiated total difference bound: the global ToW estimate,
  // config.exact_d when estimation was pre-empted, or -- when the
  // pre-filter let the session skip estimation -- the sum of the final
  // per-shard attempt bounds.
  double total_d_hat() const {
    if (d_hat_total_ >= 0.0) return d_hat_total_;
    if (config_.exact_d >= 0.0) return config_.exact_d;
    double sum = 0.0;
    for (const auto& sub : subs_) sum += sub->d_attempt;
    return sum;
  }

  // The settled work plus each unsettled shard's ladder position.
  std::shared_ptr<ShardResumeState> MakeResumeState() const {
    auto token = std::make_shared<ShardResumeState>(carried_);
    token->shard_count = plan_.shard_count;
    token->remote_root = remote_root_;
    token->initial_d = initial_d_;
    token->identical_shards = identical_;
    token->degraded = degraded_;
    for (const auto& subp : subs_) {
      const InitiatorSub& sub = *subp;
      token->retries += sub.retries();
      if (sub.has_outcome && sub.outcome.success) {
        // Settled this connection (possibly still awaiting the sub DONE
        // ack — the responder already served the data; don't re-open).
        token->settled_difference.insert(token->settled_difference.end(),
                                         sub.outcome.difference.begin(),
                                         sub.outcome.difference.end());
        token->settled_data_bytes += sub.outcome.data_bytes;
        token->settled_rounds =
            std::max(token->settled_rounds, sub.outcome.rounds);
        token->settled_encode_seconds += sub.outcome.encode_seconds;
        token->settled_decode_seconds += sub.outcome.decode_seconds;
        ++token->settled_count;
        continue;
      }
      ShardResumeState::Pending p;
      p.shard = sub.shard;
      p.attempt = sub.attempt;  // 0 for never-opened shards.
      p.degrade_level = sub.degrade_level;
      p.d_attempt = sub.attempt == 0 ? initial_d_ : sub.d_attempt;
      token->pending.push_back(p);
    }
    return token;
  }

  // Aggregated outcome: differences concatenated in ascending shard order
  // (after any banked by a resume token), rounds = max over shards,
  // byte/time accounting summed. Copies the banked work: a failure while
  // awaiting the DONE ack still builds a resume token from carried_.
  ReconcileOutcome Outcome() const {
    ReconcileOutcome out;
    out.success = true;
    out.rounds = carried_.settled_rounds;
    out.difference = carried_.settled_difference;
    out.data_bytes = carried_.settled_data_bytes;
    out.encode_seconds = carried_.settled_encode_seconds;
    out.decode_seconds = carried_.settled_decode_seconds;
    int retries = carried_.retries;
    for (const auto& subp : subs_) {
      const InitiatorSub& sub = *subp;
      retries += sub.retries();
      if (!sub.has_outcome) {
        out.success = false;
        continue;
      }
      out.success = out.success && sub.outcome.success;
      out.rounds = std::max(out.rounds, sub.outcome.rounds);
      out.difference.insert(out.difference.end(),
                            sub.outcome.difference.begin(),
                            sub.outcome.difference.end());
      out.data_bytes += sub.outcome.data_bytes;
      out.estimator_bytes += sub.outcome.estimator_bytes;
      out.encode_seconds += sub.outcome.encode_seconds;
      out.decode_seconds += sub.outcome.decode_seconds;
    }
    const size_t differing =
        subs_.size() + static_cast<size_t>(carried_.settled_count);
    char summary[112];
    std::snprintf(summary, sizeof(summary),
                  "shards=%d identical=%d differing=%zu pipeline=%d retries=%d",
                  plan_.shard_count, identical_, differing,
                  config_.shard_pipeline, retries);
    out.params_summary = summary;
    // Appended only when they happened, so clean sessions keep the classic
    // summary (and the pr9 byte-exact bench gate) untouched.
    const int degraded = degraded_;
    if (degraded > 0) {
      out.params_summary += " degraded=" + std::to_string(degraded);
    }
    if (resumed_) {
      out.params_summary +=
          " resumed=" + std::to_string(carried_.settled_count);
    }
    return out;
  }

  State state_ = State::kAwaitShardPlanAck;
  uint64_t remote_root_ = 0;  // Responder root; resume tokens carry it.
  uint32_t exchange_ = 0;
  size_t estimator_bytes_ = 0;
  bool ready_ = false;         // Plan agreed and sub-sessions may open.
  double d_hat_total_ = -1.0;  // Global estimate; -1 = exact_d / skipped.
  double initial_d_ = 1.0;     // Per-shard first-attempt bound.
  int identical_ = 0;
  size_t completed_ = 0;
  size_t open_ = 0;
  size_t next_open_ = 0;
  // Work banked by a resume token (pending cleared; empty when fresh).
  bool resumed_ = false;
  ShardResumeState carried_;
};

// -------------------------------------------------------------- responder --

struct ResponderSub : SubBase {
  std::unique_ptr<ReconcileResponder> engine;
  uint8_t attempt = 0;
  // Graceful degradation: the fallback reconciler announced by the
  // initiator's override prefix (0 = still on the primary scheme).
  std::unique_ptr<SetReconciler> alt;
  uint8_t alt_wire_id = 0;
  bool complete = false;

  const char* Inactive() const {
    return complete ? "sub-session record for settled shard" : nullptr;
  }
};

// Responder side, installed by SHARD_PLAN or RESUME: answers the digest
// and estimate exchanges and demultiplexes sub-session records to
// per-shard responder engines.
class ShardedResponder final : public ShardedRole<ResponderSub> {
 public:
  // The prelude SHARD_PLAN and RESUME share: element set, header, shard
  // range, embedded HELLO and scheme; then the plan's clamp or the
  // resume's checks.
  static std::unique_ptr<SessionRole> Accept(SessionEngine& core,
                                             const WireFrame& frame,
                                             ServeContext& serve) {
    const bool resume = frame.type == FrameType::kResume;
    const std::string kind = resume ? "RESUME" : "SHARD_PLAN";
    if (serve.elements == nullptr) {
      Reject(core, "server has no element set",
             kind + " on a server with no element set");
      return nullptr;
    }
    int shards = 0;
    uint64_t remote_root = 0;
    std::vector<std::pair<uint32_t, uint8_t>> entries;
    std::vector<uint8_t> hello;
    if (!(resume ? DecodeResume(frame.payload, &shards, &remote_root,
                                &entries, &hello)
                 : DecodeShardPlan(frame.payload, &shards, &remote_root,
                                   &hello))) {
      Reject(core, "malformed " + kind);
      return nullptr;
    }
    if (shards < kMinKeyspaceShards || shards > kMaxKeyspaceShards) {
      Reject(core, "shard count out of range");
      return nullptr;
    }
    // The local config's keyspace_shards survives DecodeHello, which is
    // what lets a smaller locally-configured count clamp the proposal.
    SessionConfig config = serve.config;
    if (!DecodeHello(hello, &config)) {
      Reject(core, "malformed HELLO");
      return nullptr;
    }
    SetScheme(core, config.scheme_name);
    auto reconciler =
        serve.registry->Create(config.scheme_name, config.options);
    if (reconciler == nullptr) {
      Reject(core, UnknownScheme(config.scheme_name));
      return nullptr;
    }
    if (config.keyspace_shards >= kMinKeyspaceShards &&
        config.keyspace_shards < shards) {
      // A resumed count was negotiated by the interrupted session, but
      // this server's clamp still binds (the reconnect may have landed on
      // a differently-configured replica).
      if (resume) {
        Reject(core, "resume shard count exceeds server limit");
        return nullptr;
      }
      shards = config.keyspace_shards;
    }
    std::unique_ptr<ShardedResponder> role(new ShardedResponder(
        std::move(config), serve.elements, *serve.registry,
        std::move(reconciler), shards, serve.snapshot.get()));
    if (!resume) {
      Send(core, FrameType::kShardPlanAck, 0,
           EncodeShardPlan(shards, role->root()), "sending SHARD_PLAN_ACK");
      return role;
    }
    std::string error;
    if (role->root() != remote_root) {
      // The served set changed between the interrupted session and this
      // resume, so the shard outcomes the client banked may be invalid.
      // Reject; the client falls back to a fresh session.
      error = kStaleResumeError;
    } else {
      role->BeginResume(entries, &error);
    }
    if (!error.empty()) {
      Reject(core, error);
      return nullptr;
    }
    std::vector<uint8_t> ack;
    PutU64(role->root(), &ack);
    Send(core, FrameType::kResumeAck, 0, ack, "sending RESUME_ACK");
    return role;
  }

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    round_ = frame.round;
    switch (frame.type) {
      case FrameType::kDigestTree:
        OnDigestTree(core, frame);
        return;
      case FrameType::kEstimateRequest:
        ServeEstimate(core, frame, config_, *elements_, &d_hat_);
        return;
      case FrameType::kSubSession: {
        std::string error;
        if (!Enqueue(frame,
                     partitioned_ ? nullptr
                                  : "sub-session record before DIGEST_TREE",
                     &error)) {
          Reject(core, error);
        }
        return;
      }
      case FrameType::kDone:
        ServeDone(core, frame, d_hat_,
                  degraded_);
        return;
      default:
        Reject(core, "unexpected frame");
        return;
    }
  }

  void OnDrained(SessionEngine& core) override {
    std::string error;
    if (!Drain([](ResponderSub&) {}, &error)) {
      Reject(core, error);
      return;
    }
    if (!batch_.empty()) SendBatch(core, round_);
  }

  const char* phase() const override { return "serving"; }
  bool tells_peer() const override { return true; }

 private:
  // When `snapshot` carries shard checksums for exactly this layout, its
  // incrementally-maintained leaves are adopted and the O(|B|) digest
  // stream is skipped (core/element_store.h).
  ShardedResponder(SessionConfig config, SharedElements elements,
                   const SchemeRegistry& registry,
                   std::unique_ptr<SetReconciler> reconciler, int shards,
                   const StoreSnapshot* snapshot)
      : ShardedRole(std::move(config), std::move(elements), registry,
                    std::move(reconciler), shards),
        d_hat_(config_.exact_d) {
    if (snapshot != nullptr && snapshot->shard_checksums != nullptr &&
        snapshot->shard_checksums->shard_count == shards &&
        snapshot->shard_checksums->seed == config_.seed) {
      leaves_ = snapshot->shard_checksums->leaves;
      leaves_valid_ = true;
    }
  }

  // Diffs the initiator's DIGEST_TREE leaves against the local ones,
  // answers with the diff bitmap, and stages the differing shards.
  void OnDigestTree(SessionEngine& core, const WireFrame& frame) {
    if (partitioned_) {
      Reject(core, "duplicate DIGEST_TREE");
      return;
    }
    const size_t shards = static_cast<size_t>(plan_.shard_count);
    std::vector<uint64_t> remote;
    if (!DecodeDigestLeaves(frame.payload, shards, &remote)) {
      Reject(core, "malformed DIGEST_TREE payload");
      return;
    }
    const std::vector<uint32_t> ids = DiffDigestLeaves(remote, leaves());
    std::vector<uint8_t> differs(shards, 0);
    for (uint32_t k : ids) differs[k] = 1;
    Stage(ids);
    partitioned_ = true;
    Send(core, FrameType::kDigestReply, frame.round, EncodeDiffBitmap(differs),
         "sending DIGEST_REPLY");
  }

  // Resume path: skips the digest exchange and stages exactly the shards
  // the RESUME named, each attempt counter where the interrupted session
  // left it (the initiator reopens at attempt + 1, which Process's
  // in-order check accepts). `entries` are (shard, last attempt) pairs.
  void BeginResume(const std::vector<std::pair<uint32_t, uint8_t>>& entries,
                   std::string* error) {
    std::vector<uint32_t> ids;
    ids.reserve(entries.size());
    for (const auto& e : entries) {
      if (e.first >= static_cast<uint32_t>(plan_.shard_count)) {
        *error = ShardError("resume names an unknown shard", e.first);
        return;
      }
      if (!ids.empty() && e.first <= ids.back()) {
        *error = "resume shard list not ascending";
        return;
      }
      ids.push_back(e.first);
    }
    Stage(ids);
    for (size_t i = 0; i < ids.size(); ++i) {
      subs_[i]->attempt = entries[i].second;
    }
    partitioned_ = true;
  }

  void Process(ResponderSub& sub, const SubFrame& frame) override {
    switch (static_cast<FrameType>(frame.inner_type)) {
      case FrameType::kSchemeRequest: {
        if (frame.payload.empty()) {
          sub.error = ShardError("malformed sub-session request", sub.shard);
          return;
        }
        // Override prefix (graceful degradation): attempt byte's top bit
        // set means one scheme-id byte follows before the bound.
        const bool degraded = (frame.payload[0] & kSubSchemeOverride) != 0;
        const uint8_t attempt =
            static_cast<uint8_t>(frame.payload[0] & ~kSubSchemeOverride);
        const size_t prefix =
            degraded ? kSubRequestPrefix + 1 : kSubRequestPrefix;
        if (frame.payload.size() < prefix) {
          sub.error = ShardError("malformed sub-session request", sub.shard);
          return;
        }
        const double d =
            BitsToDouble(GetU64(frame.payload.data() + prefix - 8));
        if (!std::isfinite(d) || d < 0.0 || d > kMaxDifferenceEstimate) {
          sub.error = ShardError("sub-session bound out of range", sub.shard);
          return;
        }
        if (sub.engine == nullptr || attempt != sub.attempt) {
          // First round of a (possibly retried) attempt: build a fresh
          // responder engine sized from the carried bound. Attempts only
          // ever advance by one.
          if (attempt != sub.attempt + 1) {
            sub.error =
                ShardError("sub-session attempt out of order", sub.shard);
            return;
          }
          sub.attempt = attempt;
          SetReconciler* maker = reconciler_.get();
          if (degraded) {
            const uint8_t wire_id = frame.payload[1];
            if (sub.alt == nullptr || sub.alt_wire_id != wire_id) {
              auto alt = registry_.Create(
                  wire::SchemeNameFromWireId(wire_id), config_.options);
              if (alt == nullptr) {
                sub.error = ShardError(
                    "sub-session names an unavailable fallback scheme",
                    sub.shard);
                return;
              }
              if (sub.alt_wire_id == 0) {
                ++degraded_;
              }
              sub.alt = std::move(alt);
              sub.alt_wire_id = wire_id;
            }
            maker = sub.alt.get();
          }
          sub.engine = maker->CreateResponder(sub.elements, d,
                                              plan_.SubSeed(sub.shard));
        }
        const std::vector<uint8_t> inner(frame.payload.begin() + prefix,
                                         frame.payload.end());
        if (!sub.engine->HandleRequest(inner, &sub.scratch)) {
          sub.error = ShardError("malformed sub-session request", sub.shard);
          return;
        }
        sub.pending_type = static_cast<uint8_t>(FrameType::kSchemeReply);
        return;
      }
      case FrameType::kDone: {
        bool success = false;
        int rounds = 0;
        if (!DecodeDone(frame.payload, &success, &rounds)) {
          sub.error = ShardError("malformed sub-session done", sub.shard);
          return;
        }
        sub.complete = true;
        sub.engine.reset();
        sub.elements = {};
        sub.scratch.clear();
        sub.pending_type = static_cast<uint8_t>(FrameType::kDone);
        return;
      }
      default:
        sub.error = ShardError("unexpected sub-session record type", sub.shard);
    }
  }

  double d_hat_;
  bool partitioned_ = false;  // Shards staged by DIGEST_TREE or RESUME.
  uint32_t round_ = 0;        // Round of the latest inbound frame.
};

}  // namespace

std::unique_ptr<SessionRole> StartShardedInitiator(
    SessionEngine& core, const SessionConfig& config,
    SharedElements elements, const SchemeRegistry& registry) {
  return ShardedInitiator::Start(core, config, std::move(elements), registry);
}

std::unique_ptr<SessionRole> AcceptShardedSession(SessionEngine& core,
                                                  const WireFrame& frame,
                                                  ServeContext& serve) {
  return ShardedResponder::Accept(core, frame, serve);
}

}  // namespace pbs::sync
