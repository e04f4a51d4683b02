#include "pbs/core/session_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/session_role.h"
#include "pbs/common/bitio.h"
#include "pbs/estimator/tow.h"
#include "pbs/sync/shard_planner.h"

namespace pbs {

namespace {

using wire::FrameStatus;
using wire::FrameType;
using wire::WireFrame;

const char* StatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kTruncated: return "truncated frame";
    case FrameStatus::kBadMagic: return "bad magic";
    case FrameStatus::kBadVersion: return "unsupported wire version";
    case FrameStatus::kBadLength: return "oversized frame";
    case FrameStatus::kBadChecksum: return "frame checksum mismatch";
  }
  return "unknown";
}

constexpr uint8_t kHelloHasExactD = 1u << 0;
constexpr uint8_t kHelloStrongVerification = 1u << 1;
constexpr uint8_t kHelloSubuniverseCheck = 1u << 2;

// Wire-carried difference estimates feed InflateEstimate's double->int
// conversion and size per-scheme allocations, so they are held to
// ValidDifferenceEstimate() (core/set_reconciler.h) like Reconcile()'s.

// The responder plans with the peer's delta (PlanFor's search grows
// steeply with it: seconds at 30, minutes near 100) and builds a ToW
// sketch of ell counters over its whole set, so both are bounded well
// inside their HELLO field widths. The paper sweeps delta up to 30
// (Appendix J.2) and uses ell = 128.
constexpr int kMaxDelta = 32;
constexpr int kMaxEll = 1024;

// The HELLO encodes these fields at fixed widths; sending silently
// truncated values would make the responder plan with a different
// configuration than the initiator, so out-of-range configs fail the
// session up front with a diagnostic instead.
bool ValidateSessionConfig(const SessionConfig& config, std::string* error) {
  const PbsConfig& pbs = config.options.pbs;
  auto fail = [error](const char* what) {
    *error = std::string("config field out of wire range: ") + what;
    return false;
  };
  if (config.scheme_name.empty() || config.scheme_name.size() > 64) {
    return fail("scheme name (1-64 chars)");
  }
  if (config.options.sig_bits < 1 || config.options.sig_bits > 63) {
    return fail("sig_bits (1-63)");
  }
  if (config.options.report_sig_bits < 0 ||
      config.options.report_sig_bits > 255) {
    return fail("report_sig_bits (0-255)");
  }
  if (pbs.delta < 1 || pbs.delta > kMaxDelta) return fail("delta (1-32)");
  if (pbs.target_rounds < 1 || pbs.target_rounds > 255) {
    return fail("target_rounds (1-255)");
  }
  if (pbs.max_rounds < 1 || pbs.max_rounds > 255) {
    return fail("max_rounds (1-255)");
  }
  if (pbs.max_split_depth < 0 || pbs.max_split_depth > 255) {
    return fail("max_split_depth (0-255)");
  }
  if (pbs.ell < 1 || pbs.ell > kMaxEll) return fail("ell (1-1024)");
  if (config.exact_d >= 0.0 && !ValidDifferenceEstimate(config.exact_d)) {
    return fail("exact_d (finite, 0 to 2^19)");
  }
  // 0 and 1 both mean "monolithic"; a sharded session's count must fit
  // the u16 SHARD_PLAN field and the negotiation bounds.
  if (config.keyspace_shards < 0 ||
      config.keyspace_shards > sync::kMaxKeyspaceShards) {
    return fail("keyspace_shards (0-4096)");
  }
  if (config.shard_pipeline < 1 || config.shard_pipeline > 65535) {
    return fail("shard_pipeline (1-65535)");
  }
  if (config.phase_deadline_ms < 0) {
    return fail("phase_deadline_ms (>= 0)");
  }
  return true;
}

std::string ErrorText(const WireFrame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

// Per-direction cap on one UPDATE batch, mirroring the d_used cap: the
// counts size the responder's decode buffers before validation finishes.
constexpr uint64_t kMaxUpdateBatch = 1u << 20;

// UPDATE payload: varint insert count, varint delete count, then each
// element as 64 bits (inserts first). The whole payload must parse and the
// counts must match the payload size exactly before anything is applied —
// a truncated or padded frame is rejected with no store mutation at all.
void EncodeUpdate(const UpdateBatch& batch, BitWriter* w) {
  w->Clear();
  w->WriteVarint(batch.inserts.size());
  w->WriteVarint(batch.deletes.size());
  for (uint64_t e : batch.inserts) w->WriteBits(e, 64);
  for (uint64_t e : batch.deletes) w->WriteBits(e, 64);
}

bool DecodeUpdate(const std::vector<uint8_t>& payload, UpdateBatch* batch) {
  BitReader r(payload);
  const uint64_t n_inserts = r.ReadVarint();
  const uint64_t n_deletes = r.ReadVarint();
  if (r.overflowed() || n_inserts > kMaxUpdateBatch ||
      n_deletes > kMaxUpdateBatch ||
      (n_inserts + n_deletes) * 64 > r.remaining_bits()) {
    return false;
  }
  batch->inserts.clear();
  batch->deletes.clear();
  batch->inserts.reserve(n_inserts);
  batch->deletes.reserve(n_deletes);
  for (uint64_t i = 0; i < n_inserts; ++i) {
    batch->inserts.push_back(r.ReadBits(64));
  }
  for (uint64_t i = 0; i < n_deletes; ++i) {
    batch->deletes.push_back(r.ReadBits(64));
  }
  // Anything beyond byte-rounding slack is a length/content mismatch.
  return !r.overflowed() && r.remaining_bits() < 8;
}

// UPDATE_ACK payload: published epoch, then applied/rejected counts.
constexpr size_t kUpdateAckBits = 64 + 4 * 32;

// ------------------------------------------------------------------ roles --

// Monolithic initiator: HELLO, the optional ToW estimate exchange, the
// scheme's request/reply rounds, then DONE.
class MonoInitiator final : public SessionRole {
 public:
  MonoInitiator(SessionEngine& core, const SessionConfig& config,
                SessionEngine::SharedElements elements,
                const SchemeRegistry& registry)
      : config_(config),
        elements_(std::move(elements)),
        reconciler_(registry.Create(config.scheme_name, config.options)) {
    if (reconciler_ == nullptr) {
      Fail(core, UnknownScheme(config_.scheme_name));
      return;
    }
    Send(core, FrameType::kHello, 0, EncodeHello(config_), "sending HELLO");
  }

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    switch (state_) {
      case State::kAwaitHelloAck:
        if (frame.type != FrameType::kHelloAck) {
          Fail(core, "expected HELLO_ACK");
        } else if (config_.exact_d >= 0.0) {
          Result(core).d_hat = d_hat_ = config_.exact_d;
          StartSchemePhase(core);
        } else {
          SendEstimateRequest(core, config_, *elements_, &estimator_bytes_);
          state_ = State::kAwaitEstimateReply;
        }
        return;
      case State::kAwaitEstimateReply:
        if (ReadEstimateReply(core, frame, &d_hat_, &estimator_bytes_)) {
          StartSchemePhase(core);
        }
        return;
      case State::kAwaitSchemeReply:
        OnSchemeReply(core, frame);
        return;
      case State::kAwaitDoneAck:
        OnDoneAck(core, frame);
        return;
    }
  }

  const char* phase() const override {
    switch (state_) {
      case State::kAwaitHelloAck: return "awaiting HELLO_ACK";
      case State::kAwaitEstimateReply: return "awaiting estimate reply";
      case State::kAwaitSchemeReply: return "awaiting scheme reply";
      case State::kAwaitDoneAck: return "awaiting DONE ack";
    }
    return "unknown";
  }

  const char* peer_error_prefix() const override {
    return state_ == State::kAwaitHelloAck ? "responder rejected: "
                                           : "responder error: ";
  }

 private:
  enum class State {
    kAwaitHelloAck,
    kAwaitEstimateReply,
    kAwaitSchemeReply,
    kAwaitDoneAck,
  };

  void StartSchemePhase(SessionEngine& core) {
    engine_ = reconciler_->CreateInitiator(*elements_, d_hat_, config_.seed);
    state_ = State::kAwaitSchemeReply;
    EmitNextRequest(core);
  }

  void EmitNextRequest(SessionEngine& core) {
    ++exchange_;
    engine_->NextRequestInto(&payload_);
    Send(core, FrameType::kSchemeRequest, exchange_, payload_,
         "sending round request");
  }

  void OnSchemeReply(SessionEngine& core, const WireFrame& frame) {
    if (frame.type != FrameType::kSchemeReply) {
      Fail(core, "expected SCHEME_REPLY");
      return;
    }
    if (!engine_->HandleReply(frame.payload)) {
      Reject(core, "malformed scheme reply");
      return;
    }
    if (!engine_->done()) {
      EmitNextRequest(core);
      return;
    }
    SessionResult& result = Result(core);
    result.outcome = engine_->TakeOutcome();
    result.outcome.estimator_bytes += estimator_bytes_;
    SendDone(core, exchange_);
    state_ = State::kAwaitDoneAck;
  }

  State state_ = State::kAwaitHelloAck;
  SessionConfig config_;
  SessionEngine::SharedElements elements_;
  std::unique_ptr<SetReconciler> reconciler_;
  std::unique_ptr<ReconcileInitiator> engine_;
  double d_hat_ = -1.0;
  uint32_t exchange_ = 0;
  size_t estimator_bytes_ = 0;
  std::vector<uint8_t> payload_;  // Reused request payload.
};

// Writer side of an UPDATE session: one kUpdate frame per batch in strict
// ping-pong with kUpdateAck, then DONE.
class UpdateWriter final : public SessionRole {
 public:
  UpdateWriter(SessionEngine& core, std::vector<UpdateBatch> batches)
      : batches_(std::move(batches)) {
    if (batches_.empty()) {
      Finish(core);  // Nothing to send: go straight to DONE.
    } else {
      EmitNextUpdate(core);
    }
  }

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    if (done_sent_) {
      OnDoneAck(core, frame);
      return;
    }
    if (frame.type != FrameType::kUpdateAck) {
      Fail(core, "expected UPDATE_ACK");
      return;
    }
    BitReader r(frame.payload);
    epoch_ = r.ReadBits(64);
    inserted_ += static_cast<uint32_t>(r.ReadBits(32));
    deleted_ += static_cast<uint32_t>(r.ReadBits(32));
    rejected_ += static_cast<uint32_t>(r.ReadBits(32));
    rejected_ += static_cast<uint32_t>(r.ReadBits(32));
    if (r.overflowed()) {
      Fail(core, "malformed UPDATE_ACK");
      return;
    }
    if (++batch_pos_ < batches_.size()) {
      EmitNextUpdate(core);
    } else {
      Finish(core);
    }
  }

  const char* phase() const override {
    return done_sent_ ? "awaiting DONE ack" : "awaiting UPDATE_ACK";
  }

 private:
  void EmitNextUpdate(SessionEngine& core) {
    ++exchange_;
    BitWriter w;
    EncodeUpdate(batches_[batch_pos_], &w);
    Send(core, FrameType::kUpdate, exchange_, w.bytes().data(), w.byte_size(),
         "sending update");
  }

  void Finish(SessionEngine& core) {
    ReconcileOutcome& outcome = Result(core).outcome;
    outcome.success = true;
    outcome.rounds = static_cast<int>(batch_pos_);
    char summary[96];
    std::snprintf(summary, sizeof(summary),
                  "epoch=%llu inserted=%u deleted=%u rejected=%u",
                  static_cast<unsigned long long>(epoch_), inserted_,
                  deleted_, rejected_);
    outcome.params_summary = summary;
    SendDone(core, exchange_);
    done_sent_ = true;
  }

  std::vector<UpdateBatch> batches_;
  size_t batch_pos_ = 0;
  uint32_t exchange_ = 0;
  bool done_sent_ = false;
  // Cumulative UPDATE_ACK accounting.
  uint64_t epoch_ = 0;
  uint32_t inserted_ = 0;
  uint32_t deleted_ = 0;
  uint32_t rejected_ = 0;
};

// Monolithic responder, installed by HELLO: serves the estimate request
// and the scheme's rounds until DONE.
class MonoResponder final : public SessionRole {
 public:
  static std::unique_ptr<SessionRole> Accept(SessionEngine& core,
                                             const WireFrame& hello,
                                             ServeContext& serve) {
    SessionConfig config = serve.config;
    if (!DecodeHello(hello.payload, &config)) {
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
    Send(core, FrameType::kHelloAck, 0, nullptr, 0, "sending ack");
    return std::unique_ptr<SessionRole>(
        new MonoResponder(std::move(config), serve, std::move(reconciler)));
  }

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    switch (frame.type) {
      case FrameType::kEstimateRequest:
        ServeEstimate(core, frame, config_, *elements_, &d_hat_);
        return;
      case FrameType::kSchemeRequest:
        OnSchemeRequest(core, frame);
        return;
      case FrameType::kDone:
        ServeDone(core, frame, d_hat_, 0);
        return;
      default:
        Reject(core, "unexpected frame");
        return;
    }
  }

  const char* phase() const override { return "serving"; }
  bool tells_peer() const override { return true; }

 private:
  MonoResponder(SessionConfig config, const ServeContext& serve,
                std::unique_ptr<SetReconciler> reconciler)
      : config_(std::move(config)),
        elements_(serve.elements),
        snapshot_(serve.snapshot),
        reconciler_(std::move(reconciler)),
        d_hat_(config_.exact_d) {}  // -1 until the estimate phase runs.

  void OnSchemeRequest(SessionEngine& core, const WireFrame& frame) {
    if (engine_ == nullptr) {
      if (d_hat_ < 0.0) {
        Reject(core, "scheme round before estimate");
        return;
      }
      if (snapshot_ != nullptr) {
        // Snapshot fast path: schemes that can adopt the store's pre-built
        // sketch state skip the per-session O(|B|) rebuild. nullptr means
        // "no fast path"; fall through to the classic copying responder.
        engine_ = reconciler_->CreateSnapshotResponder(snapshot_, d_hat_,
                                                       config_.seed);
      }
      if (engine_ == nullptr) {
        engine_ =
            reconciler_->CreateResponder(*elements_, d_hat_, config_.seed);
      }
    }
    if (!engine_->HandleRequest(frame.payload, &payload_)) {
      Reject(core, "malformed scheme request");
      return;
    }
    Send(core, FrameType::kSchemeReply, frame.round, payload_,
         "sending reply");
  }

  SessionConfig config_;
  SessionEngine::SharedElements elements_;
  // Pins this session's view of a mutable store (and carries the
  // adoptable pre-built layout); null for a plain element set.
  std::shared_ptr<const StoreSnapshot> snapshot_;
  std::unique_ptr<SetReconciler> reconciler_;
  std::unique_ptr<ReconcileResponder> engine_;
  double d_hat_;
  std::vector<uint8_t> payload_;  // Reused reply payload.
};

// Update responder, installed by UPDATE: applies each batch to the store.
class UpdateResponder final : public SessionRole {
 public:
  static std::unique_ptr<SessionRole> Accept(SessionEngine& core,
                                             const WireFrame& first,
                                             ServeContext& serve) {
    if (serve.store == nullptr) {
      Reject(core, "server is read-only", "update on read-only server");
      return nullptr;
    }
    Result(core).scheme = "update";
    std::unique_ptr<SessionRole> role(new UpdateResponder(serve.store));
    role->OnFrame(core, first);
    return role;
  }

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    if (frame.type == FrameType::kDone) {
      ServeDone(core, frame, 0.0, 0);
      return;
    }
    if (frame.type != FrameType::kUpdate) {
      Reject(core, "unexpected frame");
      return;
    }
    if (!DecodeUpdate(frame.payload, &batch_)) {
      // Nothing was applied: DecodeUpdate validates the entire payload
      // before the store is touched.
      Reject(core, "malformed UPDATE");
      return;
    }
    const ApplyResult applied = store_->Apply(batch_);
    BitWriter w;
    w.WriteBits(applied.epoch, 64);
    w.WriteBits(applied.inserted, 32);
    w.WriteBits(applied.deleted, 32);
    w.WriteBits(applied.rejected_inserts, 32);
    w.WriteBits(applied.rejected_deletes, 32);
    static_assert(kUpdateAckBits == 64 + 4 * 32, "ack layout drifted");
    Send(core, FrameType::kUpdateAck, frame.round, w.bytes().data(),
         w.byte_size(), "sending update ack");
  }

  const char* phase() const override { return "serving"; }
  bool tells_peer() const override { return true; }

 private:
  explicit UpdateResponder(std::shared_ptr<MutableElementStore> store)
      : store_(std::move(store)) {}

  std::shared_ptr<MutableElementStore> store_;
  UpdateBatch batch_;  // Reused decode target.
};

// A responder before the peer's first frame, which picks its role.
class Accepting final : public SessionRole {
 public:
  explicit Accepting(ServeContext serve) : serve_(std::move(serve)) {}

  void OnFrame(SessionEngine& core, const WireFrame& frame) override {
    std::unique_ptr<SessionRole> role;
    switch (frame.type) {
      case FrameType::kHello:
        role = MonoResponder::Accept(core, frame, serve_);
        break;
      case FrameType::kUpdate:
        role = UpdateResponder::Accept(core, frame, serve_);
        break;
      case FrameType::kShardPlan:
      case FrameType::kResume:
        role = sync::AcceptShardedSession(core, frame, serve_);
        break;
      default:
        Reject(core, "expected HELLO");
        return;
    }
    if (role != nullptr) Install(core, std::move(role));  // Destroys *this.
  }

  const char* phase() const override { return "awaiting HELLO"; }
  bool tells_peer() const override { return true; }

 private:
  ServeContext serve_;
};

const SchemeRegistry& Resolve(const SchemeRegistry* registry) {
  return registry != nullptr ? *registry : SchemeRegistry::Instance();
}

}  // namespace

// ------------------------------------------------------------ codecs --

std::vector<uint8_t> EncodeHello(const SessionConfig& config) {
  BitWriter w;
  w.WriteBits(config.scheme_name.size(), 8);
  for (char c : config.scheme_name) {
    w.WriteBits(static_cast<uint8_t>(c), 8);
  }
  const PbsConfig& pbs = config.options.pbs;
  uint8_t flags = 0;
  if (config.exact_d >= 0.0) flags |= kHelloHasExactD;
  if (pbs.strong_verification) flags |= kHelloStrongVerification;
  if (pbs.subuniverse_check) flags |= kHelloSubuniverseCheck;
  w.WriteBits(flags, 8);
  w.WriteBits(static_cast<uint8_t>(config.options.sig_bits), 8);
  w.WriteBits(static_cast<uint8_t>(config.options.report_sig_bits), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.delta), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.target_rounds), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.max_rounds), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.max_split_depth), 8);
  w.WriteBits(static_cast<uint16_t>(pbs.ell), 16);
  w.WriteBits(DoubleBits(pbs.p0), 64);
  w.WriteBits(DoubleBits(pbs.gamma), 64);
  w.WriteBits(config.seed, 64);
  w.WriteBits(config.estimate_seed, 64);
  if (config.exact_d >= 0.0) w.WriteBits(DoubleBits(config.exact_d), 64);
  return w.TakeBytes();
}

bool DecodeHello(const std::vector<uint8_t>& payload, SessionConfig* config) {
  BitReader r(payload);
  const uint64_t name_len = r.ReadBits(8);
  if (name_len == 0 || name_len > 64) return false;
  std::string name;
  for (uint64_t i = 0; i < name_len; ++i) {
    name.push_back(static_cast<char>(r.ReadBits(8)));
  }
  const uint8_t flags = static_cast<uint8_t>(r.ReadBits(8));
  config->scheme_name = std::move(name);
  config->options.sig_bits = static_cast<int>(r.ReadBits(8));
  config->options.report_sig_bits = static_cast<int>(r.ReadBits(8));
  PbsConfig& pbs = config->options.pbs;
  pbs.delta = static_cast<int>(r.ReadBits(8));
  pbs.target_rounds = static_cast<int>(r.ReadBits(8));
  pbs.max_rounds = static_cast<int>(r.ReadBits(8));
  pbs.max_split_depth = static_cast<int>(r.ReadBits(8));
  pbs.ell = static_cast<int>(r.ReadBits(16));
  pbs.p0 = BitsToDouble(r.ReadBits(64));
  pbs.gamma = BitsToDouble(r.ReadBits(64));
  pbs.sig_bits = config->options.sig_bits;
  pbs.strong_verification = (flags & kHelloStrongVerification) != 0;
  pbs.subuniverse_check = (flags & kHelloSubuniverseCheck) != 0;
  config->seed = r.ReadBits(64);
  config->estimate_seed = r.ReadBits(64);
  config->exact_d = (flags & kHelloHasExactD) != 0
                        ? BitsToDouble(r.ReadBits(64))
                        : -1.0;
  if (r.overflowed()) return false;
  if ((flags & kHelloHasExactD) != 0 &&
      !ValidDifferenceEstimate(config->exact_d)) {
    return false;
  }
  if (pbs.delta < 1 || pbs.delta > kMaxDelta || pbs.max_rounds < 1 ||
      pbs.ell < 1 || pbs.ell > kMaxEll) {
    return false;
  }
  if (config->options.sig_bits < 1 || config->options.sig_bits > 63) {
    return false;
  }
  return true;
}

std::vector<uint8_t> EncodeDone(const ReconcileOutcome& outcome) {
  BitWriter w;
  w.WriteBits(outcome.success ? 1 : 0, 8);
  w.WriteBits(static_cast<uint32_t>(outcome.rounds), 32);
  w.WriteBits(outcome.difference.size(), 64);
  return w.TakeBytes();
}

bool DecodeDone(const std::vector<uint8_t>& payload, bool* success,
                int* rounds) {
  BitReader r(payload);
  *success = r.ReadBits(8) != 0;
  *rounds = static_cast<int>(r.ReadBits(32));
  r.ReadBits(64);  // Recovered-difference cardinality (informational).
  return !r.overflowed();
}

// ---------------------------------------------------- role-facing core --

void SessionRole::Send(SessionEngine& core, FrameType type, uint32_t round,
                       const uint8_t* payload, size_t size, const char* label) {
  core.AppendOutbound(type, round, payload, size, label);
}

void SessionRole::Fail(SessionEngine& core, std::string error) {
  core.Fail(std::move(error));
}

void SessionRole::Reject(SessionEngine& core, const std::string& told_peer,
                         std::string error) {
  core.Reject(told_peer, std::move(error));
}

SessionResult& SessionRole::Result(SessionEngine& core) { return core.result_; }

void SessionRole::SetScheme(SessionEngine& core, const std::string& name) {
  core.result_.scheme = name;
  core.scheme_id_ = wire::SchemeWireId(name);
}

void SessionRole::Install(SessionEngine& core,
                          std::unique_ptr<SessionRole> role) {
  core.role_ = std::move(role);
}

void SessionRole::SendDone(SessionEngine& core, uint32_t round) {
  Send(core, FrameType::kDone, round, EncodeDone(core.result_.outcome),
       "sending DONE");
}

void SessionRole::OnDoneAck(SessionEngine& core, const WireFrame& frame) {
  if (frame.type != FrameType::kDone) {
    Fail(core, "expected DONE ack");
    return;
  }
  core.result_.ok = true;
  core.Settle();
}

void SessionRole::SendEstimateRequest(SessionEngine& core,
                                      const SessionConfig& config,
                                      const std::vector<uint64_t>& elements,
                                      size_t* estimator_bytes) {
  TowSketch sketch(config.options.pbs.ell, config.estimate_seed);
  sketch.AddAll(elements);
  BitWriter w;
  w.WriteBits(elements.size(), 64);
  sketch.Serialize(&w, elements.size());
  *estimator_bytes += w.byte_size();
  Send(core, FrameType::kEstimateRequest, 0, w.bytes().data(), w.byte_size(),
       "sending estimate");
}

bool SessionRole::ReadEstimateReply(SessionEngine& core,
                                    const WireFrame& frame, double* d_hat,
                                    size_t* estimator_bytes) {
  if (frame.type != FrameType::kEstimateReply) {
    Fail(core, "expected ESTIMATE_REPLY");
    return false;
  }
  *estimator_bytes += frame.payload.size();
  BitReader r(frame.payload);
  *d_hat = BitsToDouble(r.ReadBits(64));
  if (r.overflowed() || !std::isfinite(*d_hat) || *d_hat < 0.0) {
    Fail(core, "malformed estimate reply");
    return false;
  }
  if (*d_hat > kMaxDifferenceEstimate) {
    Fail(core,
         "difference estimate exceeds wire session capacity (d-hat > 2^19)");
    return false;
  }
  core.result_.d_hat = *d_hat;
  return true;
}

void SessionRole::ServeEstimate(SessionEngine& core, const WireFrame& frame,
                                const SessionConfig& config,
                                const std::vector<uint64_t>& elements,
                                double* d_hat) {
  BitReader r(frame.payload);
  const uint64_t remote_size = r.ReadBits(64);
  // remote_size sets the per-counter width ceil(log2(2n+1)); cap it so a
  // hostile value cannot push the width past 64 bits (UB in ReadBits) —
  // real sets are orders of magnitude below this.
  if (remote_size > (uint64_t{1} << 48)) {
    Reject(core, "malformed estimate request");
    return;
  }
  TowSketch remote = TowSketch::Deserialize(&r, config.options.pbs.ell,
                                            config.estimate_seed, remote_size);
  if (r.overflowed()) {
    Reject(core, "malformed estimate request");
    return;
  }
  TowSketch local(config.options.pbs.ell, config.estimate_seed);
  local.AddAll(elements);
  *d_hat = TowSketch::Estimate(remote, local);
  BitWriter w;
  w.WriteBits(DoubleBits(*d_hat), 64);
  Send(core, FrameType::kEstimateReply, 0, w.bytes().data(), w.byte_size(),
       "sending estimate");
}

void SessionRole::ServeDone(SessionEngine& core, const WireFrame& frame,
                            double d_hat, int degraded_shards) {
  bool success = false;
  int rounds = 0;
  if (!DecodeDone(frame.payload, &success, &rounds)) {
    Fail(core, "malformed DONE");
    return;
  }
  Send(core, FrameType::kDone, frame.round, nullptr, 0, "sending ack");
  SessionResult& result = core.result_;
  result.ok = true;
  result.d_hat = d_hat < 0.0 ? 0.0 : d_hat;
  result.outcome.success = success;
  result.outcome.rounds = rounds;
  result.degraded_shards = degraded_shards;
  core.Settle();
}

// ------------------------------------------------------------ lifecycle --

SessionEngine SessionEngine::Initiator(const SessionConfig& config,
                                       std::vector<uint64_t> elements,
                                       const SchemeRegistry* registry) {
  return Initiator(config,
                   std::make_shared<const std::vector<uint64_t>>(
                       std::move(elements)),
                   registry);
}

SessionEngine SessionEngine::Initiator(const SessionConfig& config,
                                       SharedElements elements,
                                       const SchemeRegistry* registry) {
  SessionEngine engine(config.phase_deadline_ms);
  engine.result_.scheme = config.scheme_name;
  engine.scheme_id_ = wire::SchemeWireId(config.scheme_name);
  std::string config_error;
  if (!ValidateSessionConfig(config, &config_error)) {
    engine.Fail(std::move(config_error));
  } else if (config.resume != nullptr ||
             config.keyspace_shards >= sync::kMinKeyspaceShards) {
    engine.role_ = sync::StartShardedInitiator(engine, config,
                                               std::move(elements),
                                               Resolve(registry));
  } else {
    engine.role_ = std::make_unique<MonoInitiator>(
        engine, config, std::move(elements), Resolve(registry));
  }
  return engine;
}

SessionEngine SessionEngine::Responder(std::vector<uint64_t> elements,
                                       const SchemeRegistry* registry) {
  return Responder(std::make_shared<const std::vector<uint64_t>>(
                       std::move(elements)),
                   registry);
}

SessionEngine SessionEngine::Responder(SharedElements elements,
                                       const SchemeRegistry* registry) {
  return Responder(SessionConfig(), std::move(elements), registry);
}

SessionEngine SessionEngine::Responder(const SessionConfig& local_config,
                                       SharedElements elements,
                                       const SchemeRegistry* registry) {
  SessionEngine engine(local_config.phase_deadline_ms);
  // The HELLO decode overwrites every wire-carried field of the local
  // config; side-local knobs (keyspace_shards, deadlines) are never
  // written by it, so seeding the role with it is all that "honoring
  // local defaults" takes.
  engine.role_ = std::make_unique<Accepting>(ServeContext{
      local_config, std::move(elements), nullptr, nullptr, &Resolve(registry)});
  return engine;
}

SessionEngine SessionEngine::Responder(
    const SessionConfig& local_config,
    std::shared_ptr<const StoreSnapshot> snapshot,
    std::shared_ptr<MutableElementStore> store,
    const SchemeRegistry* registry) {
  SessionEngine engine(local_config.phase_deadline_ms);
  SharedElements elements = snapshot != nullptr ? snapshot->elements : nullptr;
  engine.role_ = std::make_unique<Accepting>(
      ServeContext{local_config, std::move(elements), std::move(snapshot),
                   std::move(store), &Resolve(registry)});
  return engine;
}

SessionEngine SessionEngine::Updater(std::vector<UpdateBatch> batches,
                                     const SchemeRegistry* /*registry*/) {
  SessionEngine engine(/*phase_deadline_ms=*/0);
  engine.result_.scheme = "update";
  engine.role_ = std::make_unique<UpdateWriter>(engine, std::move(batches));
  return engine;
}

SessionEngine::SessionEngine(int phase_deadline_ms)
    : phase_deadline_ms_(phase_deadline_ms),
      phase_start_(std::chrono::steady_clock::now()) {}

SessionEngine::~SessionEngine() = default;
SessionEngine::SessionEngine(SessionEngine&&) noexcept = default;
SessionEngine& SessionEngine::operator=(SessionEngine&&) noexcept = default;

// ---------------------------------------------------------------- status --

SessionStatus SessionEngine::Status() const {
  // Outbound bytes drain first even when the session already settled or
  // failed: a queued ERROR/DONE frame should still reach the peer.
  if (out_pos_ < outbound_.size()) return SessionStatus::kWantWrite;
  if (phase_ == Phase::kSettled) return SessionStatus::kDone;
  if (phase_ == Phase::kFailed) return SessionStatus::kError;
  return SessionStatus::kWantRead;
}

const char* SessionEngine::phase_name() const {
  if (phase_ == Phase::kSettled) return "settled";
  if (phase_ == Phase::kFailed || role_ == nullptr) return "failed";
  return role_->phase();
}

int64_t SessionEngine::DeadlineRemainingMs() const {
  if (phase_deadline_ms_ <= 0 || !running()) return -1;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - phase_start_)
                           .count();
  const int64_t remaining = phase_deadline_ms_ - elapsed;
  return remaining > 0 ? remaining : 0;
}

bool SessionEngine::CheckDeadline() {
  if (DeadlineRemainingMs() != 0) return false;
  const std::string message =
      std::string("phase deadline exceeded while ") + phase_name();
  // A responder tells the stalled peer why it is being dropped; the
  // initiator's driver reads the error from the result.
  if (role_->tells_peer()) {
    Reject(message, message);
  } else {
    Fail(message);
  }
  return true;
}

size_t SessionEngine::NeededBytes() const {
  if (Status() != SessionStatus::kWantRead) return 0;
  const size_t buffered = BufferedBytes();
  if (buffered < wire::kFrameHeaderSize) {
    return wire::kFrameHeaderSize - buffered;
  }
  // ProcessInbound consumed every complete frame and validated the
  // buffered header, so what remains is a partial frame with a sane
  // length field.
  size_t payload_length = 0;
  if (wire::InspectFrameHeader(inbound_.data() + in_pos_, &payload_length) !=
      FrameStatus::kOk) {
    return 1;  // Unreachable; defensive so a caller can still make progress.
  }
  return wire::kFrameHeaderSize + payload_length - buffered;
}

// ------------------------------------------------------------- outbound --

void SessionEngine::AppendOutbound(FrameType type, uint32_t round,
                                   const uint8_t* payload, size_t size,
                                   const char* label) {
  // Compact a fully-drained buffer before growing it again (keeps the
  // buffer at its frame-peak size instead of creeping per session round).
  if (out_pos_ == outbound_.size()) {
    outbound_.clear();
    out_pos_ = 0;
  }
  wire_bytes_ += wire::AppendFrame(type, scheme_id_, round, payload, size,
                                   &outbound_);
  wire_frames_ += 1;
  write_label_ = label;
  result_.outcome.wire_bytes = wire_bytes_;
  result_.outcome.wire_frames = wire_frames_;
}

size_t SessionEngine::Poll(uint8_t* out, size_t max) {
  const size_t n = std::min(max, outbound_size());
  if (n > 0) {
    std::memcpy(out, outbound_data(), n);
    ConsumeOutbound(n);
  }
  return n;
}

void SessionEngine::ConsumeOutbound(size_t n) {
  out_pos_ += n;
  if (out_pos_ >= outbound_.size()) {
    outbound_.clear();
    out_pos_ = 0;
  }
}

void SessionEngine::FailTransport() {
  // Once settled, the undeliverable bytes were courtesy frames (DONE ack,
  // ERROR); dropping them lets Status() report the terminal state.
  outbound_.clear();
  out_pos_ = 0;
  if (running()) Fail(std::string("transport failed ") + write_label_);
}

// -------------------------------------------------------------- inbound --

void SessionEngine::Feed(const uint8_t* data, size_t size) {
  if (!running()) return;
  inbound_.insert(inbound_.end(), data, data + size);
  ProcessInbound();
}

void SessionEngine::FeedEof() {
  if (!running()) return;
  Fail(BufferedBytes() < wire::kFrameHeaderSize
           ? "transport closed while reading frame header"
           : "transport closed while reading frame payload");
}

void SessionEngine::ProcessInbound() {
  while (running()) {
    const size_t buffered = BufferedBytes();
    if (buffered < wire::kFrameHeaderSize) break;
    size_t payload_length = 0;
    FrameStatus status =
        wire::InspectFrameHeader(inbound_.data() + in_pos_, &payload_length);
    if (status == FrameStatus::kOk &&
        buffered < wire::kFrameHeaderSize + payload_length) {
      break;  // Partial frame: wait for more bytes.
    }
    size_t consumed = 0;
    if (status == FrameStatus::kOk) {
      status = wire::DecodeFrame(inbound_.data() + in_pos_, buffered, &frame_,
                                 &consumed);
    }
    if (status != FrameStatus::kOk) {
      // A malformed envelope is fatal for the stream. The responder tells
      // the peer why before giving up (e.g. an initiator speaking a newer
      // wire version learns "unsupported wire version" instead of
      // watching the connection drop); the initiator just reports it.
      if (role_->tells_peer()) {
        Reject(StatusName(status), StatusName(status));
      } else {
        Fail(StatusName(status));
      }
      return;
    }
    in_pos_ += consumed;
    wire_bytes_ += consumed;
    wire_frames_ += 1;
    result_.outcome.wire_bytes = wire_bytes_;
    result_.outcome.wire_frames = wire_frames_;
    if (frame_.type == FrameType::kError) {
      Fail(role_->peer_error_prefix() + ErrorText(frame_));
    } else {
      role_->OnFrame(*this, frame_);
    }
    // The deadline is per *phase*, not per session: any complete frame
    // from the peer is progress and restarts the clock.
    if (phase_deadline_ms_ > 0) {
      phase_start_ = std::chrono::steady_clock::now();
    }
  }
  if (running()) role_->OnDrained(*this);
  // Compact the consumed prefix. Memmove, not erase-with-realloc: the
  // buffer stays at peak capacity, so steady-state rounds never allocate.
  if (in_pos_ == inbound_.size()) {
    inbound_.clear();
    in_pos_ = 0;
  } else if (in_pos_ > 0) {
    const size_t remaining = inbound_.size() - in_pos_;
    std::memmove(inbound_.data(), inbound_.data() + in_pos_, remaining);
    inbound_.resize(remaining);
    in_pos_ = 0;
  }
}

// --------------------------------------------------------------- terminal --

void SessionEngine::Reject(const std::string& told_peer, std::string error) {
  AppendOutbound(FrameType::kError, 0,
                 reinterpret_cast<const uint8_t*>(told_peer.data()),
                 told_peer.size(), "sending error");
  Fail(std::move(error));
}

void SessionEngine::Fail(std::string error) {
  result_.ok = false;
  result_.error = std::move(error);
  result_.outcome.wire_bytes = wire_bytes_;
  result_.outcome.wire_frames = wire_frames_;
  if (running() && role_ != nullptr) role_->OnFail(&result_);
  phase_ = Phase::kFailed;
}

void SessionEngine::Settle() {
  result_.outcome.wire_bytes = wire_bytes_;
  result_.outcome.wire_frames = wire_frames_;
  phase_ = Phase::kSettled;
}

}  // namespace pbs
