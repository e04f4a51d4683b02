// Golden session transcripts: each case pumps a SessionEngine initiator
// (or updater, or a scripted byte source) against a responder in memory
// and pins what the session put on the wire and what both sides report:
// a 64-bit digest of each direction's byte stream, the text of any ERROR
// frame, and both results (ok, error, d_hat, the outcome accounting,
// |difference|, degraded shards, params summary). A change to the
// session layer that moves a single wire byte, a frame count or a
// diagnostic shows up here as a per-case diff.
//
// On a mismatch the test prints the case's actual row in table syntax.

#include "pbs/core/session_engine.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pbs/core/element_store.h"
#include "pbs/core/messages.h"
#include "pbs/sim/workload.h"

namespace pbs {
namespace {

using wire::FrameStatus;
using wire::FrameType;
using wire::WireFrame;

// What one side reported.
struct Side {
  bool ok = false;
  std::string error;
  double d_hat = 0.0;
  bool success = false;
  int rounds = 0;
  size_t data_bytes = 0;
  size_t estimator_bytes = 0;
  size_t wire_bytes = 0;
  int wire_frames = 0;
  size_t diff_size = 0;
  int degraded = 0;
  std::string summary;
};

struct Transcript {
  uint64_t to_responder = 0;  // FNV-1a of the initiator -> responder bytes.
  uint64_t to_initiator = 0;  // FNV-1a of the responder -> initiator bytes.
  std::string error_frame;    // Payload of the first ERROR frame, if any.
  Side initiator;             // Default for scripted (hand-built) cases.
  Side responder;
};

Side SideOf(const SessionResult& r) {
  Side s;
  s.ok = r.ok;
  s.error = r.error;
  s.d_hat = r.d_hat;
  s.success = r.outcome.success;
  s.rounds = r.outcome.rounds;
  s.data_bytes = r.outcome.data_bytes;
  s.estimator_bytes = r.outcome.estimator_bytes;
  s.wire_bytes = r.outcome.wire_bytes;
  s.wire_frames = r.outcome.wire_frames;
  s.diff_size = r.outcome.difference.size();
  s.degraded = r.degraded_shards;
  s.summary = r.outcome.params_summary;
  return s;
}

uint64_t Fnv(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The first ERROR frame's text in a byte stream (stops at the first
// frame that does not decode).
std::string ErrorIn(const std::vector<uint8_t>& stream) {
  size_t pos = 0;
  WireFrame frame;
  while (pos < stream.size()) {
    size_t consumed = 0;
    if (wire::DecodeFrame(stream.data() + pos, stream.size() - pos, &frame,
                          &consumed) != FrameStatus::kOk) {
      break;
    }
    if (frame.type == FrameType::kError) {
      return std::string(frame.payload.begin(), frame.payload.end());
    }
    pos += consumed;
  }
  return std::string();
}

void Drain(SessionEngine* from, SessionEngine* to, std::vector<uint8_t>* log) {
  while (from->outbound_size() > 0) {
    const size_t n = from->outbound_size();
    const std::vector<uint8_t> chunk(from->outbound_data(),
                                     from->outbound_data() + n);
    from->ConsumeOutbound(n);
    log->insert(log->end(), chunk.begin(), chunk.end());
    if (to != nullptr) to->Feed(chunk.data(), chunk.size());
  }
}

Transcript Finish(const std::vector<uint8_t>& out, const std::vector<uint8_t>& in,
                  const SessionResult* initiator,
                  const SessionResult& responder) {
  Transcript t;
  t.to_responder = Fnv(out);
  t.to_initiator = Fnv(in);
  t.error_frame = ErrorIn(in);
  if (t.error_frame.empty()) t.error_frame = ErrorIn(out);
  if (initiator != nullptr) t.initiator = SideOf(*initiator);
  t.responder = SideOf(responder);
  return t;
}

// Strict ping-pong pump. With `steps` >= 0, stops after that many
// exchanges and signals EOF to the initiator (a dropped connection);
// returns the initiator's result through *result.
Transcript Pump(SessionEngine initiator, SessionEngine responder,
                int steps = -1, SessionResult* result = nullptr) {
  std::vector<uint8_t> out, in;
  for (int step = 0; steps < 0 || step < steps; ++step) {
    const size_t before = out.size() + in.size();
    Drain(&initiator, &responder, &out);
    Drain(&responder, &initiator, &in);
    if (out.size() + in.size() == before) break;
  }
  if (steps >= 0) initiator.FeedEof();
  if (result != nullptr) *result = initiator.result();
  return Finish(out, in, &initiator.result(), responder.result());
}

// Feeds hand-built frames to a responder one at a time.
Transcript Script(const std::vector<std::vector<uint8_t>>& frames,
                  SessionEngine responder) {
  std::vector<uint8_t> out, in;
  for (const auto& frame : frames) {
    out.insert(out.end(), frame.begin(), frame.end());
    responder.Feed(frame.data(), frame.size());
    Drain(&responder, nullptr, &in);
  }
  return Finish(out, in, nullptr, responder.result());
}

// The first frame an engine queues, as raw bytes.
std::vector<uint8_t> FirstFrame(SessionEngine engine) {
  return std::vector<uint8_t>(engine.outbound_data(),
                              engine.outbound_data() + engine.outbound_size());
}

WireFrame DecodeOne(const std::vector<uint8_t>& bytes) {
  WireFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(wire::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            FrameStatus::kOk);
  return frame;
}

const SetPair& Mono() {
  static const SetPair pair = GenerateTwoSidedPair(2000, 12, 9, 32, 0x6011);
  return pair;
}

// Sharded instances: d = 3 touches at most 3 of 16 shards (estimate
// skipped); d = 60 touches most of them (global estimate).
const SetPair& FewShards() {
  static const SetPair pair = GenerateTwoSidedPair(4000, 2, 1, 32, 0x6012);
  return pair;
}

const SetPair& ManyShards() {
  static const SetPair pair = GenerateTwoSidedPair(4000, 30, 30, 32, 0x6013);
  return pair;
}

SessionConfig MonoConfig(const char* scheme, bool exact) {
  SessionConfig config;
  config.scheme_name = scheme;
  config.seed = 0x5EED;
  config.estimate_seed = 0xE571;
  if (exact) config.exact_d = static_cast<double>(Mono().truth_diff.size());
  return config;
}

SessionConfig ShardedConfig(int shards) {
  SessionConfig config;
  config.seed = 0x5A4D;
  config.estimate_seed = 0xE572;
  config.keyspace_shards = shards;
  return config;
}

Transcript MonoCase(const char* scheme, bool exact) {
  return Pump(SessionEngine::Initiator(MonoConfig(scheme, exact), Mono().a),
              SessionEngine::Responder(Mono().b));
}

Transcript ShardedCase(const SetPair& pair, int shards) {
  return Pump(SessionEngine::Initiator(ShardedConfig(shards), pair.a),
              SessionEngine::Responder(pair.b));
}

Transcript ClampCase() {
  SessionConfig local;
  local.keyspace_shards = 4;
  return Pump(SessionEngine::Initiator(ShardedConfig(64), ManyShards().a),
              SessionEngine::Responder(
                  local,
                  std::make_shared<const std::vector<uint64_t>>(
                      ManyShards().b)));
}

// A sharded session dropped after a few exchanges, leaving a token.
std::shared_ptr<const sync::ShardResumeState> FaultedToken() {
  SessionResult broken;
  Pump(SessionEngine::Initiator(ShardedConfig(16), ManyShards().a),
       SessionEngine::Responder(ManyShards().b), /*steps=*/5, &broken);
  EXPECT_NE(broken.resume_state, nullptr) << broken.error;
  return broken.resume_state;
}

Transcript ResumeCase(bool stale) {
  SessionConfig config = ShardedConfig(16);
  config.resume = FaultedToken();
  std::vector<uint64_t> b = ManyShards().b;
  if (stale) b.push_back(0x1234567890ABCDEFull);
  return Pump(SessionEngine::Initiator(config, ManyShards().a),
              SessionEngine::Responder(std::move(b)));
}

Transcript UpdateCase(int batches) {
  auto store = std::make_shared<MutableElementStore>(Mono().b);
  std::vector<UpdateBatch> list;
  for (int i = 0; i < batches; ++i) {
    UpdateBatch batch;
    batch.inserts = {0x1000u + static_cast<uint64_t>(i), Mono().b[0]};
    batch.deletes = {Mono().b[1 + i], 0x7777u};
    list.push_back(batch);
  }
  return Pump(SessionEngine::Updater(list),
              SessionEngine::Responder(SessionConfig(), store->snapshot(),
                                       store));
}

Transcript UnknownSchemeCase() {
  SchemeRegistry empty;
  return Pump(SessionEngine::Initiator(MonoConfig("pbs", true), Mono().a),
              SessionEngine::Responder(Mono().b, &empty));
}

Transcript BadVersionCase() {
  WireFrame alien;
  alien.version = wire::kWireVersion + 1;
  alien.type = FrameType::kHello;
  alien.payload = {1, 2, 3};
  return Script({wire::EncodeFrame(alien)},
                SessionEngine::Responder(Mono().b));
}

Transcript MalformedHelloCase() {
  std::vector<uint8_t> frame;
  const uint8_t payload[] = {0};  // Zero-length scheme name.
  wire::AppendFrame(FrameType::kHello, 0, 0, payload, sizeof(payload), &frame);
  return Script({frame}, SessionEngine::Responder(Mono().b));
}

Transcript ReadOnlyUpdateCase() {
  UpdateBatch batch;
  batch.inserts = {42};
  return Pump(SessionEngine::Updater({batch}),
              SessionEngine::Responder(Mono().b));
}

Transcript NoElementsCase() {
  return Pump(SessionEngine::Initiator(ShardedConfig(8), Mono().a),
              SessionEngine::Responder(SessionEngine::SharedElements()));
}

Transcript ShardCountCase() {
  WireFrame plan = DecodeOne(
      FirstFrame(SessionEngine::Initiator(ShardedConfig(8), Mono().a)));
  plan.payload[0] = 1;  // u16 shard count (LE) = 1, below the minimum.
  plan.payload[1] = 0;
  return Script({wire::EncodeFrame(plan)}, SessionEngine::Responder(Mono().b));
}

Transcript UpdateThenHelloCase() {
  UpdateBatch batch;
  batch.inserts = {42};
  auto store = std::make_shared<MutableElementStore>(Mono().b);
  return Script(
      {FirstFrame(SessionEngine::Updater({batch})),
       FirstFrame(SessionEngine::Initiator(MonoConfig("pbs", true), Mono().a))},
      SessionEngine::Responder(SessionConfig(), store->snapshot(), store));
}

Transcript RunCase(const std::string& name) {
  for (const char* scheme :
       {"pbs", "pinsketch", "pinsketch-wp", "ddigest", "graphene"}) {
    if (name == std::string(scheme) + "/tow") return MonoCase(scheme, false);
    if (name == std::string(scheme) + "/exact") return MonoCase(scheme, true);
  }
  if (name == "sharded/few") return ShardedCase(FewShards(), 16);
  if (name == "sharded/many") return ShardedCase(ManyShards(), 16);
  if (name == "sharded/identical") {
    return Pump(SessionEngine::Initiator(ShardedConfig(16), Mono().a),
                SessionEngine::Responder(Mono().a));
  }
  if (name == "sharded/clamp") return ClampCase();
  if (name == "sharded/resume") return ResumeCase(false);
  if (name == "sharded/stale") return ResumeCase(true);
  if (name == "update/two") return UpdateCase(2);
  if (name == "update/zero") return UpdateCase(0);
  if (name == "reject/scheme") return UnknownSchemeCase();
  if (name == "reject/version") return BadVersionCase();
  if (name == "reject/hello") return MalformedHelloCase();
  if (name == "reject/readonly") return ReadOnlyUpdateCase();
  if (name == "reject/no-elements") return NoElementsCase();
  if (name == "reject/shard-count") return ShardCountCase();
  if (name == "reject/update-then-hello") return UpdateThenHelloCase();
  ADD_FAILURE() << "no such case " << name;
  return Transcript();
}

struct GoldenCase {
  const char* name;
  uint64_t to_responder;
  uint64_t to_initiator;
  const char* error_frame;
  Side initiator;
  Side responder;
};

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string Row(const Side& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{%s, %s, %.17g, %s, %d, %zu, %zu, %zu, %d, %zu, %d, ",
                s.ok ? "true" : "false", Quote(s.error).c_str(), s.d_hat,
                s.success ? "true" : "false", s.rounds, s.data_bytes,
                s.estimator_bytes, s.wire_bytes, s.wire_frames, s.diff_size,
                s.degraded);
  return buf + Quote(s.summary) + "}";
}

std::string Row(const char* name, const Transcript& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull",
                t.to_responder, t.to_initiator);
  return "{" + Quote(name) + ", " + buf + ", " + Quote(t.error_frame) +
         ",\n     " + Row(t.initiator) + ",\n     " + Row(t.responder) + "},";
}

bool SameSide(const Side& a, const Side& b) {
  return a.ok == b.ok && a.error == b.error && a.d_hat == b.d_hat &&
         a.success == b.success && a.rounds == b.rounds &&
         a.data_bytes == b.data_bytes &&
         a.estimator_bytes == b.estimator_bytes &&
         a.wire_bytes == b.wire_bytes && a.wire_frames == b.wire_frames &&
         a.diff_size == b.diff_size && a.degraded == b.degraded &&
         a.summary == b.summary;
}

const GoldenCase kCases[] = {
    // clang-format off
    // name, to_responder, to_initiator, error_frame,
    //   initiator {ok, error, d_hat, success, rounds, data_bytes,
    //              estimator_bytes, wire_bytes, wire_frames, |difference|,
    //              degraded, params_summary},
    //   responder {same fields}
    {"pbs/tow", 0x16bebde33a01a352ull, 0x583389a48ca413b8ull, "",
     {true, "", 18.625, true, 1, 164, 208, 595, 8, 21, 0, "g=6 n=63 t=8 d_used=26"},
     {true, "", 18.625, true, 1, 0, 0, 595, 8, 0, 0, ""}},
    {"pbs/exact", 0xc1c3cd9ea241732full, 0x86f403407fcd745bull, "",
     {true, "", 21, true, 1, 169, 0, 360, 6, 21, 0, "g=6 n=63 t=9 d_used=29"},
     {true, "", 21, true, 1, 0, 0, 360, 6, 0, 0, ""}},
    {"pinsketch/tow", 0xab0eeca0eae6b108ull, 0xdc10c739d28275a1ull, "",
     {true, "", 18.625, true, 1, 104, 208, 540, 8, 21, 0, "t=26"},
     {true, "", 18.625, true, 1, 0, 0, 540, 8, 0, 0, ""}},
    {"pinsketch/exact", 0x014215e8fe81c00eull, 0xe917c515e747a538ull, "",
     {true, "", 21, true, 1, 116, 0, 312, 6, 21, 0, "t=29"},
     {true, "", 21, true, 1, 0, 0, 312, 6, 0, 0, ""}},
    {"pinsketch-wp/tow", 0x88b524e7b4e0d6b3ull, 0x09621900c3014964ull, "",
     {true, "", 18.625, true, 1, 304, 208, 747, 8, 21, 0, "g=6 t=8 delta=5 d_used=26"},
     {true, "", 18.625, true, 1, 0, 0, 747, 8, 0, 0, ""}},
    {"pinsketch-wp/exact", 0xa126e0d6f53f9acfull, 0x47007424bc7b6fd4ull, "",
     {true, "", 21, true, 1, 328, 0, 531, 6, 21, 0, "g=6 t=9 delta=5 d_used=29"},
     {true, "", 21, true, 1, 0, 0, 531, 6, 0, 0, ""}},
    {"ddigest/tow", 0xccd38f54c33b27c9ull, 0xfae3b63afcf49b12ull, "",
     {true, "", 18.625, true, 1, 480, 208, 914, 8, 21, 0, "d_est=19"},
     {true, "", 18.625, true, 1, 0, 0, 914, 8, 0, 0, ""}},
    {"ddigest/exact", 0x9ba5b778ab1cf56aull, 0x9fd7f339dae89d43ull, "",
     {true, "", 21, true, 1, 528, 0, 722, 6, 21, 0, "d_est=21"},
     {true, "", 21, true, 1, 0, 0, 722, 6, 0, 0, ""}},
    {"graphene/tow", 0x28197e00f6545336ull, 0xabe8e15b8247a01aull, "",
     {true, "", 18.625, true, 1, 872, 208, 1318, 8, 21, 0, "d_est=26"},
     {true, "", 18.625, true, 1, 0, 0, 1318, 8, 0, 0, ""}},
    {"graphene/exact", 0xc21d46608ce21861ull, 0x0600c4d471e15f27ull, "",
     {true, "", 21, true, 1, 920, 0, 1126, 6, 21, 0, "d_est=29"},
     {true, "", 21, true, 1, 0, 0, 1126, 6, 0, 0, ""}},
    {"sharded/few", 0xd4a7b34fd1aae071ull, 0xa997de30801f3df2ull, "",
     {true, "", 12, true, 1, 78, 0, 651, 10, 3, 0, "shards=16 identical=13 differing=3 pipeline=4 retries=0"},
     {true, "", 0, true, 1, 0, 0, 651, 10, 0, 0, ""}},
    {"sharded/many", 0xd6dc2f3fae9a46b7ull, 0x8c7164208464f671ull, "",
     {true, "", 57.09375, true, 3, 646, 224, 2495, 26, 60, 0, "shards=16 identical=1 differing=15 pipeline=4 retries=0"},
     {true, "", 57.09375, true, 3, 0, 0, 2495, 26, 0, 0, ""}},
    {"sharded/identical", 0x15344a28750d0b80ull, 0xc5b26f84f0a16f7cull, "",
     {true, "", 0, true, 0, 0, 0, 158, 4, 0, 0, "shards=16 identical=16 differing=0"},
     {true, "", 0, true, 0, 0, 0, 158, 4, 0, 0, ""}},
    {"sharded/clamp", 0x70364dfcb71ea8d4ull, 0xbc3c8107903f3410ull, "",
     {true, "", 16, true, 3, 443, 0, 1126, 14, 60, 0, "shards=4 identical=0 differing=4 pipeline=4 retries=0"},
     {true, "", 0, true, 3, 0, 0, 1126, 14, 0, 0, ""}},
    {"sharded/resume", 0x4cb4c07c29167989ull, 0x7c12b259164e9a96ull, "",
     {true, "", 84, true, 3, 646, 0, 1724, 20, 60, 0, "shards=16 identical=1 differing=15 pipeline=4 retries=0 resumed=3"},
     {true, "", 0, true, 3, 0, 0, 1724, 20, 0, 0, ""}},
    {"sharded/stale", 0x2b03f376f90deec8ull, 0x4ff2550506fe684cull, "stale resume: responder set changed",
     {false, "responder error: stale resume: responder set changed", 0, false, 1, 0, 0, 168, 2, 0, 0, ""},
     {false, "stale resume: responder set changed", 0, false, 1, 0, 0, 168, 2, 0, 0, ""}},
    {"update/two", 0xa21211cb8fced629ull, 0x7d36a0a01acac3feull, "",
     {true, "", 0, true, 2, 0, 0, 249, 6, 0, 0, "epoch=4 inserted=2 deleted=2 rejected=4"},
     {true, "", 0, true, 2, 0, 0, 249, 6, 0, 0, ""}},
    {"update/zero", 0xe8832d551dbf4254ull, 0x4207fe379599ef46ull, "expected HELLO",
     {false, "responder error: expected HELLO", 0, true, 0, 0, 0, 67, 2, 0, 0, "epoch=0 inserted=0 deleted=0 rejected=0"},
     {false, "expected HELLO", 0, false, 1, 0, 0, 67, 2, 0, 0, ""}},
    {"reject/scheme", 0x7dbbc3257455a142ull, 0xc09ff7417a186279ull, "unknown scheme 'pbs'",
     {false, "responder rejected: unknown scheme 'pbs'", 0, false, 1, 0, 0, 113, 2, 0, 0, ""},
     {false, "unknown scheme 'pbs'", 0, false, 1, 0, 0, 113, 2, 0, 0, ""}},
    {"reject/version", 0xd41eb79ce2849256ull, 0xa09192ad129e7ca4ull, "unsupported wire version",
     {false, "", 0, false, 0, 0, 0, 0, 0, 0, 0, ""},
     {false, "unsupported wire version", 0, false, 1, 0, 0, 44, 1, 0, 0, ""}},
    {"reject/hello", 0x4524dce6183fb3edull, 0xb6779244451008cdull, "malformed HELLO",
     {false, "", 0, false, 0, 0, 0, 0, 0, 0, 0, ""},
     {false, "malformed HELLO", 0, false, 1, 0, 0, 56, 2, 0, 0, ""}},
    {"reject/readonly", 0x66ea5410ed01004bull, 0x9bcf6cdbc323f41bull, "server is read-only",
     {false, "responder error: server is read-only", 0, false, 1, 0, 0, 69, 2, 0, 0, ""},
     {false, "update on read-only server", 0, false, 1, 0, 0, 69, 2, 0, 0, ""}},
    {"reject/no-elements", 0xf8662e5db4ee036cull, 0x36d937ffc65d42b8ull, "server has no element set",
     {false, "responder error: server has no element set", 0, false, 1, 0, 0, 120, 2, 0, 0, ""},
     {false, "SHARD_PLAN on a server with no element set", 0, false, 1, 0, 0, 120, 2, 0, 0, ""}},
    {"reject/shard-count", 0xb3639514dd65def9ull, 0x05c91f670add60a0ull, "shard count out of range",
     {false, "", 0, false, 0, 0, 0, 0, 0, 0, 0, ""},
     {false, "shard count out of range", 0, false, 1, 0, 0, 119, 2, 0, 0, ""}},
    {"reject/update-then-hello", 0x20434f4a33ab44c4ull, 0x78107ac5bbfdda5dull, "unexpected frame",
     {false, "", 0, false, 0, 0, 0, 0, 0, 0, 0, ""},
     {false, "unexpected frame", 0, false, 1, 0, 0, 183, 4, 0, 0, ""}},
    // clang-format on
};

TEST(SessionGolden, TranscriptsMatchPinnedValues) {
  std::string report;
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const Transcript t = RunCase(c.name);
    Transcript want;
    want.to_responder = c.to_responder;
    want.to_initiator = c.to_initiator;
    want.error_frame = c.error_frame;
    want.initiator = c.initiator;
    want.responder = c.responder;
    const bool same = t.to_responder == want.to_responder &&
                      t.to_initiator == want.to_initiator &&
                      t.error_frame == want.error_frame &&
                      SameSide(t.initiator, want.initiator) &&
                      SameSide(t.responder, want.responder);
    EXPECT_TRUE(same) << "actual:\n    " << Row(c.name, t) << "\nexpected:\n    "
                      << Row(c.name, want);
  }
}

}  // namespace
}  // namespace pbs
