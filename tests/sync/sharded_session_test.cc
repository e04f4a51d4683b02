// Sharded session differential suite: the load-bearing guarantee is that
// a sharded session recovers EXACTLY the monolithic difference -- for
// every registered scheme, every shard count, every pipeline depth, and
// every byte chunking. On top of that: the identical-set fast path
// settles in four frames without shipping leaves,
// responder-side shard-count clamping works, the exact_d path skips the
// per-shard estimate exchange, and a mutable store's incrementally
// maintained shard checksums are adopted (and a mismatched configuration
// falls back to streaming) without changing the recovered difference, and
// a resume token minted by a resumed attempt keeps the shards banked
// before it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "pbs/common/rng.h"
#include "pbs/core/element_store.h"
#include "pbs/core/messages.h"
#include "pbs/core/session_engine.h"
#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"
#include "pbs/sync/sharded_session.h"

namespace pbs {
namespace {

// Pumps two engines against each other on the calling thread, moving
// outbound bytes in chunks of next_chunk() bytes (clamped to >= 1).
template <typename ChunkFn>
void PumpEngines(SessionEngine* initiator, SessionEngine* responder,
                 ChunkFn next_chunk) {
  std::vector<uint8_t> buffer(1 << 16);
  bool progress = true;
  while (progress) {
    progress = false;
    while (initiator->Status() == SessionStatus::kWantWrite) {
      const size_t want = std::max<size_t>(1, next_chunk());
      const size_t n =
          initiator->Poll(buffer.data(), std::min(want, buffer.size()));
      responder->Feed(buffer.data(), n);
      progress = true;
    }
    while (responder->Status() == SessionStatus::kWantWrite) {
      const size_t want = std::max<size_t>(1, next_chunk());
      const size_t n =
          responder->Poll(buffer.data(), std::min(want, buffer.size()));
      initiator->Feed(buffer.data(), n);
      progress = true;
    }
  }
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

SessionConfig BaseConfig(const std::string& scheme) {
  SessionConfig config;
  config.scheme_name = scheme;
  config.options.pbs.max_rounds = 8;
  config.options.pbs.target_rounds = 3;
  config.seed = 0x5EED;
  config.estimate_seed = 0xE571;
  return config;
}

// The acceptance-pinned differential: for every scheme x shard count, the
// sorted sharded difference equals the sorted monolithic difference equals
// the ground truth.
TEST(ShardedSession, DifferenceMatchesMonolithicForEveryScheme) {
  const SetPair pair = GenerateTwoSidedPair(1500, 20, 25, 32, 0xC4A);
  const std::vector<uint64_t> truth = Sorted(pair.truth_diff);
  for (const std::string& name : SchemeRegistry::Instance().Names()) {
    SCOPED_TRACE(name);
    SessionConfig mono = BaseConfig(name);
    const SessionResult reference = RunLoopbackSession(mono, pair.a, pair.b);
    ASSERT_TRUE(reference.ok) << reference.error;
    EXPECT_EQ(Sorted(reference.outcome.difference), truth);

    for (int shards : {2, 7, 16}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      SessionConfig config = BaseConfig(name);
      config.keyspace_shards = shards;
      const SessionResult result = RunLoopbackSession(config, pair.a, pair.b);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_TRUE(result.outcome.success);
      EXPECT_EQ(Sorted(result.outcome.difference), truth);
      EXPECT_EQ(result.scheme, name);
      EXPECT_GT(result.d_hat, 0.0);
    }
  }
}

// Identical sets: equal Merkle roots settle the whole session in four
// frames (SHARD_PLAN, SHARD_PLAN_ACK, DONE, DONE ack) -- no leaves, no
// sub-sessions, no estimate exchange.
TEST(ShardedSession, IdenticalSetsSettleInFourFrames) {
  const SetPair pair = GenerateTwoSidedPair(2000, 0, 0, 32, 0xD00D);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 64;
  const SessionResult result = RunLoopbackSession(config, pair.a, pair.a);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.outcome.success);
  EXPECT_TRUE(result.outcome.difference.empty());
  EXPECT_EQ(result.outcome.rounds, 0);
  EXPECT_EQ(result.outcome.wire_frames, 4);
  EXPECT_EQ(result.d_hat, 0.0);
  EXPECT_NE(result.outcome.params_summary.find("identical=64"),
            std::string::npos)
      << result.outcome.params_summary;
}

// A small difference under many shards: most shards are identical, the
// pre-filter names the few that differ, and the summary accounts for
// both populations.
TEST(ShardedSession, PrefilterSkipsIdenticalShards) {
  const SetPair pair = GenerateTwoSidedPair(4000, 2, 1, 32, 0xF00);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 256;
  const SessionResult result = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(Sorted(result.outcome.difference), Sorted(pair.truth_diff));
  // At most 3 differing elements -> at most 3 differing shards.
  const std::string& summary = result.outcome.params_summary;
  EXPECT_NE(summary.find("shards=256"), std::string::npos) << summary;
  size_t identical = 0, differing = 0;
  ASSERT_EQ(std::sscanf(summary.c_str(), "shards=%*d identical=%zu differing=%zu",
                        &identical, &differing),
            2)
      << summary;
  EXPECT_LE(differing, 3u);
  EXPECT_EQ(identical + differing, 256u);
}

// Byte-chunking torture: one byte at a time and seeded random chunks.
// Frame ORDER may legally vary with chunking (pipeline top-ups interleave
// differently), so only the recovered difference and success are pinned.
TEST(ShardedSession, ChunkedFeedsRecoverTheSameDifference) {
  const SetPair pair = GenerateTwoSidedPair(1200, 15, 18, 32, 0xABC);
  const std::vector<uint64_t> truth = Sorted(pair.truth_diff);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 8;
  {
    SCOPED_TRACE("one byte at a time");
    SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
    SessionEngine responder = SessionEngine::Responder(pair.b);
    PumpEngines(&initiator, &responder, [] { return size_t{1}; });
    ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
        << initiator.result().error;
    EXPECT_EQ(Sorted(initiator.TakeResult().outcome.difference), truth);
    EXPECT_TRUE(responder.result().ok) << responder.result().error;
  }
  {
    SCOPED_TRACE("random chunks");
    Xoshiro256 rng(0xC0FFEE);
    SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
    SessionEngine responder = SessionEngine::Responder(pair.b);
    PumpEngines(&initiator, &responder,
                [&rng] { return 1 + rng.NextBounded(97); });
    ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
        << initiator.result().error;
    EXPECT_EQ(Sorted(initiator.TakeResult().outcome.difference), truth);
    EXPECT_TRUE(responder.result().ok) << responder.result().error;
  }
}

// Pipeline depth is a pacing knob, never a correctness knob.
TEST(ShardedSession, PipelineDepthDoesNotChangeTheDifference) {
  const SetPair pair = GenerateTwoSidedPair(1500, 20, 25, 32, 0xC4A);
  const std::vector<uint64_t> truth = Sorted(pair.truth_diff);
  for (int pipeline : {1, 2, 64}) {
    SCOPED_TRACE("pipeline=" + std::to_string(pipeline));
    SessionConfig config = BaseConfig("pbs");
    config.keyspace_shards = 16;
    config.shard_pipeline = pipeline;
    const SessionResult result = RunLoopbackSession(config, pair.a, pair.b);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(Sorted(result.outcome.difference), truth);
  }
}

// exact_d >= 0 skips the per-shard estimate exchange entirely (it is a
// valid upper bound for every shard); the difference is unchanged and no
// estimator bytes move.
TEST(ShardedSession, ExactDSkipsPerShardEstimates) {
  const SetPair pair = GenerateTwoSidedPair(1000, 10, 12, 32, 0x777);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 4;
  config.exact_d = 22.0;  // d per shard is at most the total d.
  const SessionResult result = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(Sorted(result.outcome.difference), Sorted(pair.truth_diff));
  EXPECT_EQ(result.outcome.estimator_bytes, 0u);
}

// A responder configured with a smaller (>= 2) shard count clamps the
// initiator's proposal; the initiator re-derives its plan and the session
// runs at the clamped count.
TEST(ShardedSession, ResponderClampsShardCount) {
  const SetPair pair = GenerateTwoSidedPair(1500, 20, 25, 32, 0xC4A);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 64;
  SessionConfig local;
  local.keyspace_shards = 4;
  SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
  SessionEngine responder = SessionEngine::Responder(
      local, std::make_shared<const std::vector<uint64_t>>(pair.b));
  PumpEngines(&initiator, &responder, [] { return size_t{1 << 16}; });
  ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
      << initiator.result().error;
  const SessionResult result = initiator.TakeResult();
  EXPECT_EQ(Sorted(result.outcome.difference), Sorted(pair.truth_diff));
  EXPECT_NE(result.outcome.params_summary.find("shards=4"), std::string::npos)
      << result.outcome.params_summary;
}

// A responder with a LARGER local count must not clamp (clamping only
// ever shrinks the proposal).
TEST(ShardedSession, ResponderNeverRaisesShardCount) {
  const SetPair pair = GenerateTwoSidedPair(1000, 8, 9, 32, 0x123);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 4;
  SessionConfig local;
  local.keyspace_shards = 256;
  SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
  SessionEngine responder = SessionEngine::Responder(
      local, std::make_shared<const std::vector<uint64_t>>(pair.b));
  PumpEngines(&initiator, &responder, [] { return size_t{1 << 16}; });
  ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
      << initiator.result().error;
  const SessionResult result = initiator.TakeResult();
  EXPECT_EQ(Sorted(result.outcome.difference), Sorted(pair.truth_diff));
  EXPECT_NE(result.outcome.params_summary.find("shards=4"), std::string::npos)
      << result.outcome.params_summary;
}

// Out-of-range shard counts are a configuration error, surfaced before
// any bytes move.
TEST(ShardedSession, OutOfRangeShardCountFailsFast) {
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 5000;  // > kMaxKeyspaceShards.
  SessionEngine initiator = SessionEngine::Initiator(config, {1, 2, 3});
  EXPECT_EQ(initiator.Status(), SessionStatus::kError);
}

// A sharded session carries scheme rounds only inside SUB_SESSION
// records; a bare SCHEME_REQUEST after SHARD_PLAN is a protocol violation
// the responder must reject, even when the embedded HELLO carries
// exact_d (which lets a monolithic responder skip the estimate).
TEST(ShardedSession, BareSchemeRequestIsRejected) {
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 4;
  config.exact_d = 3.0;
  SessionEngine initiator = SessionEngine::Initiator(config, {1, 2, 3});
  SessionEngine responder = SessionEngine::Responder({1, 2, 4});
  std::vector<uint8_t> bytes(initiator.outbound_data(),
                             initiator.outbound_data() +
                                 initiator.outbound_size());
  const uint8_t request[] = {1, 2, 3, 4};
  wire::AppendFrame(wire::FrameType::kSchemeRequest, 1, 1, request,
                    sizeof(request), &bytes);
  responder.Feed(bytes.data(), bytes.size());
  responder.ConsumeOutbound(responder.outbound_size());
  EXPECT_EQ(responder.Status(), SessionStatus::kError);
  EXPECT_EQ(responder.result().error, "unexpected frame");
}

// Runs `config` against a fresh responder over `b`, one round trip per
// step, and cuts the connection after `steps` round trips -- or, with
// drop_done_echo, right before the responder's DONE echo would reach the
// initiator. Returns the (failed) initiator's result.
SessionResult RunCutSession(const SessionConfig& config,
                            const std::vector<uint64_t>& a,
                            const std::vector<uint64_t>& b, int steps,
                            bool drop_done_echo) {
  SessionEngine initiator = SessionEngine::Initiator(config, a);
  SessionEngine responder = SessionEngine::Responder(b);
  for (int i = 0; i < steps; ++i) {
    responder.Feed(initiator.outbound_data(), initiator.outbound_size());
    initiator.ConsumeOutbound(initiator.outbound_size());
    if (drop_done_echo && responder.result().ok) break;
    initiator.Feed(responder.outbound_data(), responder.outbound_size());
    responder.ConsumeOutbound(responder.outbound_size());
  }
  initiator.FeedEof();
  return initiator.TakeResult();
}

// A resume token minted by an already-resumed attempt still carries the
// differences banked by the attempts before it: cut a session mid-run,
// resume it, lose the final DONE echo of the resumed attempt, then
// resume again from the second token. The last attempt has no shard left
// to reconcile and must still report the full difference.
TEST(ShardedSession, ResumeTokenOfAResumedSessionKeepsBankedShards) {
  const SetPair pair = GenerateTwoSidedPair(1500, 20, 25, 32, 0xBA5);
  const std::vector<uint64_t> truth = Sorted(pair.truth_diff);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 16;
  config.shard_pipeline = 1;
  config.exact_d = 8.0;

  // The first cut that leaves both settled and pending shards.
  std::shared_ptr<sync::ShardResumeState> first;
  for (int steps = 1; steps < 64 && first == nullptr; ++steps) {
    SessionResult cut = RunCutSession(config, pair.a, pair.b, steps, false);
    ASSERT_FALSE(cut.ok);
    if (cut.resume_state != nullptr && cut.resume_state->settled_count > 0 &&
        !cut.resume_state->pending.empty()) {
      first = cut.resume_state;
    }
  }
  ASSERT_NE(first, nullptr) << "no cut left a partially settled session";

  SessionConfig resumed = config;
  resumed.resume = first;
  const SessionResult second =
      RunCutSession(resumed, pair.a, pair.b, 1 << 10, true);
  ASSERT_FALSE(second.ok);
  ASSERT_NE(second.resume_state, nullptr) << second.error;
  EXPECT_TRUE(second.resume_state->pending.empty());
  EXPECT_EQ(Sorted(second.resume_state->settled_difference), truth);

  resumed.resume = second.resume_state;
  SessionEngine initiator = SessionEngine::Initiator(resumed, pair.a);
  SessionEngine responder = SessionEngine::Responder(pair.b);
  PumpEngines(&initiator, &responder, [] { return size_t{1 << 16}; });
  ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
      << initiator.result().error;
  EXPECT_EQ(Sorted(initiator.TakeResult().outcome.difference), truth);
}

// A mutable store's incrementally maintained shard checksums are adopted
// when (shard_count, seed) match the negotiated session -- and the
// difference is identical to the streaming path either way.
TEST(ShardedSession, StoreShardChecksumsAdoptedWhenMatching) {
  const SetPair pair = GenerateTwoSidedPair(1500, 20, 25, 32, 0xC4A);
  const std::vector<uint64_t> truth = Sorted(pair.truth_diff);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 16;

  for (bool matching : {true, false}) {
    SCOPED_TRACE(matching ? "matching config" : "mismatched seed");
    auto store = std::make_shared<MutableElementStore>(pair.b);
    std::string error;
    ASSERT_TRUE(store->ConfigureShardChecksums(
        16, matching ? config.seed : config.seed ^ 1, &error))
        << error;
    SessionConfig local;
    SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
    SessionEngine responder =
        SessionEngine::Responder(local, store->snapshot(), store);
    PumpEngines(&initiator, &responder, [] { return size_t{1 << 16}; });
    ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
        << initiator.result().error;
    EXPECT_EQ(Sorted(initiator.TakeResult().outcome.difference), truth);
  }
}

// The store's incremental checksums stay correct across churn: after
// mutations, a session against the new snapshot still recovers the right
// difference (the snapshot's adopted leaves reflect the mutated set).
TEST(ShardedSession, StoreChecksumsTrackMutations) {
  const SetPair pair = GenerateTwoSidedPair(1200, 10, 10, 32, 0x5A5);
  SessionConfig config = BaseConfig("pbs");
  config.keyspace_shards = 8;

  auto store = std::make_shared<MutableElementStore>(pair.b);
  std::string error;
  ASSERT_TRUE(store->ConfigureShardChecksums(8, config.seed, &error)) << error;
  // Mutate: remove one of B's exclusive elements and add one of A's.
  std::vector<uint64_t> b_only, a_only;
  for (uint64_t e : pair.b) {
    if (std::find(pair.a.begin(), pair.a.end(), e) == pair.a.end()) {
      b_only.push_back(e);
    }
  }
  for (uint64_t e : pair.a) {
    if (std::find(pair.b.begin(), pair.b.end(), e) == pair.b.end()) {
      a_only.push_back(e);
    }
  }
  ASSERT_FALSE(b_only.empty());
  ASSERT_FALSE(a_only.empty());
  ASSERT_TRUE(store->ApplyDelete(b_only[0]));
  ASSERT_TRUE(store->ApplyInsert(a_only[0]));
  store->Publish();

  // Ground truth against the mutated B.
  auto snapshot = store->snapshot();
  std::vector<uint64_t> truth;
  for (uint64_t e : pair.a) {
    if (std::find(snapshot->elements->begin(), snapshot->elements->end(), e) ==
        snapshot->elements->end()) {
      truth.push_back(e);
    }
  }
  for (uint64_t e : *snapshot->elements) {
    if (std::find(pair.a.begin(), pair.a.end(), e) == pair.a.end()) {
      truth.push_back(e);
    }
  }

  SessionConfig local;
  SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
  SessionEngine responder = SessionEngine::Responder(local, snapshot, store);
  PumpEngines(&initiator, &responder, [] { return size_t{1 << 16}; });
  ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
      << initiator.result().error;
  EXPECT_EQ(Sorted(initiator.TakeResult().outcome.difference), Sorted(truth));
}

// Wire economy: when a large set differs in only a couple of shards, the
// pre-filter lets the sharded session skip the ToW sketch exchange
// entirely (the diff bitmap already bounds the damage), while the
// monolithic session must sketch the full million-element set. The
// leaves + skipped-estimate total undercuts the monolithic sketch.
// Pinned here at 10^6 scale; bench_sharded_sync sweeps it further.
TEST(ShardedSession, CheaperThanMonolithicWhenMostShardsIdentical) {
  const SetPair pair = GenerateTwoSidedPair(1000000, 1, 1, 48, 0xEC0);
  SessionConfig mono = BaseConfig("pbs");
  mono.options.sig_bits = 48;
  const SessionResult mono_result = RunLoopbackSession(mono, pair.a, pair.b);
  ASSERT_TRUE(mono_result.ok) << mono_result.error;

  SessionConfig config = BaseConfig("pbs");
  config.options.sig_bits = 48;
  config.keyspace_shards = 16;
  const SessionResult sharded = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(sharded.ok) << sharded.error;
  // The skip path never ships a sketch: estimator bytes must be zero.
  EXPECT_EQ(sharded.outcome.estimator_bytes, 0u);
  EXPECT_GT(mono_result.outcome.estimator_bytes, 0u);
  EXPECT_EQ(Sorted(sharded.outcome.difference),
            Sorted(mono_result.outcome.difference));
  EXPECT_LT(sharded.outcome.wire_bytes, mono_result.outcome.wire_bytes)
      << "sharded " << sharded.outcome.wire_bytes << " vs monolithic "
      << mono_result.outcome.wire_bytes;
}

}  // namespace
}  // namespace pbs
