#include "workloads.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "pbs/common/rng.h"
#include "pbs/core/params.h"
#include "pbs/sim/workload.h"
#include "pbs/sync/shard_planner.h"

namespace pbs::e2e {

namespace {

constexpr int kSigBits = 32;
constexpr size_t kHugeKeys = 1000000;

// Seed roles, so no two random choices of a workload share a stream.
constexpr uint64_t kSetsTag = 1;
constexpr uint64_t kSessionTag = 2;
constexpr uint64_t kShardPickTag = 3;
constexpr uint64_t kPoolTag = 4;

// sharded_1m: the difference sits in 2 of the session plan's shards, 8
// keys only in A and 8 only in B in each.
constexpr size_t kPerShardSideDiff = 8;

// churn_100k: every reader session runs under the seed and exact d the
// store layout is keyed to, so the server adopts the snapshot's pre-built
// sketches instead of rebuilding them per session.
constexpr uint64_t kChurnSeed = 0xC11;
constexpr double kChurnExactD = 120.0;
constexpr size_t kChurnBaseKeys = 100000;
constexpr size_t kChurnClients = 24;
constexpr size_t kPoolSize = 50;
constexpr size_t kChurnPools = 8;
constexpr double kChurnWriterHz = 100.0;

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<uint64_t> Concat(const std::vector<uint64_t>& x,
                             const std::vector<uint64_t>& y) {
  std::vector<uint64_t> out = x;
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

// Scheme probes see the whole sets, as a monolithic session does.
void SetMonolithicProbe(Instance* inst, double d_hat) {
  ProbeInputs& p = inst->probe;
  p.a = inst->clients.front().a;
  p.b = inst->served;
  p.seed = inst->session_config(0, 0).seed;
  p.d_hat = d_hat;
  p.scheme_a = p.a;
  p.scheme_b = p.b;
  p.scheme_truth = inst->clients.front().truths.front();
  p.scheme_d_hat = d_hat;
  p.scheme_seed = p.seed;
}

// Closed-loop sessions with a fresh seed per reconciliation and attempt.
std::function<SessionConfig(uint64_t, int)> PerOpConfig(
    uint64_t seed, std::vector<std::string> schemes) {
  const uint64_t sessions = DeriveSeed(seed, kSessionTag);
  return [sessions, schemes](uint64_t op, int attempt) {
    return ConnectConfig(schemes[op % schemes.size()],
                         DeriveSeed(DeriveSeed(sessions, op), attempt));
  };
}

std::unique_ptr<Instance> GenerateBulk(uint64_t seed) {
  SetPair pair =
      GenerateTwoSidedPair(kHugeKeys, 50, 50, kSigBits,
                           DeriveSeed(seed, kSetsTag));
  auto inst = std::make_unique<Instance>();
  inst->clients = {{std::make_shared<const std::vector<uint64_t>>(
                        std::move(pair.a)),
                    {Sorted(pair.truth_diff)}}};
  inst->session_config = PerOpConfig(seed, {"pbs"});
  inst->served =
      std::make_shared<const std::vector<uint64_t>>(std::move(pair.b));
  SetMonolithicProbe(inst.get(), 100.0);
  return inst;
}

std::unique_ptr<Instance> GenerateSharded(uint64_t seed) {
  SetPair base = GenerateTwoSidedPair(kHugeKeys, 0, 0, kSigBits,
                                      DeriveSeed(seed, kSetsTag));
  std::vector<uint64_t> b = std::move(base.b);
  const uint64_t session_seed = DeriveSeed(seed, kSessionTag);
  const sync::ShardPlan plan =
      sync::ShardPlan::Derive(kKeyspaceShards, session_seed);

  Xoshiro256 rng(DeriveSeed(seed, kShardPickTag));
  const uint32_t first =
      static_cast<uint32_t>(rng.NextBounded(kKeyspaceShards));
  uint32_t second = first;
  while (second == first) {
    second = static_cast<uint32_t>(rng.NextBounded(kKeyspaceShards));
  }

  // B-only: the first keys of each chosen shard in generation order.
  // A-only: fresh keys that hash into the same shard.
  const std::vector<uint64_t> sorted_b = Sorted(b);
  std::vector<uint64_t> b_only;
  std::vector<uint64_t> a_only;
  for (const uint32_t shard : {first, second}) {
    size_t taken = 0;
    for (size_t i = 0; i < b.size() && taken < kPerShardSideDiff; ++i) {
      if (plan.ShardOf(b[i]) == shard) {
        b_only.push_back(b[i]);
        ++taken;
      }
    }
    taken = 0;
    while (taken < kPerShardSideDiff) {
      const uint64_t v = rng.Next() & 0xFFFFFFFFull;
      if (v == 0 || plan.ShardOf(v) != shard ||
          std::binary_search(sorted_b.begin(), sorted_b.end(), v) ||
          std::find(a_only.begin(), a_only.end(), v) != a_only.end()) {
        continue;
      }
      a_only.push_back(v);
      ++taken;
    }
  }
  const std::vector<uint64_t> removed = Sorted(b_only);
  std::vector<uint64_t> a;
  a.reserve(b.size());
  for (const uint64_t x : b) {
    if (!std::binary_search(removed.begin(), removed.end(), x)) a.push_back(x);
  }
  a.insert(a.end(), a_only.begin(), a_only.end());

  auto inst = std::make_unique<Instance>();
  inst->clients = {{std::make_shared<const std::vector<uint64_t>>(std::move(a)),
                    {Sorted(Concat(a_only, b_only))}}};
  inst->session_config = [session_seed](uint64_t, int attempt) {
    SessionConfig config = ConnectConfig(
        "pbs", attempt == 0 ? session_seed : DeriveSeed(session_seed, attempt));
    config.keyspace_shards = kKeyspaceShards;
    return config;
  };

  const std::vector<uint64_t>& truth = inst->clients.front().truths.front();
  ProbeInputs& p = inst->probe;
  p.a = inst->clients.front().a;
  p.b = std::make_shared<const std::vector<uint64_t>>(std::move(b));
  p.seed = session_seed;
  p.d_hat = static_cast<double>(truth.size());
  std::vector<std::vector<uint64_t>> a_slice;
  std::vector<std::vector<uint64_t>> b_slice;
  sync::PartitionSelected(p.a->data(), p.a->size(), plan, {first}, &a_slice);
  sync::PartitionSelected(p.b->data(), p.b->size(), plan, {first},
                          &b_slice);
  p.scheme_a =
      std::make_shared<const std::vector<uint64_t>>(std::move(a_slice[0]));
  p.scheme_b =
      std::make_shared<const std::vector<uint64_t>>(std::move(b_slice[0]));
  for (const uint64_t x : truth) {
    if (plan.ShardOf(x) == first) p.scheme_truth.push_back(x);
  }
  p.scheme_d_hat = static_cast<double>(p.scheme_truth.size());
  p.scheme_seed = plan.SubSeed(first);
  inst->served = p.b;
  return inst;
}

std::unique_ptr<Instance> GenerateStorm(uint64_t seed) {
  SetPair pair =
      GenerateTwoSidedPair(1000, 10, 10, kSigBits, DeriveSeed(seed, kSetsTag));
  auto inst = std::make_unique<Instance>();
  inst->readers = 4;
  inst->clients = {{std::make_shared<const std::vector<uint64_t>>(
                        std::move(pair.a)),
                    {Sorted(pair.truth_diff)}}};
  inst->session_config =
      PerOpConfig(seed, SchemeRegistry::Instance().Names());
  inst->server_shards = 2;
  inst->served =
      std::make_shared<const std::vector<uint64_t>>(std::move(pair.b));
  SetMonolithicProbe(inst.get(), 20.0);
  return inst;
}

std::unique_ptr<Instance> GenerateChurn(uint64_t seed) {
  // kChurnClients replicas share the base set and each holds its own 10
  // keys the server lacks: every session runs under the one seed the
  // layout is keyed to, so without distinct clients all sessions of a
  // workload seed would decode alike and that seed's round count would
  // set the whole run's cost.
  SetPair pair = GenerateTwoSidedPair(kChurnBaseKeys, 10 * kChurnClients, 10,
                                      kSigBits, DeriveSeed(seed, kSetsTag));
  const std::vector<uint64_t> shared(pair.a.begin(),
                                     pair.a.begin() + kChurnBaseKeys);
  const std::vector<uint64_t> b_only(pair.b.begin() + kChurnBaseKeys,
                                     pair.b.end());
  // Disjoint pools outside every set. The served set always holds
  // exactly one, so every epoch is 10 + 10 + 50 = 70 keys from each
  // client. The writer rotates through kChurnPools of them rather than
  // swapping two: sessions share seed 0xC11, so a bin collision among
  // the server-side keys sends every session of a served state to a
  // second round, and two states would make that all-or-nothing per seed.
  std::unordered_set<uint64_t> used(pair.a.begin(), pair.a.end());
  used.insert(b_only.begin(), b_only.end());
  Xoshiro256 rng(DeriveSeed(seed, kPoolTag));
  std::vector<std::vector<uint64_t>> pools(kChurnPools);
  for (std::vector<uint64_t>& pool : pools) {
    while (pool.size() < kPoolSize) {
      const uint64_t v = rng.Next() & 0xFFFFFFFFull;
      if (v != 0 && used.insert(v).second) pool.push_back(v);
    }
  }

  auto inst = std::make_unique<Instance>();
  inst->readers = 3;
  for (size_t c = 0; c < kChurnClients; ++c) {
    const std::vector<uint64_t> a_only(
        pair.truth_diff.begin() + 10 * c,
        pair.truth_diff.begin() + 10 * (c + 1));
    const std::vector<uint64_t> differs = Concat(a_only, b_only);
    Instance::Client client;
    client.a =
        std::make_shared<const std::vector<uint64_t>>(Concat(shared, a_only));
    for (const std::vector<uint64_t>& pool : pools) {
      client.truths.push_back(Sorted(Concat(differs, pool)));
    }
    inst->clients.push_back(std::move(client));
  }
  inst->session_config = [](uint64_t, int attempt) {
    SessionConfig config = ConnectConfig(
        "pbs", attempt == 0 ? kChurnSeed : DeriveSeed(kChurnSeed, attempt));
    config.exact_d = kChurnExactD;
    return config;
  };
  inst->writer_hz = kChurnWriterHz;
  inst->pools = std::move(pools);

  inst->server_shards = 2;
  inst->store_backed = true;
  inst->served =
      std::make_shared<const std::vector<uint64_t>>(
          Concat(pair.b, inst->pools.front()));
  SetMonolithicProbe(inst.get(), kChurnExactD);
  return inst;
}

// The churn store's layout is keyed to kChurnSeed and the inflated
// kChurnExactD. Adoption guard: it must be exactly the plan a reader
// session asks for, or every session silently rebuilds its sketches and
// churn_100k stops measuring snapshot adoption.
bool ConfigureChurnLayout(const Instance& inst, MutableElementStore* store,
                          std::string* error) {
  const PbsConfig layout_config = PbsConfigOf(ConnectOptions());
  if (!store->ConfigureLayout(
          layout_config, kChurnSeed,
          InflateEstimate(kChurnExactD, layout_config.gamma), error)) {
    return false;
  }
  const SessionConfig reader = inst.session_config(0, 0);
  const PbsConfig reader_pbs = PbsConfigOf(reader.options);
  const PbsPlan want =
      PlanFor(reader_pbs, InflateEstimate(reader.exact_d, reader_pbs.gamma));
  const auto layout = store->snapshot()->layout;
  if (layout == nullptr || layout->seed != reader.seed ||
      layout->plan.params.g != want.params.g ||
      layout->plan.params.n != want.params.n ||
      layout->plan.params.m != want.params.m ||
      layout->plan.params.t != want.params.t) {
    *error =
        "churn_100k: the store layout is not the readers' plan, so sessions "
        "would rebuild instead of adopting the snapshot";
    return false;
  }
  return true;
}

const WorkloadSpec kWorkloads[] = {
    {"bulk_1m", 0.0, 0.90, 4, GenerateBulk},
    {"sharded_1m", 0.5, 0.90, 10, GenerateSharded},
    {"storm_small", 0.5, 0.99, 500, GenerateStorm},
    {"churn_100k", 2.0, 0.90, 100, GenerateChurn},
};

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 mix(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return mix.Next();
}

SchemeOptions ConnectOptions() {
  SchemeOptions options;
  options.sig_bits = kSigBits;
  options.pbs.max_rounds = 3;
  options.pbs.target_rounds = 3;
  options.pbs.p0 = 0.99;
  options.pbs.delta = 5;
  options.pbs.strong_verification = true;
  return options;
}

PbsConfig PbsConfigOf(const SchemeOptions& options) {
  PbsConfig config = options.pbs;
  config.sig_bits = options.sig_bits;
  return config;
}

SessionConfig ConnectConfig(const std::string& scheme, uint64_t seed) {
  SessionConfig config;
  config.scheme_name = scheme;
  config.options = ConnectOptions();
  config.seed = seed;
  config.estimate_seed = seed ^ 0xE57A11CE;  // As pbs_cli connect derives it.
  return config;
}

Instance::~Instance() {
  if (server != nullptr) server->Stop();
  if (serving.joinable()) serving.join();
}

bool Instance::Serve(std::vector<uint64_t> elements, std::string* error) {
  ServerOptions options;
  options.shards = server_shards;
  options.max_sessions = 64;
  options.idle_timeout_ms = 120000;
  if (store_backed) {
    store = std::make_shared<MutableElementStore>(std::move(elements));
    elements.clear();
    if (!ConfigureChurnLayout(*this, store.get(), error)) return false;
    options.mutable_store = store;
  }
  server = ReconcileServer::Create(options, std::move(elements), error);
  return server != nullptr;
}

void Instance::Unserve() {
  server.reset();
  store.reset();
}

void Instance::Start() {
  serving = std::thread([this] { server->Run(); });
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace pbs::e2e
