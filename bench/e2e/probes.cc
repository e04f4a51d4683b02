#include "probes.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "pbs/common/rng.h"
#include "pbs/core/element_store.h"
#include "pbs/core/params.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/estimator/tow.h"
#include "pbs/sync/merkle_prefilter.h"
#include "pbs/sync/shard_planner.h"

namespace pbs::e2e {

namespace {

// A probe repeats until it has run this long (at least once, at most
// kMaxReps times) and reports the median: one repetition on a 10^6-key
// set already takes seconds, one on 10^3 keys microseconds.
constexpr double kBudgetSeconds = 1.0;
constexpr int kMaxReps = 25;
constexpr int kEstimateCalls = 1000;
constexpr size_t kApplyBatchSide = 50;

// Span names must outlive the tracer; scheme names are only known at run
// time, so their span names live here.
const char* Intern(const std::string& name) {
  static std::set<std::string>* names = new std::set<std::string>();
  return names->insert(name).first->c_str();
}

class Probe {
 public:
  explicit Probe(Tracer* tracer) : tracer_(tracer) {}

  /// Runs `fn` once as span `span` and returns its duration in ms.
  template <typename Fn>
  double Timed(const char* span, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    tracer_->Record(0, tracer_->NewId(), 0, span, start, end);
    return MsBetween(start, end);
  }

  /// Calls `rep` until the probe budget is spent.
  template <typename Rep>
  void Repeat(Rep&& rep) {
    const Clock::time_point start = Clock::now();
    int reps = 0;
    do {
      rep();
      ++reps;
    } while (reps < kMaxReps &&
             MsBetween(start, Clock::now()) < kBudgetSeconds * 1e3);
  }

  void Keep(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }

  void Medians(std::map<std::string, double>* out) const {
    for (const auto& [metric, values] : samples_) {
      (*out)[metric] = Median(values);
    }
  }

 private:
  Tracer* tracer_;
  std::map<std::string, std::vector<double>> samples_;
};

void EstimatorProbes(const ProbeInputs& in, Probe* probe,
                     ProbeReport* report) {
  const int ell = ConnectOptions().pbs.ell;
  const uint64_t seed = ConnectConfig("pbs", in.seed).estimate_seed;
  TowSketch local(ell, seed);
  local.AddAll(*in.b);
  TowSketch remote(ell, seed);
  probe->Repeat([&] {
    probe->Keep("estimator.tow_build_ms",
                probe->Timed("estimator.tow_build", [&] {
                  remote = TowSketch(ell, seed);
                  remote.AddAll(*in.a);
                }));
  });
  double sink = 0.0;
  probe->Repeat([&] {
    const double ms = probe->Timed("estimator.estimate", [&] {
      for (int i = 0; i < kEstimateCalls; ++i) {
        sink += TowSketch::Estimate(remote, local);
      }
    });
    probe->Keep("estimator.estimate_us", ms * 1e3 / kEstimateCalls);
  });
  // A sum of squares: never negative.
  if (!(sink >= 0.0)) report->error = "ToW estimate is negative";
}

void PlannerProbe(const ProbeInputs& in, Probe* probe, ProbeReport* report) {
  const PbsConfig config = PbsConfigOf(ConnectOptions());
  const int d_used = InflateEstimate(in.scheme_d_hat, config.gamma);
  probe->Repeat([&] {
    PbsPlan plan;
    probe->Keep("markov.plan_ms", probe->Timed("markov.plan", [&] {
      plan = PlanFor(config, d_used);
    }));
    if (plan.params.g <= 0) report->error = "PlanFor returned no groups";
  });
}

// One full in-memory exchange per repetition through the scheme's own
// wire engines, each call timed; the outcome is checked like a session's.
void SchemeProbes(const ProbeInputs& in, Probe* probe, ProbeReport* report) {
  const SchemeOptions options = ConnectOptions();
  for (const std::string& name : SchemeRegistry::Instance().Names()) {
    const std::unique_ptr<SetReconciler> scheme =
        SchemeRegistry::Instance().Create(name, options);
    const std::string prefix = "scheme." + name + ".";
    const char* init_span = Intern(prefix + "initiator_setup");
    const char* resp_span = Intern(prefix + "responder_setup");
    const char* request_span = Intern(prefix + "request");
    const char* reply_span = Intern(prefix + "reply");
    const char* handle_span = Intern(prefix + "handle_reply");
    probe->Repeat([&] {
      std::vector<uint64_t> a = *in.scheme_a;
      std::vector<uint64_t> b = *in.scheme_b;
      std::unique_ptr<ReconcileInitiator> initiator;
      std::unique_ptr<ReconcileResponder> responder;
      probe->Keep(prefix + "initiator_setup_ms",
                  probe->Timed(init_span, [&] {
                    initiator = scheme->CreateInitiator(
                        std::move(a), in.scheme_d_hat, in.scheme_seed);
                  }));
      probe->Keep(prefix + "responder_setup_ms",
                  probe->Timed(resp_span, [&] {
                    responder = scheme->CreateResponder(
                        std::move(b), in.scheme_d_hat, in.scheme_seed);
                  }));
      if (initiator == nullptr || responder == nullptr) {
        report->error = name + " has no wire engines";
        return;
      }
      std::vector<uint8_t> request;
      std::vector<uint8_t> reply;
      double request_ms = 0.0, reply_ms = 0.0, handle_ms = 0.0;
      bool well_formed = true;
      while (well_formed && !initiator->done()) {
        request_ms += probe->Timed(
            request_span, [&] { initiator->NextRequestInto(&request); });
        reply_ms += probe->Timed(reply_span, [&] {
          well_formed = responder->HandleRequest(request, &reply);
        });
        if (!well_formed) break;
        handle_ms += probe->Timed(handle_span, [&] {
          well_formed = initiator->HandleReply(reply);
        });
      }
      probe->Keep(prefix + "request_ms", request_ms);
      probe->Keep(prefix + "reply_ms", reply_ms);
      probe->Keep(prefix + "handle_reply_ms", handle_ms);
      if (!well_formed) {
        report->error = name + " rejected its own peer's message";
        return;
      }
      ReconcileOutcome outcome = initiator->TakeOutcome();
      std::sort(outcome.difference.begin(), outcome.difference.end());
      // A decode miss is an honest outcome; only a claimed success must
      // match.
      if (outcome.success && outcome.difference != in.scheme_truth) {
        report->wrong += 1;
      }
    });
  }
}

// A store over the served set whose layout matches a PBS session with
// the workload's seed and d: the snapshot responder adopts it. The same
// store then takes 100-mutation batches that swap 50 keys in and out.
void StoreProbes(const ProbeInputs& in, Probe* probe, ProbeReport* report) {
  const SchemeOptions options = ConnectOptions();
  const PbsConfig config = PbsConfigOf(options);
  MutableElementStore store(*in.b);
  std::string error;
  if (!store.ConfigureLayout(config, in.seed,
                             InflateEstimate(in.d_hat, config.gamma),
                             &error)) {
    report->error = "probe store: " + error;
    return;
  }
  const std::unique_ptr<SetReconciler> pbs =
      SchemeRegistry::Instance().Create("pbs", options);
  probe->Repeat([&] {
    std::unique_ptr<ReconcileInitiator> initiator =
        pbs->CreateInitiator(*in.a, in.d_hat, in.seed);
    std::vector<uint8_t> request;
    std::vector<uint8_t> reply;
    initiator->NextRequestInto(&request);
    bool ok = false;
    probe->Keep("core.snapshot_responder_setup_ms",
                probe->Timed("core.snapshot_responder_setup", [&] {
                  std::unique_ptr<ReconcileResponder> responder =
                      pbs->CreateSnapshotResponder(store.snapshot(),
                                                   in.d_hat, in.seed);
                  ok = responder != nullptr &&
                       responder->HandleRequest(request, &reply);
                }));
    if (!ok) report->error = "snapshot responder rejected a PBS request";
  });

  std::vector<uint64_t> sorted_b = *in.b;
  std::sort(sorted_b.begin(), sorted_b.end());
  std::vector<uint64_t> fresh;
  Xoshiro256 rng(in.seed);
  while (fresh.size() < kApplyBatchSide) {
    const uint64_t v = rng.Next() & 0xFFFFFFFFull;
    if (v != 0 && !std::binary_search(sorted_b.begin(), sorted_b.end(), v) &&
        std::find(fresh.begin(), fresh.end(), v) == fresh.end()) {
      fresh.push_back(v);
    }
  }
  const std::vector<uint64_t> present(in.b->begin(),
                                      in.b->begin() + kApplyBatchSide);
  bool swapped_in = false;
  probe->Repeat([&] {
    UpdateBatch batch;
    batch.inserts = swapped_in ? present : fresh;
    batch.deletes = swapped_in ? fresh : present;
    ApplyResult applied;
    probe->Keep("store.apply_ms", probe->Timed("store.apply", [&] {
      applied = store.Apply(batch);
    }));
    if (applied.inserted != kApplyBatchSide ||
        applied.deleted != kApplyBatchSide) {
      report->error = "probe store rejected a mutation";
    }
    swapped_in = !swapped_in;
  });
}

void SyncProbes(const ProbeInputs& in, Probe* probe, ProbeReport* report) {
  const sync::ShardPlan plan =
      sync::ShardPlan::Derive(kKeyspaceShards, in.seed);
  const std::vector<uint64_t> leaves_b =
      sync::ComputeShardLeaves(plan, in.b->data(), in.b->size());
  std::vector<uint64_t> leaves_a;
  probe->Repeat([&] {
    probe->Keep("sync.leaves_ms", probe->Timed("sync.leaves", [&] {
      leaves_a = sync::ComputeShardLeaves(plan, in.a->data(), in.a->size());
    }));
  });
  const std::vector<uint32_t> differing =
      sync::DiffDigestLeaves(leaves_a, leaves_b);
  report->metrics["sync.differing_shards"] =
      static_cast<double>(differing.size());
  std::vector<std::vector<uint64_t>> parts;
  probe->Repeat([&] {
    probe->Keep("sync.partition_ms", probe->Timed("sync.partition", [&] {
      sync::PartitionSelected(in.a->data(), in.a->size(), plan, differing,
                              &parts);
    }));
  });
}

}  // namespace

ProbeReport RunProbes(const ProbeInputs& in, Tracer* tracer) {
  ProbeReport report;
  Probe probe(tracer);
  EstimatorProbes(in, &probe, &report);
  PlannerProbe(in, &probe, &report);
  SchemeProbes(in, &probe, &report);
  StoreProbes(in, &probe, &report);
  SyncProbes(in, &probe, &report);
  probe.Medians(&report.metrics);
  return report;
}

}  // namespace pbs::e2e
