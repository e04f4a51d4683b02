#include "pbs/core/set_reconciler.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace pbs {

namespace {

ReconcileOutcome FailedOutcome(const char* reason) {
  ReconcileOutcome outcome;
  outcome.params_summary = reason;
  return outcome;
}

}  // namespace

bool ValidDifferenceEstimate(double d_hat) {
  return std::isfinite(d_hat) && d_hat >= 0.0 &&
         d_hat <= kMaxDifferenceEstimate;
}

ReconcileOutcome SetReconciler::Reconcile(const std::vector<uint64_t>& a,
                                          const std::vector<uint64_t>& b,
                                          double d_hat, uint64_t seed) const {
  if (!ValidDifferenceEstimate(d_hat)) {
    return FailedOutcome("d_hat out of range (finite, 0 to 2^19)");
  }
  const std::unique_ptr<ReconcileInitiator> initiator =
      CreateInitiator(a, d_hat, seed);
  const std::unique_ptr<ReconcileResponder> responder =
      CreateResponder(b, d_hat, seed);
  std::vector<uint8_t> request, reply;  // Reused across the rounds.
  while (!initiator->done()) {
    initiator->NextRequestInto(&request);
    if (!responder->HandleRequest(request, &reply)) {
      return FailedOutcome("responder rejected a request");
    }
    if (!initiator->HandleReply(reply)) {
      return FailedOutcome("initiator rejected a reply");
    }
  }
  ReconcileOutcome outcome = initiator->TakeOutcome();
  const EngineSeconds responder_seconds = responder->seconds();
  outcome.encode_seconds += responder_seconds.encode;
  outcome.decode_seconds += responder_seconds.decode;
  return outcome;
}

SchemeRegistry& SchemeRegistry::Instance() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    RegisterBuiltinSchemes(*r);
    return r;
  }();
  return *registry;
}

bool SchemeRegistry::Register(const std::string& name,
                              const std::string& display_name,
                              SchemeFactory factory) {
  if (Contains(name)) return false;
  entries_.emplace_back(name, Entry{display_name, std::move(factory)});
  return true;
}

std::unique_ptr<SetReconciler> SchemeRegistry::Create(
    const std::string& name, const SchemeOptions& options) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return entry.factory(options);
  }
  return nullptr;
}

bool SchemeRegistry::Contains(const std::string& name) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return true;
  }
  return false;
}

std::vector<std::string> SchemeRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(key);
  std::sort(names.begin(), names.end());
  return names;
}

std::string SchemeRegistry::DisplayName(const std::string& name) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return entry.display_name;
  }
  return "";
}

}  // namespace pbs
