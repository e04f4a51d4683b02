#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace pbs::e2e {

namespace {

// (name, trace) -> summed self time in ms, for the names `keep` accepts.
template <typename Keep>
std::map<std::pair<std::string, uint64_t>, double> SelfMsPerTrace(
    const std::vector<Span>& spans, Keep keep) {
  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::pair<std::string, uint64_t>, double> per_trace;
  for (const Span& s : spans) {
    std::string name;
    if (!keep(s.name, &name)) continue;
    const auto it = child_ns.find(s.span_id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    per_trace[{name, s.trace_id}] +=
        static_cast<double>((s.end_ns - s.start_ns) - children) / 1e6;
  }
  return per_trace;
}

}  // namespace

std::map<std::string, double> Tracer::MedianSelfMs() const {
  std::map<std::string, std::vector<double>> by_name;
  const auto all = [](const char* name, std::string* key) {
    *key = name;
    return true;
  };
  for (const auto& [key, ms] : SelfMsPerTrace(spans_, all)) {
    by_name[key.first].push_back(ms);
  }
  std::map<std::string, double> medians;
  for (auto& [name, values] : by_name) medians[name] = Median(values);
  return medians;
}

double Tracer::MedianSelfMsOfPrefix(const std::string& prefix) const {
  const auto matching = [&prefix](const char* name, std::string* key) {
    if (std::string(name).compare(0, prefix.size(), prefix) != 0) {
      return false;
    }
    *key = prefix;
    return true;
  };
  std::vector<double> values;
  for (const auto& [key, ms] : SelfMsPerTrace(spans_, matching)) {
    values.push_back(ms);
  }
  return Median(values);
}

bool Tracer::WriteJsonl(const std::string& path, std::string* error) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    *error = "cannot open trace file " + path;
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"trace_id\":%llu,\"span_id\":%u,\"parent\":%u,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.trace_id), s.span_id,
                 s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(out) != 0) {
    *error = "cannot write trace file " + path;
    return false;
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const double clamped =
      std::max(1.0, std::min(rank, static_cast<double>(values.size())));
  return values[static_cast<size_t>(clamped) - 1];
}

}  // namespace pbs::e2e
