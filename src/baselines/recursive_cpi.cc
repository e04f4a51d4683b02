#include "pbs/baselines/recursive_cpi.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/checksum.h"
#include "pbs/gf/gf2m.h"
#include "pbs/hash/hash_family.h"

namespace pbs {

namespace {
using Clock = std::chrono::steady_clock;
double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

ReconcileOutcome RecursiveCpiReconcile(const std::vector<uint64_t>& a,
                                       const std::vector<uint64_t>& b,
                                       int t_bar, int sig_bits,
                                       int max_rounds, uint64_t seed) {
  ReconcileOutcome out;
  t_bar = std::max(t_bar, 1);
  const GF2m field(sig_bits);
  const SaltedHash prefix_hash(HashFamily(seed).Salt(HashFamily::kSplitPartition));

  // A partition is identified by (depth, prefix): it contains the elements
  // whose hash's low `depth` bits equal `prefix`. Elements are carried as
  // index ranges into depth-sorted working vectors for O(1) splitting.
  struct Partition {
    int depth = 0;
    uint64_t prefix = 0;
    std::unordered_set<uint64_t> alice;  // Alice's working set.
    std::vector<uint64_t> bob;
    uint64_t alice_checksum = 0;
    uint64_t bob_checksum = 0;
  };
  const uint64_t mask = SetChecksum::MaskFor(sig_bits);

  Partition root;
  for (uint64_t e : a) {
    root.alice.insert(e);
    root.alice_checksum = (root.alice_checksum + e) & mask;
  }
  root.bob.assign(b.begin(), b.end());
  for (uint64_t e : b) root.bob_checksum = (root.bob_checksum + e) & mask;

  std::vector<Partition> active;
  active.push_back(std::move(root));

  std::unordered_set<uint64_t> diff;
  auto toggle = [&diff](Partition& p, uint64_t s, uint64_t m) {
    if (auto it = p.alice.find(s); it != p.alice.end()) {
      p.alice.erase(it);
      p.alice_checksum = (p.alice_checksum - s) & m;
    } else {
      p.alice.insert(s);
      p.alice_checksum = (p.alice_checksum + s) & m;
    }
    if (auto it = diff.find(s); it != diff.end()) {
      diff.erase(it);
    } else {
      diff.insert(s);
    }
  };

  size_t bits_on_wire = 0;
  int round = 0;
  while (!active.empty() && round < max_rounds) {
    ++round;
    std::vector<Partition> next;
    for (Partition& part : active) {
      // Bob -> Alice: sketch + checksum of his partition.
      const auto encode_start = Clock::now();
      PowerSumSketch bob_sketch(field, t_bar);
      for (uint64_t e : part.bob) bob_sketch.Toggle(e);
      bits_on_wire += static_cast<size_t>(t_bar) * sig_bits + sig_bits + 1;

      PowerSumSketch merged = bob_sketch;
      for (uint64_t e : part.alice) merged.Toggle(e);
      const auto decode_start = Clock::now();
      out.encode_seconds += Seconds(encode_start, decode_start);
      auto decoded = merged.Decode(/*verify=*/true, seed ^ part.prefix);

      bool settled = false;
      if (decoded.has_value()) {
        for (uint64_t s : *decoded) {
          if (s == 0) continue;
          // Sub-universe check: s must belong to this partition.
          if ((prefix_hash(s) & ((uint64_t{1} << part.depth) - 1)) !=
              part.prefix) {
            continue;
          }
          toggle(part, s, mask);
        }
        settled = part.alice_checksum == part.bob_checksum;
      }
      out.decode_seconds += Seconds(decode_start, Clock::now());
      if (settled) continue;

      // Two-way split by the next hash bit.
      Partition children[2];
      for (int c = 0; c < 2; ++c) {
        children[c].depth = part.depth + 1;
        children[c].prefix =
            part.prefix | (static_cast<uint64_t>(c) << part.depth);
      }
      for (uint64_t e : part.alice) {
        Partition& ch = children[(prefix_hash(e) >> part.depth) & 1];
        ch.alice.insert(e);
        ch.alice_checksum = (ch.alice_checksum + e) & mask;
      }
      for (uint64_t e : part.bob) {
        Partition& ch = children[(prefix_hash(e) >> part.depth) & 1];
        ch.bob.push_back(e);
        ch.bob_checksum = (ch.bob_checksum + e) & mask;
      }
      next.push_back(std::move(children[0]));
      next.push_back(std::move(children[1]));
    }
    active = std::move(next);
  }

  out.success = active.empty();
  out.rounds = round;
  out.data_bytes = (bits_on_wire + 7) / 8;
  out.difference.assign(diff.begin(), diff.end());
  return out;
}

}  // namespace pbs
