// Micro-benchmarks: invertible Bloom filter operations (the D.Digest /
// Graphene substrate) and the xxHash64 primitive everything hashes with
// (Recorder harness). One table/JSON row per (kernel, cells, d).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "pbs/common/rng.h"
#include "pbs/hash/xxhash64.h"
#include "pbs/ibf/invertible_bloom_filter.h"

namespace {

using pbs::InvertibleBloomFilter;

int main_impl() {
  const bool full = pbs::bench::FullMode();
  const double budget = full ? 0.6 : 0.15;
  std::printf("== IBF / xxHash64 micro-benchmarks ==\n");
  std::printf("mode=%s budget=%.2fs/case\n\n", full ? "FULL" : "quick",
              budget);

  pbs::bench::Recorder rec("micro_ibf",
                           {"kernel", "cells", "d", "ns_per_op", "Mops"});
  const auto add = [&rec](const char* kernel, size_t cells, int d, double ns) {
    rec.AddRow({kernel, std::to_string(cells), std::to_string(d),
                pbs::FormatDouble(ns, 1), pbs::bench::FormatMops(ns)});
  };

  // ---- xxHash64 of one 64-bit key (the hash under every kernel). ----
  {
    uint64_t x = 0x1234;
    const double ns = pbs::bench::TimeNs([&] { x = pbs::XxHash64(x, 7); },
                                         budget);
    add("xxhash64", 0, 0, ns);
    if (x == 0) std::printf("(unreachable)\n");  // Keeps x observable.
  }

  // ---- IBF insert: hash to k cells, update count/keySum/hashSum. ----
  for (size_t cells : {size_t{200}, size_t{20000}}) {
    InvertibleBloomFilter ibf(cells, 4, 1, 32);
    uint64_t x = 1;
    add("ibf_insert", cells, 1,
        pbs::bench::TimeNs([&] { ibf.Insert(x++); }, budget));
  }

  // ---- IBF decode: peel a subtracted filter holding d differences. ----
  for (int d : {100, 1000, 10000}) {
    const size_t cells = static_cast<size_t>(2) * d;
    const int hashes = d > 200 ? 3 : 4;
    InvertibleBloomFilter a(cells, hashes, 2, 32);
    const InvertibleBloomFilter b(cells, hashes, 2, 32);
    pbs::Xoshiro256 rng(3);
    for (int i = 0; i < d; ++i) a.Insert(rng.Next() | 1);
    a.Subtract(b);
    size_t recovered = 0;
    add("ibf_decode", cells, d, pbs::bench::TimeNs([&] {
          recovered = a.Decode().positive.size();
        }, budget));
    if (recovered == 0) std::printf("(decode recovered nothing)\n");
  }

  rec.Print();
  std::printf(
      "\nibf_insert is the per-element encode cost; ibf_decode the peel of "
      "a\n2d-cell filter (the D.Digest receiver's work).\n");
  return 0;
}

}  // namespace

int main() { return main_impl(); }
