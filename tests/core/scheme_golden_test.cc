// Golden outcome table for SetReconciler::Reconcile(): every registered
// scheme on fixed instances, pinned to the success flag, round count,
// accounted data bytes, difference size and a digest of the sorted
// difference. The values are the paper-figure accounting (Sections 7-8,
// Appendix J.3), so any change to a scheme's protocol, planning or byte
// accounting shows up here as a per-case diff.
//
// On a mismatch the test prints the case's actual row in table syntax.

#include "pbs/core/set_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <vector>

#include "pbs/sim/workload.h"

namespace pbs {
namespace {

// Instances: GenerateSetPair(3000, d, 32, .) for d in {1, 40, 200}, plus
// one two-sided pair (|A \ B| = 30, |B \ A| = 25).
enum Pair { kD1, kD40, kD200, kTwoSided, kPairCount };

const SetPair& Instance(Pair which) {
  static const SetPair pairs[kPairCount] = {
      GenerateSetPair(3000, 1, 32, 0x601D0001),
      GenerateSetPair(3000, 40, 32, 0x601D0040),
      GenerateSetPair(3000, 200, 32, 0x601D0200),
      GenerateTwoSidedPair(3000, 30, 25, 32, 0x601D2515),
  };
  return pairs[which];
}

struct GoldenCase {
  const char* scheme;
  Pair pair;
  double d_scale;       // d_hat = d_scale * |A /\triangle B|.
  int report_sig_bits;  // SchemeOptions::report_sig_bits.
  bool strong;          // PbsConfig::strong_verification.
  int max_rounds;       // PbsConfig::max_rounds.
  // Pinned outcome.
  bool success;
  int rounds;
  size_t data_bytes;
  size_t diff_size;
  uint64_t digest;
};

// FNV-1a over the sorted difference, 8 little-endian bytes per element.
uint64_t Digest(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t x : v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

const char* PairName(Pair p) {
  static const char* const kNames[kPairCount] = {"kD1", "kD40", "kD200",
                                                 "kTwoSided"};
  return kNames[p];
}

const GoldenCase kCases[] = {
    // clang-format off
    // scheme, pair, d_scale, report_sig_bits, strong, max_rounds,
    //   success, rounds, data_bytes, diff_size, digest
    {"pbs", kD1, 1.0, 0, false, 3, true, 1, 16, 1, 0x9ace14c76d3f97b1ull},
    {"pbs", kD1, 0.5, 0, false, 3, true, 1, 16, 1, 0x9ace14c76d3f97b1ull},
    {"pbs", kD40, 1.0, 0, false, 3, true, 1, 336, 40, 0x93ab4abce69ccc35ull},
    {"pbs", kD40, 0.5, 0, false, 3, true, 2, 284, 40, 0x93ab4abce69ccc35ull},
    {"pbs", kD200, 1.0, 0, false, 3, true, 2, 1853, 200, 0xf22c6c8cd0e26ab7ull},
    {"pbs", kD200, 0.5, 0, false, 3, true, 2, 1479, 200, 0xf22c6c8cd0e26ab7ull},
    {"pbs", kTwoSided, 1.0, 0, false, 3, true, 2, 484, 55, 0xec997b0dc98814b7ull},
    {"pbs", kTwoSided, 0.5, 0, false, 3, true, 2, 402, 55, 0xec997b0dc98814b7ull},
    {"pinsketch", kD1, 1.0, 0, false, 3, true, 1, 8, 1, 0x9ace14c76d3f97b1ull},
    {"pinsketch", kD1, 0.5, 0, false, 3, true, 1, 4, 1, 0x9ace14c76d3f97b1ull},
    {"pinsketch", kD40, 1.0, 0, false, 3, true, 1, 224, 40, 0x93ab4abce69ccc35ull},
    {"pinsketch", kD40, 0.5, 0, false, 3, false, 1, 112, 0, 0xcbf29ce484222325ull},
    {"pinsketch", kD200, 1.0, 0, false, 3, true, 1, 1104, 200, 0xf22c6c8cd0e26ab7ull},
    {"pinsketch", kD200, 0.5, 0, false, 3, false, 1, 552, 0, 0xcbf29ce484222325ull},
    {"pinsketch", kTwoSided, 1.0, 0, false, 3, true, 1, 304, 55, 0xec997b0dc98814b7ull},
    {"pinsketch", kTwoSided, 0.5, 0, false, 3, false, 1, 152, 0, 0xcbf29ce484222325ull},
    {"pinsketch-wp", kD1, 1.0, 0, false, 3, true, 1, 41, 1, 0x9ace14c76d3f97b1ull},
    {"pinsketch-wp", kD1, 0.5, 0, false, 3, true, 1, 41, 1, 0x9ace14c76d3f97b1ull},
    {"pinsketch-wp", kD40, 1.0, 0, false, 3, true, 1, 696, 40, 0x93ab4abce69ccc35ull},
    {"pinsketch-wp", kD40, 0.5, 0, false, 3, true, 2, 522, 40, 0x93ab4abce69ccc35ull},
    {"pinsketch-wp", kD200, 1.0, 0, false, 3, true, 1, 3523, 200, 0xf22c6c8cd0e26ab7ull},
    {"pinsketch-wp", kD200, 0.5, 0, false, 3, true, 2, 2567, 200, 0xf22c6c8cd0e26ab7ull},
    {"pinsketch-wp", kTwoSided, 1.0, 0, false, 3, true, 1, 998, 55, 0xec997b0dc98814b7ull},
    {"pinsketch-wp", kTwoSided, 0.5, 0, false, 3, true, 1, 577, 55, 0xec997b0dc98814b7ull},
    {"ddigest", kD1, 1.0, 0, false, 3, true, 1, 48, 1, 0x9ace14c76d3f97b1ull},
    {"ddigest", kD1, 0.5, 0, false, 3, true, 1, 48, 1, 0x9ace14c76d3f97b1ull},
    {"ddigest", kD40, 1.0, 0, false, 3, true, 1, 960, 40, 0x93ab4abce69ccc35ull},
    {"ddigest", kD40, 0.5, 0, false, 3, false, 1, 480, 4, 0x753797eac6353347ull},
    {"ddigest", kD200, 1.0, 0, false, 3, true, 1, 4800, 200, 0xf22c6c8cd0e26ab7ull},
    {"ddigest", kD200, 0.5, 0, false, 3, false, 1, 2400, 18, 0x41c2d16e2d8129c9ull},
    {"ddigest", kTwoSided, 1.0, 0, false, 3, true, 1, 1344, 55, 0xec997b0dc98814b7ull},
    {"ddigest", kTwoSided, 0.5, 0, false, 3, false, 1, 672, 0, 0xcbf29ce484222325ull},
    {"graphene", kD1, 1.0, 0, false, 3, true, 1, 248, 1, 0x9ace14c76d3f97b1ull},
    {"graphene", kD1, 0.5, 0, false, 3, true, 1, 200, 1, 0x9ace14c76d3f97b1ull},
    {"graphene", kD40, 1.0, 0, false, 3, true, 1, 1454, 40, 0x93ab4abce69ccc35ull},
    {"graphene", kD40, 0.5, 0, false, 3, true, 1, 920, 40, 0x93ab4abce69ccc35ull},
    {"graphene", kD200, 1.0, 0, false, 3, true, 1, 2598, 200, 0xf22c6c8cd0e26ab7ull},
    {"graphene", kD200, 0.5, 0, false, 3, true, 1, 2093, 200, 0xf22c6c8cd0e26ab7ull},
    {"graphene", kTwoSided, 1.0, 0, false, 3, true, 1, 1706, 55, 0xec997b0dc98814b7ull},
    {"graphene", kTwoSided, 0.5, 0, false, 3, true, 1, 1160, 55, 0xec997b0dc98814b7ull},
    // Appendix J.3 wide-signature accounting.
    {"pbs", kD40, 1.0, 256, false, 3, true, 1, 1792, 40, 0x93ab4abce69ccc35ull},
    {"pbs", kD200, 0.5, 256, false, 3, true, 2, 7863, 200, 0xf22c6c8cd0e26ab7ull},
    {"pinsketch-wp", kD40, 1.0, 256, false, 3, true, 1, 5512, 40, 0x93ab4abce69ccc35ull},
    {"pinsketch-wp", kD200, 0.5, 256, false, 3, true, 2, 20375, 200, 0xf22c6c8cd0e26ab7ull},
    // Section 2.2.3 strong verification.
    {"pbs", kTwoSided, 1.0, 0, true, 3, true, 2, 508, 55, 0xec997b0dc98814b7ull},
    {"pbs", kD200, 0.5, 0, true, 3, true, 2, 1503, 200, 0xf22c6c8cd0e26ab7ull},
    // Round cap reached before every unit settles.
    {"pbs", kD200, 0.5, 0, false, 1, false, 1, 1185, 168, 0x26f8b80013b89315ull},
    {"pinsketch-wp", kD200, 0.5, 0, false, 1, false, 1, 1844, 153, 0xd7e3fe598b1a0235ull},
    // clang-format on
};

TEST(SchemeGolden, ReconcileMatchesPinnedOutcomes) {
  ASSERT_GT(std::size(kCases), 0u);
  auto& registry = SchemeRegistry::Instance();
  for (const GoldenCase& c : kCases) {
    const SetPair& pair = Instance(c.pair);
    SchemeOptions options;
    options.report_sig_bits = c.report_sig_bits;
    options.pbs.strong_verification = c.strong;
    options.pbs.max_rounds = c.max_rounds;
    const auto scheme = registry.Create(c.scheme, options);
    ASSERT_NE(scheme, nullptr) << c.scheme;
    const double d_hat =
        c.d_scale * static_cast<double>(pair.truth_diff.size());
    const ReconcileOutcome out =
        scheme->Reconcile(pair.a, pair.b, d_hat, 0x601DE);

    char row[256];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", %s, %.1f, %d, %s, %d, %s, %d, %zu, %zu, "
                  "0x%016" PRIx64 "ull},",
                  c.scheme, PairName(c.pair), c.d_scale, c.report_sig_bits,
                  c.strong ? "true" : "false", c.max_rounds,
                  out.success ? "true" : "false", out.rounds, out.data_bytes,
                  out.difference.size(), Digest(out.difference));
    SCOPED_TRACE(row);
    EXPECT_EQ(out.success, c.success);
    EXPECT_EQ(out.rounds, c.rounds);
    EXPECT_EQ(out.data_bytes, c.data_bytes);
    EXPECT_EQ(out.difference.size(), c.diff_size);
    EXPECT_EQ(Digest(out.difference), c.digest);
  }
}

}  // namespace
}  // namespace pbs
