// The two PBS protocol endpoints.
//
// Alice initiates and ultimately learns A /\triangle B; Bob answers. The
// endpoints exchange opaque byte buffers; PbsReconciler
// (core/pbs_reconciler.h) wraps them in the initiator/responder engines
// that SetReconciler::Reconcile() pumps in memory and the session layer
// runs over a transport. Message flow per Sections 2-3:
//
//   Alice                       Bob
//   SetDifferenceEstimate       SetDifferenceEstimate   (same d_used)
//   MakeRoundRequest     ---->  HandleRoundRequest      \  repeated until
//   HandleRoundReply     <----                          /  all units settle
//
// The difference estimate itself (ToW, Section 6) is exchanged by the
// session layer (core/session_engine.h), not by the endpoints.

#ifndef PBS_CORE_PBS_ENDPOINTS_H_
#define PBS_CORE_PBS_ENDPOINTS_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "pbs/common/checksum.h"
#include "pbs/core/group_state.h"
#include "pbs/core/params.h"
#include "pbs/gf/gf2m.h"
#include "pbs/hash/hash_family.h"

namespace pbs {

struct PbsStoreLayout;

/// Cumulative wall-time breakdown of one endpoint (seconds). Encode is
/// everything that *produces* sketches and wire bytes: Alice's whole
/// round request (her per-group bin + sketch pipeline plus serialization)
/// and Bob's wire staging/serialization. Decode is Alice's reply handling
/// and Bob's per-group bin + sketch + BCH-decode pipeline, the latter
/// timed as one phase because it runs fused in lane blocks of groups.
struct PbsTimers {
  double encode_seconds = 0.0;  ///< Sketch production + (de)serialization.
  double decode_seconds = 0.0;  ///< Decode pipeline / reply handling.
};

/// The initiating endpoint; learns the set difference.
class PbsAlice {
 public:
  /// `elements` is Alice's set A (nonzero sig_bits-wide signatures).
  /// Both endpoints must be constructed with the same config and seed.
  PbsAlice(std::vector<uint64_t> elements, const PbsConfig& config,
           uint64_t seed);
  ~PbsAlice();

  /// Sizes the plan for `d_used` expected differences (the inflated
  /// estimate; Bob must be given the same value).
  void SetDifferenceEstimate(int d_used);

  /// Writes the round-k request into `*out` (cleared first) and advances
  /// the round counter. With a caller-reused `out`, steady-state round
  /// encoding performs no heap allocation
  /// (tests/core/hotpath_alloc_test.cc).
  void MakeRoundRequest(std::vector<uint8_t>* out);

  /// Consumes Bob's reply. Returns false on a malformed reply (truncated,
  /// or a recovered count above t); the endpoint must then be discarded.
  /// finished() tells whether the round settled every unit.
  bool HandleRoundReply(const std::vector<uint8_t>& reply);

  /// True once all units verified their checksums.
  bool finished() const;

  /// Rounds executed so far.
  int round() const;

  /// The reconciled difference D-hat_1 /\triangle ... /\triangle D-hat_r
  /// (valid answer once finished()).
  std::vector<uint64_t> Difference() const;

  /// Strong-verification epilogue (config.strong_verification): checks
  /// Bob's multiset-hash digest against H(A /\triangle D-hat).
  bool VerifyStrongDigest(const std::vector<uint8_t>& digest_msg) const;

  /// Bidirectional completion (Section 1.1): the elements of the
  /// difference that Alice holds (A \ B), which she ships to Bob so he can
  /// form A u B as well. Valid once finished().
  std::vector<uint64_t> ElementsOnlyInA() const;

  const PbsPlan& plan() const;
  const PbsTimers& timers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The responding endpoint.
class PbsBob {
 public:
  PbsBob(std::vector<uint64_t> elements, const PbsConfig& config,
         uint64_t seed);

  /// Snapshot form (core/element_store.h): shares the element vector
  /// instead of copying it and, when the session's (seed, sig_bits, plan)
  /// match the layout's, adopts the store's pre-built round-1 bitmaps /
  /// syndromes / checksums -- turning session setup from O(|B|) into O(g),
  /// with the O(|B|) group partitioning deferred until a second round is
  /// actually needed. On any mismatch it falls back to the from-scratch
  /// build, so adoption never changes the wire bytes (pinned by
  /// ElementStore differential tests). `elements` must come from a
  /// MutableElementStore, whose insert path enforces the nonzero /
  /// sig_bits-wide element invariants this constructor therefore does not
  /// re-validate. `layout` may be null (pure shared-vector mode).
  PbsBob(std::shared_ptr<const std::vector<uint64_t>> elements,
         std::shared_ptr<const PbsStoreLayout> layout, const PbsConfig& config,
         uint64_t seed);
  ~PbsBob();

  /// Sizes the plan for `d_used` expected differences (Alice's value).
  void SetDifferenceEstimate(int d_used);

  /// Writes the reply to one round request into `*reply` (cleared first);
  /// allocation-free in steady state, like PbsAlice::MakeRoundRequest.
  /// Returns false, leaving `*reply` untouched, on a truncated request;
  /// the endpoint must then be discarded.
  bool HandleRoundRequest(const std::vector<uint8_t>& request,
                          std::vector<uint8_t>* reply);

  /// Strong-verification epilogue: the 192-bit multiset hash of B.
  std::vector<uint8_t> MakeStrongDigest() const;

  const PbsPlan& plan() const;
  const PbsTimers& timers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbs

#endif  // PBS_CORE_PBS_ENDPOINTS_H_
