//===- verify/DifferentialOracle.cpp - RAP vs exact oracle ---------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/DifferentialOracle.h"

#include "support/BitUtils.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace rap;

namespace {

/// Bucket count for the flat cross-check profiler: 2^FlatBucketBits
/// clipped to the universe (and at least one bucket).
uint64_t flatBuckets(const RapConfig &Config, unsigned FlatBucketBits) {
  unsigned Bits = std::min(FlatBucketBits, std::max(Config.RangeBits, 1u));
  return uint64_t(1) << Bits;
}

[[gnu::format(printf, 3, 4)]] void
fail(std::vector<InvariantViolation> &Out, const char *Invariant,
     const char *Format, ...) {
  char Buffer[256];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  Out.push_back({Invariant, Buffer});
}

} // namespace

DifferentialOracle::DifferentialOracle(const RapConfig &TreeConfig,
                                       OracleOptions Opts)
    : Config(TreeConfig), Options(Opts), Tree(TreeConfig), Auditor(Tree),
      Flat(std::max(TreeConfig.RangeBits, 1u),
           flatBuckets(TreeConfig, Opts.FlatBucketBits)) {
  if (Options.CrossCheckReference)
    Reference = std::make_unique<ReferenceRapTree>(TreeConfig);
  if (Options.CrossCheckFence) {
    RapConfig TwinConfig = TreeConfig;
    TwinConfig.EnableRangeFence = !TreeConfig.EnableRangeFence;
    FenceTwin = std::make_unique<RapTree>(TwinConfig);
  }
  if (Options.CombineCapacity != 0)
    Combiner = std::make_unique<StageZeroBuffer>(Options.CombineCapacity);
}

void DifferentialOracle::deliverPoint(uint64_t X, uint64_t Weight) {
  Auditor.addPoint(X, Weight);
  if (Reference)
    Reference->addPoint(X, Weight);
  if (FenceTwin)
    FenceTwin->addPoint(X, Weight);
  if (Weight != 0)
    MaxWeight = std::max(MaxWeight, Weight);
}

void DifferentialOracle::flushCombiner() {
  if (!Combiner || Combiner->size() == 0)
    return;
  for (const auto &[Event, Weight] : Combiner->drain())
    deliverPoint(Event, Weight);
}

void DifferentialOracle::addPoint(uint64_t X, uint64_t Weight) {
  // The exact and flat oracles always see the raw stream: combining
  // must not change any truth the tree is checked against.
  if (Weight != 0) {
    Exact.addPoint(X, Weight);
    Flat.addPoint(X, Weight);
  }
  if (!Combiner) {
    deliverPoint(X, Weight);
    return;
  }
  if (Combiner->push(X, Weight))
    flushCombiner();
}

double DifferentialOracle::errorBudget() const {
  double N = static_cast<double>(Tree.numEvents());
  unsigned Depth = std::max(Config.maxDepth(), 1u);
  // The split-only bound is eps * n per ancestor level, plus the
  // arrival that pushes each level over its threshold: the counter is
  // incremented before the split lands and counters never move down,
  // so every level retains one full arrival — up to maxWeight counts —
  // out of the refined profile. It can do so again after every batched
  // merge pass, because a merge that folds a level's children back
  // makes the next (possibly heavy) arrival land on the parent before
  // the re-split. One arrival per level per merge epoch is therefore
  // the honest slack; at tiny n this term (not eps * n) dominates.
  double WeightSlack = static_cast<double>(Depth) *
                       static_cast<double>(MaxWeight) *
                       (1.0 + static_cast<double>(Tree.numMergePasses()));
  // Each batched merge can additionally fold up to one merge-threshold
  // of a leaf's counts into its parent before the leaf regrows. With
  // merge times growing geometrically at ratio q the folds sum to a
  // q/(q-1) factor on the per-level threshold (docs/VERIFICATION.md).
  // q == 1 has no geometric decay; cap its slack instead of dividing
  // by zero.
  double MergeSlack = 1.0;
  if (Config.EnableMerges) {
    double Q = Config.MergeRatio;
    MergeSlack = Q > 1.0 + 1e-9 ? Q / (Q - 1.0) : 16.0;
  }
  // Degraded weight is the documented cost of resource governance:
  // every unit the budgeted tree refused to refine (or folded in a
  // forced pass) may sit one level above where the guarantee wants it,
  // so estimates can additionally miss up to that total. Admission
  // deferred weight is the same kind of charge for splits the
  // randomized gate denied: the closed-form admission bound is simply
  // this extra additive term on top of eps*n*q/(q-1). Both are zero
  // for an unbudgeted, admission-free, failure-free tree.
  return Config.Epsilon * N * MergeSlack * Options.ErrorBoundFactor +
         WeightSlack + static_cast<double>(Tree.degradedWeight()) +
         static_cast<double>(Tree.admissionDeferredWeight()) + 1e-6;
}

void DifferentialOracle::checkRange(uint64_t Lo, uint64_t Hi,
                                    bool GridAligned) {
  uint64_t Truth = Exact.countInRange(Lo, Hi);
  uint64_t Estimate = Tree.estimateRange(Lo, Hi);
  RapTree::RangeBounds Bounds = Tree.estimateRangeBounds(Lo, Hi);

  if (Estimate > Truth)
    fail(Violations, "lower-bound",
         "[%" PRIx64 ", %" PRIx64 "] estimated %" PRIu64
         " above the true %" PRIu64,
         Lo, Hi, Estimate, Truth);
  if (Bounds.Lower != Estimate)
    fail(Violations, "bracket",
         "[%" PRIx64 ", %" PRIx64 "] bracket lower %" PRIu64
         " disagrees with estimateRange %" PRIu64,
         Lo, Hi, Bounds.Lower, Estimate);
  if (Bounds.Upper < Truth)
    fail(Violations, "bracket",
         "[%" PRIx64 ", %" PRIx64 "] bracket upper %" PRIu64
         " below the true %" PRIu64,
         Lo, Hi, Bounds.Upper, Truth);
  // Fence equivalence: the fence-flipped twin saw the same stream, so
  // every estimate and bracket must agree bit for bit — the fence is
  // never allowed to change an answer, only to reach it faster. The
  // flipped tree also validates the incremental bitmap against the
  // rebuilt one (whichever side carries the fence exercises both the
  // first-touch marks and the merge-time rebuilds).
  if (FenceTwin) {
    uint64_t TwinEstimate = FenceTwin->estimateRange(Lo, Hi);
    RapTree::RangeBounds TwinBounds = FenceTwin->estimateRangeBounds(Lo, Hi);
    if (TwinEstimate != Estimate)
      fail(Violations, "fence-equivalence",
           "[%" PRIx64 ", %" PRIx64 "] fenced/unfenced estimates diverge: %"
           PRIu64 " vs %" PRIu64,
           Lo, Hi, Estimate, TwinEstimate);
    if (TwinBounds.Lower != Bounds.Lower || TwinBounds.Upper != Bounds.Upper)
      fail(Violations, "fence-equivalence",
           "[%" PRIx64 ", %" PRIx64 "] fenced/unfenced brackets diverge: [%"
           PRIu64 ", %" PRIu64 "] vs [%" PRIu64 ", %" PRIu64 "]",
           Lo, Hi, Bounds.Lower, Bounds.Upper, TwinBounds.Lower,
           TwinBounds.Upper);
  }

  if (GridAligned && Estimate <= Truth &&
      static_cast<double>(Truth - Estimate) > errorBudget())
    fail(Violations, "eps-bound",
         "[%" PRIx64 ", %" PRIx64 "] under-estimated by %" PRIu64
         " with budget %.3f (n=%" PRIu64 ")",
         Lo, Hi, Truth - Estimate, errorBudget(), Tree.numEvents());

  // Flat cross-oracle: at its own bucket granularity the flat profiler
  // is exact, so it must agree with the exact profiler bit for bit.
  uint64_t BucketLo = Flat.bucketOf(Lo);
  uint64_t BucketHi = Flat.bucketOf(Hi);
  unsigned Shift =
      std::max(Config.RangeBits, 1u) - log2Exact(Flat.numBuckets());
  bool BucketAligned =
      (Shift >= 64 || (Lo == (BucketLo << Shift) &&
                       Hi == ((BucketHi + 1) << Shift) - 1));
  if (BucketAligned) {
    uint64_t FlatCount = 0;
    for (uint64_t B = BucketLo; B <= BucketHi; ++B)
      FlatCount = saturatingAdd(FlatCount, Flat.bucketCount(B));
    if (FlatCount != Truth)
      fail(Violations, "oracle-cross",
           "[%" PRIx64 ", %" PRIx64 "] flat oracle says %" PRIu64
           ", exact oracle says %" PRIu64,
           Lo, Hi, FlatCount, Truth);
  }
}

void DifferentialOracle::checkHotRanges(double Phi) {
  uint64_t N = Tree.numEvents();
  std::vector<HotRange> Hot = Tree.extractHotRanges(Phi);
  double Threshold = Phi * static_cast<double>(N);

  for (const HotRange &H : Hot) {
    // Precision: a reported hot range is guaranteed hot (Sec 4.3). Its
    // exclusive weight is a lower bound on the true range count, so
    // the truth must reach the extraction's own evidence.
    uint64_t Truth = Exact.countInRange(H.Lo, H.Hi);
    if (Truth < H.ExclusiveWeight)
      fail(Violations, "hot-precision",
           "hot [%" PRIx64 ", %" PRIx64 "] claims exclusive %" PRIu64
           " but truly holds %" PRIu64,
           H.Lo, H.Hi, H.ExclusiveWeight, Truth);
    if (static_cast<double>(H.ExclusiveWeight) + 1e-6 < Threshold)
      fail(Violations, "hot-extraction",
           "hot [%" PRIx64 ", %" PRIx64 "] exclusive %" PRIu64
           " below phi*n = %.3f",
           H.Lo, H.Hi, H.ExclusiveWeight, Threshold);
  }

  // Recall: any value whose true count clears phi*n plus the error
  // budget must be covered by some reported range — its smallest cover
  // node retains at least truth - budget on its own counter, which
  // feeds that node's exclusive weight (Sec 4.1).
  double MinHeavy = Threshold + errorBudget() + 1.0;
  uint64_t MinCount = MinHeavy >= 1.8e19
                          ? ~uint64_t(0)
                          : static_cast<uint64_t>(std::ceil(MinHeavy));
  for (const auto &[Value, Count] : Exact.heavyValues(MinCount)) {
    bool Covered = false;
    for (const HotRange &H : Hot)
      if (H.Lo <= Value && Value <= H.Hi) {
        Covered = true;
        break;
      }
    if (!Covered)
      fail(Violations, "hot-recall",
           "value %" PRIx64 " with true count %" PRIu64
           " (>= %.3f) is in no hot range at phi=%.3f",
           Value, Count, MinHeavy, Phi);
  }
}

void DifferentialOracle::checkTopK() {
  const size_t K =
      static_cast<size_t>(std::min<uint64_t>(Tree.numNodes(), 8));
  std::vector<TopKRange> Top = Tree.topK(K);
  std::vector<TopKRange> More = Tree.topK(K + 4);

  // Fence equivalence for reports: both the pruned regime (small K,
  // all winners positive-retained) and the full-walk regime (K past
  // the node count, zero-retained tail included) must be identical to
  // the fence-flipped twin, entry for entry.
  if (FenceTwin) {
    for (size_t QueryK :
         {K, static_cast<size_t>(Tree.numNodes()) + 3}) {
      std::vector<TopKRange> Mine = Tree.topK(QueryK);
      std::vector<TopKRange> Twin = FenceTwin->topK(QueryK);
      bool Match = Mine.size() == Twin.size();
      for (size_t I = 0; Match && I != Mine.size(); ++I)
        Match = Mine[I].Lo == Twin[I].Lo &&
                Mine[I].WidthBits == Twin[I].WidthBits &&
                Mine[I].Retained == Twin[I].Retained &&
                Mine[I].LowerWeight == Twin[I].LowerWeight &&
                Mine[I].UpperWeight == Twin[I].UpperWeight;
      if (!Match)
        fail(Violations, "fence-equivalence",
             "topK(%zu) diverges between fenced and unfenced trees "
             "(%zu vs %zu entries)",
             QueryK, Mine.size(), Twin.size());
    }
  }

  if (Top.size() != K)
    fail(Violations, "topk-shape", "topK(%zu) returned %zu entries", K,
         Top.size());

  // k-nesting: the deterministic total order makes topK(k) a prefix of
  // topK(k + m) over the same tree.
  for (size_t I = 0; I != Top.size() && I != More.size(); ++I) {
    const TopKRange &A = Top[I];
    const TopKRange &B = More[I];
    if (A.Lo != B.Lo || A.WidthBits != B.WidthBits ||
        A.Retained != B.Retained)
      fail(Violations, "topk-nesting",
           "topK(%zu)[%zu] = [%" PRIx64 ", %" PRIx64 "] is not "
           "topK(%zu)[%zu] = [%" PRIx64 ", %" PRIx64 "]",
           K, I, A.Lo, A.Hi, K + 4, I, B.Lo, B.Hi);
  }

  uint64_t PrevScore = ~uint64_t(0);
  for (const TopKRange &E : Top) {
    if (E.Retained > PrevScore)
      fail(Violations, "topk-order",
           "score %" PRIu64 " after %" PRIu64 " (not non-increasing)",
           E.Retained, PrevScore);
    PrevScore = E.Retained;
    // A node range's lower bracket is exactly the range estimate, and
    // the [lower, upper] bracket must contain the truth.
    uint64_t Truth = Exact.countInRange(E.Lo, E.Hi);
    if (E.LowerWeight != Tree.estimateRange(E.Lo, E.Hi))
      fail(Violations, "topk-bracket",
           "[%" PRIx64 ", %" PRIx64 "] lower %" PRIu64
           " disagrees with estimateRange %" PRIu64,
           E.Lo, E.Hi, E.LowerWeight, Tree.estimateRange(E.Lo, E.Hi));
    if (Truth < E.LowerWeight || Truth > E.UpperWeight)
      fail(Violations, "topk-bracket",
           "[%" PRIx64 ", %" PRIx64 "] bracket [%" PRIu64 ", %" PRIu64
           "] misses the true %" PRIu64,
           E.Lo, E.Hi, E.LowerWeight, E.UpperWeight, Truth);
  }

  // Recall: a value whose true count clears the k-th retained score
  // plus the error budget retains more than the k-th score on its
  // smallest cover node (same argument as hot-range recall), so that
  // node outranks the k-th entry and must be reported.
  if (Top.empty())
    return;
  double MinHeavy = static_cast<double>(Top.back().Retained) +
                    errorBudget() + 1.0;
  uint64_t MinCount = MinHeavy >= 1.8e19
                          ? ~uint64_t(0)
                          : static_cast<uint64_t>(std::ceil(MinHeavy));
  for (const auto &[Value, Count] : Exact.heavyValues(MinCount)) {
    bool Covered = false;
    for (const TopKRange &E : Top)
      if (E.Lo <= Value && Value <= E.Hi) {
        Covered = true;
        break;
      }
    if (!Covered)
      fail(Violations, "topk-recall",
           "value %" PRIx64 " with true count %" PRIu64
           " (>= %.3f) is in no topK(%zu) range",
           Value, Count, MinHeavy, K);
  }
}

/// Preorder (lo, widthBits, count) triples of the audited arena tree,
/// in the same child order ReferenceRapTree::collectNodes() uses.
static void collectArena(const RapNode &Node,
                         std::vector<ReferenceRapTree::NodeTriple> &Out) {
  Out.emplace_back(Node.lo(), static_cast<uint8_t>(Node.widthBits()),
                   Node.count());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectArena(*Child, Out);
}

void DifferentialOracle::checkReference() {
  if (Tree.numEvents() != Reference->numEvents() ||
      Tree.numNodes() != Reference->numNodes() ||
      Tree.numSplits() != Reference->numSplits() ||
      Tree.numMergePasses() != Reference->numMergePasses() ||
      Tree.nextMergeAt() != Reference->nextMergeAt())
    fail(Violations, "arena-reference-divergence",
         "stats diverge: n=%" PRIu64 "/%" PRIu64 " nodes=%" PRIu64
         "/%" PRIu64 " splits=%" PRIu64 "/%" PRIu64 " merges=%" PRIu64
         "/%" PRIu64 " next=%" PRIu64 "/%" PRIu64,
         Tree.numEvents(), Reference->numEvents(), Tree.numNodes(),
         Reference->numNodes(), Tree.numSplits(), Reference->numSplits(),
         Tree.numMergePasses(), Reference->numMergePasses(),
         Tree.nextMergeAt(), Reference->nextMergeAt());
  const TreePressure &P = Tree.pressure(), &L = Reference->pressure();
  if (P.BudgetHits != L.BudgetHits || P.RefusedSplits != L.RefusedSplits ||
      P.ForcedMergePasses != L.ForcedMergePasses ||
      P.ReclaimedNodes != L.ReclaimedNodes ||
      P.CoarsenLevel != L.CoarsenLevel ||
      P.DegradedWeight != L.DegradedWeight ||
      P.AdmissionDeniedSplits != L.AdmissionDeniedSplits ||
      P.AdmissionDeferredWeight != L.AdmissionDeferredWeight)
    fail(Violations, "arena-reference-divergence",
         "pressure diverges: forced=%" PRIu64 "/%" PRIu64
         " refused=%" PRIu64 "/%" PRIu64 " degraded=%" PRIu64 "/%" PRIu64
         " denied=%" PRIu64 "/%" PRIu64,
         P.ForcedMergePasses, L.ForcedMergePasses, P.RefusedSplits,
         L.RefusedSplits, uint64_t(P.DegradedWeight),
         uint64_t(L.DegradedWeight),
         P.AdmissionDeniedSplits, L.AdmissionDeniedSplits);
  if (Tree.mergeEventCounts() != Reference->mergeEventCounts())
    fail(Violations, "arena-reference-divergence",
         "merge timelines diverge (%zu vs %zu merge passes recorded)",
         Tree.mergeEventCounts().size(),
         Reference->mergeEventCounts().size());

  std::vector<ReferenceRapTree::NodeTriple> Arena;
  collectArena(Tree.root(), Arena);
  std::vector<ReferenceRapTree::NodeTriple> Legacy =
      Reference->collectNodes();
  if (Arena == Legacy)
    return;
  // Report the first diverging position, which is where debugging
  // starts; full dumps belong to the replaying harness.
  size_t Limit = std::min(Arena.size(), Legacy.size());
  size_t I = 0;
  while (I != Limit && Arena[I] == Legacy[I])
    ++I;
  if (I == Limit)
    fail(Violations, "arena-reference-divergence",
         "node sets sized %zu (arena) vs %zu (legacy) share a prefix",
         Arena.size(), Legacy.size());
  else
    fail(Violations, "arena-reference-divergence",
         "preorder position %zu: arena (%" PRIx64 ", %u, %" PRIu64
         ") vs legacy (%" PRIx64 ", %u, %" PRIu64 ")",
         I, std::get<0>(Arena[I]), unsigned(std::get<1>(Arena[I])),
         std::get<2>(Arena[I]), std::get<0>(Legacy[I]),
         unsigned(std::get<1>(Legacy[I])), std::get<2>(Legacy[I]));
}

void DifferentialOracle::checkNow(Rng &QueryRng) {
  // Pending combined events must land before any conservation or
  // accuracy claim is evaluated.
  flushCombiner();
  if (Reference)
    checkReference();

  uint64_t UniverseHi =
      Config.RangeBits == 0 ? 0 : lowBitMask(Config.RangeBits);

  // Whole-universe conservation across all three profilers.
  if (Tree.numEvents() != Exact.numEvents() ||
      Tree.numEvents() != Flat.numEvents())
    fail(Violations, "event-accounting",
         "tree fed %" PRIu64 " events, exact %" PRIu64 ", flat %" PRIu64,
         Tree.numEvents(), Exact.numEvents(), Flat.numEvents());
  checkRange(0, UniverseHi, /*GridAligned=*/true);
  if (Tree.estimateRange(0, UniverseHi) != Tree.numEvents())
    fail(Violations, "conservation",
         "whole-universe estimate %" PRIu64 " != n = %" PRIu64,
         Tree.estimateRange(0, UniverseHi), Tree.numEvents());

  // Exhaustive grid-aligned ranges, widest levels first; a level that
  // exceeds the remaining budget is randomly sampled instead.
  uint64_t Budget = Options.AlignedQueryBudget;
  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned Width = Config.RangeBits;
  while (Width > 0 && Budget > 0) {
    Width = Width > BitsPerLevel ? Width - BitsPerLevel : 0;
    unsigned LevelBits = Config.RangeBits - Width;
    if (LevelBits < 40 && (uint64_t(1) << LevelBits) <= Budget) {
      uint64_t NumRanges = uint64_t(1) << LevelBits;
      for (uint64_t I = 0; I != NumRanges; ++I) {
        uint64_t Lo = I << Width;
        uint64_t Hi = Lo + lowBitMask(Width);
        checkRange(Lo, Hi, /*GridAligned=*/true);
      }
      Budget -= NumRanges;
    } else {
      // Sample this level (and implicitly all finer ones next round).
      uint64_t Samples = std::min<uint64_t>(Budget, 128);
      for (uint64_t I = 0; I != Samples; ++I) {
        uint64_t Lo = (QueryRng.next() & UniverseHi) &
                      ~lowBitMask(Width);
        uint64_t Hi = Lo + lowBitMask(Width);
        checkRange(Lo, Hi, /*GridAligned=*/true);
      }
      Budget -= std::min(Budget, Samples);
    }
  }

  // Arbitrary (unaligned) ranges: lower-bound + bracket containment.
  for (unsigned I = 0; I != Options.RandomQueries; ++I) {
    uint64_t A = QueryRng.next() & UniverseHi;
    uint64_t B = QueryRng.next() & UniverseHi;
    if (A > B)
      std::swap(A, B);
    checkRange(A, B, /*GridAligned=*/false);
  }

  for (double Phi : Options.HotPhis)
    if (Tree.numEvents() > 0)
      checkHotRanges(Phi);

  if (Tree.numEvents() > 0)
    checkTopK();
}

std::vector<InvariantViolation> DifferentialOracle::violations() const {
  std::vector<InvariantViolation> All = Auditor.violations();
  All.insert(All.end(), Violations.begin(), Violations.end());
  return All;
}
