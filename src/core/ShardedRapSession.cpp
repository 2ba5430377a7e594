//===- core/ShardedRapSession.cpp - Concurrent sharded ingest ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ShardedRapSession.h"

#include "support/BitUtils.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rap {

namespace {

/// splitmix64 finalizer: spreads adjacent event values across shards
/// so a dense hot range does not serialize on one mutex. Fixed
/// constants, no state — deterministic across runs and platforms.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

unsigned roundUpPow2(unsigned V, unsigned Cap) {
  unsigned P = 1;
  while (P < V && P < Cap)
    P <<= 1;
  return P;
}

} // namespace

ShardedRapSession::ShardedRapSession(const RapConfig &ConfigIn,
                                     unsigned ShardCountIn,
                                     uint64_t CombineEveryIn)
    : Config(ConfigIn), CombineEvery(CombineEveryIn),
      ShardCount(roundUpPow2(ShardCountIn == 0 ? 1 : ShardCountIn,
                             MaxShards)),
      ShardMask(ShardCount - 1) {
  std::string Error;
  if (!Config.validate(&Error))
    throw std::invalid_argument("ShardedRapSession: invalid config: " +
                                Error);
  Shards.reserve(ShardCount);
  for (unsigned I = 0; I < ShardCount; ++I) {
    auto S = std::make_unique<Shard>();
    S->ShardDelta = std::make_unique<RapTree>(Config);
    Shards.push_back(std::move(S));
  }
  // No other thread can see a half-built session, but guarded state
  // is written under its lock even here so the discipline has no
  // exceptions for the checkers to special-case.
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  CombinedTree = std::make_unique<RapTree>(Config);
}

unsigned ShardedRapSession::shardIndexFor(uint64_t X) const {
  return static_cast<unsigned>(mix64(X)) & ShardMask;
}

void ShardedRapSession::ingest(uint64_t X, uint64_t Weight) {
  Shard &S = *Shards[shardIndexFor(X)];
  bool WatermarkHit = false;
  {
    std::lock_guard<std::mutex> Guard(S.IngestMu);
    S.ShardDelta->addPoint(X, Weight);
    S.PendingSinceCombine += Weight;
    WatermarkHit =
        CombineEvery != 0 && S.PendingSinceCombine >= CombineEvery;
  }
  // Combine outside the shard lock: combineNow re-acquires it in the
  // CombineMu-before-IngestMu order. Another thread may have
  // combined in the gap — then this pass simply drains less.
  if (WatermarkHit)
    combineNow();
}

void ShardedRapSession::combineNow() {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  for (std::unique_ptr<Shard> &SP : Shards) {
    Shard &S = *SP;
    std::lock_guard<std::mutex> Guard(S.IngestMu);
    if (S.ShardDelta->numEvents() == 0)
      continue;
    CombinedTree->absorb(*S.ShardDelta);
    S.ShardDelta = std::make_unique<RapTree>(Config);
    S.PendingSinceCombine = 0;
  }
  NumCombines += 1;
}

uint64_t ShardedRapSession::totalEvents() const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  uint64_t Total = CombinedTree->numEvents();
  for (const std::unique_ptr<Shard> &SP : Shards) {
    std::lock_guard<std::mutex> Guard(SP->IngestMu);
    Total = saturatingAdd(Total, SP->ShardDelta->numEvents());
  }
  return Total;
}

uint64_t ShardedRapSession::combinedEstimate(uint64_t Lo, uint64_t Hi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->estimateRange(Lo, Hi);
}

RapTree::RangeBounds
ShardedRapSession::combinedEstimateBounds(uint64_t Lo, uint64_t Hi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->estimateRangeBounds(Lo, Hi);
}

bool ShardedRapSession::combinedRangeProvablyCold(uint64_t Lo,
                                                  uint64_t Hi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->rangeProvablyCold(Lo, Hi);
}

std::vector<HotRange> ShardedRapSession::combinedHotRanges(double Phi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->extractHotRanges(Phi);
}

std::vector<TopKRange> ShardedRapSession::topKRanges(size_t K) const {
  std::vector<TopKRange> Result;
  if (K == 0)
    return Result;
  std::lock_guard<std::mutex> CombineGuard(CombineMu);

  // Pass 1: gather candidate ranges. A range hot over the whole
  // session holds at least 1/(S+1) of its weight in some single tree,
  // so taking each tree's own top K keeps every plausible winner in
  // play. Shard locks are taken one at a time (the
  // CombineMu-before-IngestMu order), never all at once.
  std::vector<TopKRange> Candidates = CombinedTree->topK(K);
  for (const std::unique_ptr<Shard> &SP : Shards) {
    std::lock_guard<std::mutex> Guard(SP->IngestMu);
    std::vector<TopKRange> Local = SP->ShardDelta->topK(K);
    Candidates.insert(Candidates.end(), Local.begin(), Local.end());
  }

  // Dedupe by range identity. (Lo, WidthBits) names the aligned range;
  // Depth is a function of WidthBits under a fixed config, so keeping
  // the first nomination loses nothing.
  std::sort(Candidates.begin(), Candidates.end(),
            [](const TopKRange &A, const TopKRange &B) {
              return A.Lo != B.Lo ? A.Lo < B.Lo
                                  : A.WidthBits < B.WidthBits;
            });
  Candidates.erase(
      std::unique(Candidates.begin(), Candidates.end(),
                  [](const TopKRange &A, const TopKRange &B) {
                    return A.Lo == B.Lo && A.WidthBits == B.WidthBits;
                  }),
      Candidates.end());

  // Pass 2: re-bracket every candidate across ALL trees. Per-tree
  // brackets are sound for that tree's slice of the stream and every
  // ingested event lives in exactly one tree, so their sums bracket
  // the whole stream's count. This is the combiner's hot loop
  // (candidates x trees bounds queries), each an O(b * depth) walk of
  // the subtree-sum column; it does not consult the range fence.
  for (TopKRange &C : Candidates) {
    RapTree::RangeBounds B = CombinedTree->estimateRangeBounds(C.Lo, C.Hi);
    C.LowerWeight = B.Lower;
    C.UpperWeight = B.Upper;
  }
  for (const std::unique_ptr<Shard> &SP : Shards) {
    std::lock_guard<std::mutex> Guard(SP->IngestMu);
    for (TopKRange &C : Candidates) {
      RapTree::RangeBounds B =
          SP->ShardDelta->estimateRangeBounds(C.Lo, C.Hi);
      C.LowerWeight = saturatingAdd(C.LowerWeight, B.Lower);
      C.UpperWeight = saturatingAdd(C.UpperWeight, B.Upper);
    }
  }

  // Rank by the summed lower bracket — the session-wide analogue of a
  // single tree's retained count — with the same deterministic
  // tie-break order as RapTree::topK.
  for (TopKRange &C : Candidates)
    C.Retained = C.LowerWeight;
  std::sort(Candidates.begin(), Candidates.end(),
            [](const TopKRange &A, const TopKRange &B) {
              if (A.Retained != B.Retained)
                return A.Retained > B.Retained;
              if (A.Lo != B.Lo)
                return A.Lo < B.Lo;
              return A.WidthBits < B.WidthBits;
            });
  if (Candidates.size() > K)
    Candidates.resize(K);
  Result = std::move(Candidates);
  return Result;
}

uint64_t ShardedRapSession::numCombines() const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return NumCombines;
}

uint64_t ShardedRapSession::combinedNodes() const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->numNodes();
}

} // namespace rap
