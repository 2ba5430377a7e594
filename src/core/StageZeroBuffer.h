//===- core/StageZeroBuffer.h - Software stage-0 combining ------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stage-0 event buffer of the pipelined engine (paper Fig 4 /
/// Sec 3.3): duplicate events are coalesced into (event, weight) pairs
/// before the tree descent, so a skewed stream costs one descend per
/// *distinct* value per window instead of one per event. The software
/// update path (RapProfiler) and the hardware model
/// (hw/PipelinedEngine) share it.
///
/// It sits on the software hot path: one flat power-of-two
/// open-addressing array of (key, weight) slots — multiplicative
/// hashing, linear probing, a zero weight marking an empty slot (a
/// live slot's weight is never zero: zero-weight pushes are rejected
/// and saturation clamps at 2^64-1, not 0) — so the common push
/// touches a single cache line and inlines into the caller's loop.
/// Draining returns the pairs in ascending event order — an
/// insertion-independent deterministic order, which is what makes
/// combined runs reproducible, oracle-checkable, and cheap
/// downstream: consecutive sorted pairs share long key
/// prefixes, and RapTree::addPoint resumes each descent where the
/// previous one's path still covers the key, so a delivered pair
/// costs O(depth - shared prefix with the previous pair) rather than
/// a walk from the root.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_STAGEZEROBUFFER_H
#define RAP_CORE_STAGEZEROBUFFER_H

#include "support/BitUtils.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace rap {

/// Fixed-capacity combining buffer for the software update path.
class StageZeroBuffer {
public:
  /// Creates a buffer combining up to \p MaxDistinct distinct events
  /// per window (capacity 0 disables combining: every push drains
  /// immediately).
  explicit StageZeroBuffer(uint64_t MaxDistinct);

  /// Adds \p W occurrences of \p Event. Returns true if the buffer is
  /// now full and must be drained before more events arrive. A zero
  /// weight is a no-op (returns false): RapTree::addPoint ignores
  /// zero-weight events, and buffering one could otherwise force a
  /// spurious drain.
  bool push(uint64_t Event, uint64_t W = 1) {
    if (Capacity == 0 || W == 0)
      return pushSlow(Event, W);
    RawEvents = saturatingAdd(RawEvents, W);
    uint64_t I = (Event * 0x9e3779b97f4a7c15ULL) >> HashShift;
    // Fibonacci (multiplicative) hashing: the high table-bits of the
    // product spread consecutive event values well, and there is no
    // std::hash in sight (identity hashing would cluster the linear
    // probe on dense code/value streams).
    Slot *T = Table.data();
    while (true) {
      Slot &S = T[I];
      if (S.Val == 0) {
        S.Key = Event;
        S.Val = W;
        return ++Size >= Capacity;
      }
      if (S.Key == Event) {
        S.Val = saturatingAdd(S.Val, W);
        return Size >= Capacity;
      }
      I = (I + 1) & TableMask;
    }
  }

  /// Removes all buffered pairs and returns them in ascending event
  /// order. The returned reference is to an internal scratch vector
  /// that stays valid until the next push() or drain().
  const std::vector<std::pair<uint64_t, uint64_t>> &drain();

  /// Distinct events currently buffered.
  uint64_t size() const { return Size; }

  /// True when the next push of a new distinct event will not fit.
  bool full() const { return Capacity != 0 && Size >= Capacity; }

  /// Raw event weight pushed so far.
  uint64_t rawEvents() const { return RawEvents; }

  /// Combined pairs handed downstream so far.
  uint64_t drainedPairs() const { return DrainedPairs; }

  /// Raw-to-combined reduction achieved by the buffer (Sec 3.3's
  /// "factor of 10" measurement for code profiles).
  double combiningFactor() const {
    return DrainedPairs == 0
               ? 1.0
               : static_cast<double>(RawEvents) /
                     static_cast<double>(DrainedPairs);
  }

private:
  /// One open-addressing slot; Val == 0 means empty.
  struct Slot {
    uint64_t Key = 0;
    uint64_t Val = 0;
  };

  /// Out-of-line rarities: zero-weight no-ops and capacity-0
  /// immediate mode.
  bool pushSlow(uint64_t Event, uint64_t W);

  uint64_t Capacity;
  unsigned HashShift = 0; ///< 64 - log2(table slots).
  uint64_t TableMask = 0; ///< table slots - 1.
  uint64_t RawEvents = 0;
  uint64_t DrainedPairs = 0;
  uint64_t Size = 0;
  std::vector<Slot> Table;

  /// Reused drain output (also the immediate-mode store at capacity 0).
  std::vector<std::pair<uint64_t, uint64_t>> Scratch;

  /// Ping-pong buffer for the drain's radix sort, reused across drains.
  std::vector<std::pair<uint64_t, uint64_t>> RadixTmp;
};

} // namespace rap

#endif // RAP_CORE_STAGEZEROBUFFER_H
