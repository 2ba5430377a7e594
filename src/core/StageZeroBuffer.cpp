//===- core/StageZeroBuffer.cpp - Software stage-0 combining --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/StageZeroBuffer.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <bit>
#include <new>

using namespace rap;

namespace {

using Pair = std::pair<uint64_t, uint64_t>;

/// Ascending sort by event. Drains happen once per window but sort a
/// whole table, so a comparison sort would dominate the amortized
/// per-push cost; LSD radix on the key bytes keeps it linear. Bytes
/// above the highest set key bit are never counted; one pass counts
/// the histograms of all the others, and a byte every key shares then
/// costs no pass. The result may end up in \p Tmp; the caller swaps it
/// back.
void sortPairsByEvent(std::vector<Pair> &V, std::vector<Pair> &Tmp) {
  if (V.size() < 64) {
    std::sort(V.begin(), V.end());
    return;
  }
  uint64_t OrAll = 0;
  for (const Pair &P : V)
    OrAll |= P.first;
  const unsigned Digits = static_cast<unsigned>(std::bit_width(OrAll) + 7) / 8;
  uint32_t Hist[8][256] = {};
  for (const Pair &P : V)
    for (unsigned D = 0; D != Digits; ++D)
      ++Hist[D][(P.first >> (8 * D)) & 0xff];
  Tmp.resize(V.size());
  std::vector<Pair> *Src = &V, *Dst = &Tmp;
  for (unsigned D = 0; D != Digits; ++D) {
    unsigned Shift = 8 * D;
    uint32_t *H = Hist[D];
    if (H[(V[0].first >> Shift) & 0xff] == V.size())
      continue; // every key shares this digit
    uint32_t Sum = 0;
    for (unsigned B = 0; B != 256; ++B) {
      uint32_t This = H[B];
      H[B] = Sum;
      Sum += This;
    }
    Pair *Out = Dst->data();
    for (const Pair &P : *Src)
      Out[H[(P.first >> Shift) & 0xff]++] = P;
    std::swap(Src, Dst);
  }
  if (Src != &V)
    V.swap(Tmp);
}

} // namespace

StageZeroBuffer::StageZeroBuffer(uint64_t MaxDistinct)
    : Capacity(MaxDistinct) {
  if (Capacity == 0)
    return;
  // A table of at least 2x capacity keeps linear-probe chains short at
  // the moment the buffer fills. Absurd capacities are clamped so the
  // slot count always stays addressable.
  constexpr uint64_t MaxCapacity = uint64_t(1) << 30;
  if (Capacity > MaxCapacity)
    Capacity = MaxCapacity;
  unsigned TableBits = log2Ceil(Capacity) + 1;
  HashShift = 64 - TableBits;
  TableMask = lowBitMask(TableBits);
  Table.assign(size_t(1) << TableBits, Slot());
}

bool StageZeroBuffer::pushSlow(uint64_t Event, uint64_t W) {
  if (W == 0)
    return false;
  // Capacity 0: immediate mode, every push is its own window.
  if (Size == 0)
    Scratch.clear(); // drop the previously drained pairs
  // Store before counting: if the emplace throws, nothing has been
  // recorded and the counters still match the buffered content.
  Scratch.emplace_back(Event, W);
  RawEvents = saturatingAdd(RawEvents, W);
  ++Size;
  return true;
}

const std::vector<std::pair<uint64_t, uint64_t>> &StageZeroBuffer::drain() {
  if (RAP_FAILPOINT_HIT(failpoints::Fp::Stage0Drain))
    throw std::bad_alloc();
  // Collect and sort before clearing any slot: if an allocation fails
  // in either, the table is untouched and the drain can be retried —
  // buffered weight is never silently dropped. The order is ascending
  // event order: deterministic regardless of arrival order and hash
  // layout.
  if (Capacity != 0) {
    // Branch-free collect: every slot is written at the next output
    // position, which only a live slot advances (hence one spare).
    Scratch.resize(static_cast<size_t>(Size) + 1);
    Pair *Out = Scratch.data();
    size_t N = 0;
    for (const Slot &S : Table) {
      Out[N] = {S.Key, S.Val};
      N += S.Val != 0;
    }
    Scratch.resize(N);
  } else if (Size == 0) {
    Scratch.clear();
  }
  sortPairsByEvent(Scratch, RadixTmp);
  if (Capacity != 0)
    for (Slot &S : Table)
      S.Val = 0;
  DrainedPairs = saturatingAdd(DrainedPairs, Scratch.size());
  Size = 0;
  return Scratch;
}
