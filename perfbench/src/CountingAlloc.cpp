//===- perfbench/src/CountingAlloc.cpp - Heap accounting ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Global operator new/delete replacements for the benchmark binary.
// Array, nothrow and sized forms reach these through the standard
// library's default definitions. Counters are relaxed atomics: they
// are totals read between phases, never used to order other memory.
//
//===----------------------------------------------------------------------===//

#include "CountingAlloc.h"

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {
std::atomic<uint64_t> Calls{0};
std::atomic<uint64_t> Bytes{0};
std::atomic<uint64_t> Live{0};
std::atomic<uint64_t> Peak{0};

void *countedAlloc(std::size_t Size) {
  void *P = std::malloc(Size == 0 ? 1 : Size);
  if (!P)
    throw std::bad_alloc();
  Calls.fetch_add(1, std::memory_order_relaxed);
  Bytes.fetch_add(Size, std::memory_order_relaxed);
  uint64_t Usable = malloc_usable_size(P);
  uint64_t Now = Live.fetch_add(Usable, std::memory_order_relaxed) + Usable;
  uint64_t Seen = Peak.load(std::memory_order_relaxed);
  while (Now > Seen &&
         !Peak.compare_exchange_weak(Seen, Now, std::memory_order_relaxed))
    ;
  return P;
}

void countedFree(void *P) noexcept {
  if (!P)
    return;
  Live.fetch_sub(malloc_usable_size(P), std::memory_order_relaxed);
  std::free(P);
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete(void *P, std::size_t) noexcept { countedFree(P); }

perfbench::heap::Counters perfbench::heap::read() {
  Counters C;
  C.Calls = Calls.load(std::memory_order_relaxed);
  C.Bytes = Bytes.load(std::memory_order_relaxed);
  C.LiveBytes = Live.load(std::memory_order_relaxed);
  C.PeakBytes = Peak.load(std::memory_order_relaxed);
  return C;
}

void perfbench::heap::resetPeak() {
  Peak.store(Live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}
