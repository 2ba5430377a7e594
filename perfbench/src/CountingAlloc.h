//===- perfbench/src/CountingAlloc.h - Heap accounting ---------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary replaces the global operator new and delete to
/// count allocation calls, requested bytes, and live heap bytes (as the
/// allocator's usable size, i.e. what the heap really holds). The peak
/// is reset after the inputs are generated, so peak_heap_mib covers the
/// profiler's state and not the pre-generated event arrays.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COUNTINGALLOC_H
#define PERFBENCH_COUNTINGALLOC_H

#include <cstdint>

namespace perfbench::heap {

struct Counters {
  uint64_t Calls = 0;     ///< operator new calls so far.
  uint64_t Bytes = 0;     ///< Requested bytes so far.
  uint64_t LiveBytes = 0; ///< Usable bytes currently allocated.
  uint64_t PeakBytes = 0; ///< Highest LiveBytes since the last reset.
};

Counters read();
/// Restarts peak tracking from the current live size.
void resetPeak();

} // namespace perfbench::heap

#endif // PERFBENCH_COUNTINGALLOC_H
