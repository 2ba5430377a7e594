//===- tests/support/TsanLockOrderProbe.cpp - TSan must catch inversions -===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Takes two mutexes in both orders on one thread: A then B, and later
// B then A. No deadlock can happen in this run, but ThreadSanitizer's
// deadlock detector records the A-before-B edge and reports the
// reverse acquisition as a lock-order inversion, which makes the
// process exit non-zero. Registered (only in ThreadSanitizer builds)
// as `tsan_lock_order_probe` in the `concurrency` label, marked
// WILL_FAIL: if the leg ever stops reporting inversions (for example
// detect_deadlocks=0 in TSAN_OPTIONS), the probe exits 0 and the test
// fails, because the ShardedRapSession lock order is checked only by
// that report.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <mutex>

int main() {
  std::mutex A, B;
  {
    std::lock_guard<std::mutex> HoldA(A);
    std::lock_guard<std::mutex> HoldB(B);
  }
  {
    std::lock_guard<std::mutex> HoldB(B);
    std::lock_guard<std::mutex> HoldA(A);
  }
  std::printf("took A then B, then B then A\n");
  return 0;
}
