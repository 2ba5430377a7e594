//===- tests/support/UbsanShiftProbe.cpp - UBSan must be fatal -----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Shifts a uint64_t by the count given as argv[1]. Registered (only in
// UBSan builds) as `ubsan_shift_probe 64`, marked WILL_FAIL: a UBSan
// build that recovers from the report exits 0 and the test fails, so
// the -fno-sanitize-recover flag cannot quietly go away.
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdio>
#include <cstdlib>

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: ubsan_shift_probe <shift-count>\n");
    return 2;
  }
  const unsigned Shift =
      static_cast<unsigned>(std::strtoul(Argv[1], nullptr, 10));
  const uint64_t One = 1;
  std::printf("1 << %u = %llu\n", Shift,
              static_cast<unsigned long long>(One << Shift));
  return 0;
}
