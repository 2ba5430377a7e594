//===- tests/core/SweepSampler.h - Shared property-test sampler -*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random-but-valid configuration sampler and stream generator
/// shared by the property sweeps (RapTreePropertyTest) and the
/// arena-vs-reference equivalence sweeps (RapTreeArenaEquivalenceTest).
/// Both suites must draw the SAME 50 configurations from the same
/// master seed: a property violation and an equivalence divergence on
/// configuration c17 then point at the same (eps, b, R, q, stream)
/// point of the parameter space.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_TESTS_CORE_SWEEPSAMPLER_H
#define RAP_TESTS_CORE_SWEEPSAMPLER_H

#include "support/BitUtils.h"
#include "support/Distributions.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace rap {
namespace sweeptest {

enum class StreamKind { Uniform, Zipf, PointPlusNoise, Clustered };

struct SweepParam {
  unsigned Index;
  double Epsilon;
  unsigned BranchFactor;
  unsigned RangeBits;
  double MergeRatio;
  uint64_t StreamSeed;
  StreamKind Kind;
};

inline std::string kindName(StreamKind Kind) {
  switch (Kind) {
  case StreamKind::Uniform:
    return "Uniform";
  case StreamKind::Zipf:
    return "Zipf";
  case StreamKind::PointPlusNoise:
    return "PointPlusNoise";
  case StreamKind::Clustered:
    return "Clustered";
  }
  return "?";
}

/// gtest's printer for a sweep point, used in failure messages and in
/// the `# GetParam() = ...` suffix of every listed test name. Without
/// it gtest dumps the struct's raw bytes, padding included, so two
/// builds of one tree could list different names. The fields are
/// printed after gtest's own `N-byte object` head, which keeps the
/// leading part of each existing ctest name unchanged.
inline void PrintTo(const SweepParam &P, std::ostream *Os) {
  char Buffer[160];
  std::snprintf(Buffer, sizeof(Buffer),
                "%zu-byte object {c%02u eps=%.6g b=%u bits=%u q=%.6g "
                "seed=0x%016llx %s}",
                sizeof(SweepParam), P.Index, P.Epsilon, P.BranchFactor,
                P.RangeBits, P.MergeRatio,
                static_cast<unsigned long long>(P.StreamSeed),
                kindName(P.Kind).c_str());
  *Os << Buffer;
}

inline std::string paramName(const testing::TestParamInfo<SweepParam> &Info) {
  const SweepParam &P = Info.param;
  char Buffer[128];
  std::snprintf(Buffer, sizeof(Buffer), "c%02u_eps%d_b%u_bits%u_q%d_%s",
                P.Index, static_cast<int>(P.Epsilon * 1000), P.BranchFactor,
                P.RangeBits, static_cast<int>(P.MergeRatio * 100),
                kindName(P.Kind).c_str());
  return Buffer;
}

/// Draws one random-but-valid sweep configuration. Deterministic: the
/// whole suite is reproducible from the master seed, and any instance
/// is identified by its index in the test name.
inline SweepParam drawParam(unsigned Index, SplitMix64 &M) {
  auto Unit = [&M] {
    return static_cast<double>(M.next() >> 11) * 0x1.0p-53;
  };
  SweepParam P;
  P.Index = Index;
  P.Epsilon = std::exp(std::log(0.01) +
                       Unit() * (std::log(0.5) - std::log(0.01)));
  P.RangeBits = 8 + unsigned(M.next() % 57); // [8, 64]
  static const unsigned Branches[] = {2, 4, 8, 16};
  P.BranchFactor = Branches[M.next() % 4];
  P.MergeRatio = 1.5 + Unit() * 2.5; // [1.5, 4]
  P.StreamSeed = M.next();
  P.Kind = static_cast<StreamKind>(M.next() % 4);
  return P;
}

/// The standard 50-configuration sweep both suites instantiate over.
inline std::vector<SweepParam> standardSweep() {
  std::vector<SweepParam> Params;
  SplitMix64 M(0x5eed2026);
  for (unsigned I = 0; I != 50; ++I)
    Params.push_back(drawParam(I, M));
  return Params;
}

/// Generates one event of the requested stream shape.
class StreamGen {
public:
  StreamGen(StreamKind Kind, unsigned RangeBits, uint64_t Seed)
      : Kind(Kind), Mask(lowBitMask(RangeBits)), Generator(Seed),
        Tail(4096, 1.1) {}

  uint64_t next() {
    switch (Kind) {
    case StreamKind::Uniform:
      return Generator.next() & Mask;
    case StreamKind::Zipf: {
      uint64_t Rank = Tail.sample(Generator);
      // Spread ranks over the universe deterministically.
      return (Rank * 0x9e3779b97f4a7c15ULL) & Mask;
    }
    case StreamKind::PointPlusNoise:
      if (Generator.nextBernoulli(0.4))
        return 42 & Mask;
      return Generator.next() & Mask;
    case StreamKind::Clustered: {
      // Three narrow clusters plus background. The final mask keeps
      // cluster offsets inside small universes too.
      double U = Generator.nextDouble();
      uint64_t X;
      if (U < 0.3)
        X = (Mask / 4) + Generator.nextBelow(64);
      else if (U < 0.55)
        X = (Mask / 2) + Generator.nextBelow(1024);
      else if (U < 0.7)
        X = Generator.nextBelow(16);
      else
        X = Generator.next();
      return X & Mask;
    }
    }
    return 0;
  }

private:
  StreamKind Kind;
  uint64_t Mask;
  Rng Generator;
  ZipfDistribution Tail;
};

} // namespace sweeptest
} // namespace rap

#endif // RAP_TESTS_CORE_SWEEPSAMPLER_H
