//===- perfbench/src/Stats.cpp - Sample summaries -------------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

/// Zero-based nearest-rank index of percentile P among N samples.
static size_t rankIndex(size_t N, double P) {
  double Rank = std::ceil(P / 100.0 * static_cast<double>(N));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return std::min(Index, N - 1);
}

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  size_t I = rankIndex(Samples.size(), P);
  std::nth_element(Samples.begin(), Samples.begin() + I, Samples.end());
  return Samples[I];
}

double perfbench::centralMean(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Lo = rankIndex(Samples.size(), 40.0);
  size_t Hi = rankIndex(Samples.size(), 60.0);
  double Sum = 0.0;
  for (size_t I = Lo; I <= Hi; ++I)
    Sum += Samples[I];
  return Sum / static_cast<double>(Hi - Lo + 1);
}

std::optional<double> perfbench::tailPercentile(std::vector<double> Samples,
                                                double P, size_t MinBeyond) {
  if (Samples.empty())
    return std::nullopt;
  size_t I = rankIndex(Samples.size(), P);
  if (Samples.size() - 1 - I < MinBeyond)
    return std::nullopt;
  return percentile(std::move(Samples), P);
}

size_t perfbench::samplesNeededFor(double P, size_t MinBeyond) {
  size_t N = 1;
  while (N - 1 - rankIndex(N, P) < MinBeyond)
    ++N;
  return N;
}
