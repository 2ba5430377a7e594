//===- perfbench/src/Stats.h - Sample summaries -----------------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the benchmark's timing samples. Percentiles use
/// the nearest-rank rule, and a tail percentile is only reported when at
/// least ten samples lie beyond it; with fewer, the "p99" would be the
/// maximum of a handful of samples and move with every outlier.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs beyond it before it is reported.
constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank percentile \p P (in (0, 100]) of \p Samples; 0 when
/// \p Samples is empty.
double percentile(std::vector<double> Samples, double P);

/// The mean of the samples ranked from p40 to p60; 0 when \p Samples is
/// empty. The median of times a few timer steps long: a range query
/// takes a few dozen nanoseconds, the timer moves in 10 ns steps on some
/// machines, and a nearest-rank median then jumps a whole step (30 or
/// 40 ns) from run to run.
double centralMean(std::vector<double> Samples);

/// Median (nearest-rank p50).
inline double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50.0);
}

/// The nearest-rank percentile \p P of \p Samples, or nullopt when
/// fewer than \p MinBeyond samples rank strictly above it.
std::optional<double> tailPercentile(std::vector<double> Samples, double P,
                                     size_t MinBeyond = MinSamplesBeyond);

/// Smallest sample count for which tailPercentile(_, P) is reported.
size_t samplesNeededFor(double P, size_t MinBeyond = MinSamplesBeyond);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
