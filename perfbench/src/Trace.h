//===- perfbench/src/Trace.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each layer
/// of the profiler. A span holds its name, start, end, parent span and
/// request id (the batch, round or query index). Spans stay in memory
/// and are written out once, when the run ends. One Tracer belongs to
/// one thread; a disabled Tracer records nothing, so the traced and the
/// untraced runs execute the same benchmark code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The clock of sub-microsecond samples: range queries and every span.
/// Back to back it reads in about 10 ns, steady_clock in about 20 ns (on
/// a 4-vCPU x86-64 VM), so less of a probe the range fence answers in a
/// few dozen nanoseconds is the timer itself. Under a hypervisor it can
/// still advance in 10 ns steps, so query p50s are centralMean()s.
inline uint64_t cycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(nowNs());
#endif
}

/// Nanoseconds per cycles() tick, calibrated against steady_clock on
/// first use (20 ms), which should happen before any timing.
double nsPerCycle();

/// Nanoseconds on the cycles() clock since its calibration. Spans are
/// timed with it, so a span of a few dozen nanoseconds is not rounded
/// to a steady_clock step.
int64_t cycleNs();

/// Microseconds since \p Start, a cycles() reading.
inline double usSinceCycles(uint64_t Start) {
  return static_cast<double>(cycles() - Start) * nsPerCycle() / 1e3;
}

struct Span {
  const char *Name = ""; ///< Static string: the layer call.
  uint64_t Request = 0;  ///< Batch, round or query index.
  int64_t StartNs = 0; ///< cycleNs() readings.
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
};

/// Per-thread span recorder; open spans nest.
class Tracer {
public:
  explicit Tracer(bool Enabled, size_t ReserveSpans = 0);

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span under the innermost open one. Returns its id, or -1
  /// when disabled.
  int32_t open(const char *Name, uint64_t Request);
  /// Closes span \p Id (a no-op for -1).
  void close(int32_t Id);

  const std::vector<Span> &spans() const { return Spans; }
  /// Hands the recorded spans over, leaving the tracer empty.
  std::vector<Span> release() { return std::move(Spans); }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> OpenStack;
};

/// RAII span.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Request)
      : Owner(T), Id(T.open(Name, Request)) {}
  ~ScopedSpan() { Owner.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &Owner;
  int32_t Id;
};

/// Writes one CSV line per span of \p Spans, tagged with \p List (the
/// recorder: a thread, or one traced pass).
void writeCsv(std::ostream &OS, const std::vector<Span> &Spans,
              unsigned List);

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children may overlap one another and may stick
/// out of their parent; only the union of their intervals inside the
/// parent is subtracted.
std::vector<int64_t> selfTimes(const std::vector<Span> &Spans);

/// Totals of all spans sharing one name.
struct LayerTotals {
  uint64_t Count = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0;
  std::vector<double> DurationsUs;
};

/// Groups \p Spans by name.
std::map<std::string, LayerTotals> totalsByName(const std::vector<Span> &Spans);

/// Adds the totals of \p Spans (one recorder's list) into \p Into.
void addTotals(std::map<std::string, LayerTotals> &Into,
               const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
