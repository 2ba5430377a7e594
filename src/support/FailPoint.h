//===- support/FailPoint.h - Deterministic fault injection -----*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic failpoint injection for robustness testing. A small
/// fixed set of named failure sites is compiled into the libraries
/// (allocation in the node arenas, short writes in trace and snapshot
/// serialization, failures at the C API boundary). Tests and the
/// `rap_fuzz --faults` driver arm a site to fail on a chosen future
/// hit; the instrumented code then simulates the failure exactly there
/// (throwing std::bad_alloc, failing the stream), which makes every
/// error path reachable on demand and replayable from a seed.
///
/// Disarmed cost: one relaxed atomic load per instrumented site, so
/// the framework stays compiled into release builds without touching
/// the benchmarked hot paths (all sites are on cold allocation or I/O
/// edges). Arming and the armed slow path are not thread-safe: fault
/// campaigns are single-threaded by design.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_FAILPOINT_H
#define RAP_SUPPORT_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <string>

namespace rap {
namespace failpoints {

/// Every instrumented failure site. The names in name() are the
/// stable spelling used by configure() specs and log output.
enum class Fp : unsigned {
  ArenaAlloc,    ///< RapTree arena slab growth -> std::bad_alloc
  Stage0Drain,   ///< StageZeroBuffer::drain scratch -> std::bad_alloc
  TraceWrite,    ///< TraceWriter record write -> stream failure
  SnapshotWrite, ///< ProfileSnapshot::writeBinary -> torn short write
  SnapshotRead,  ///< ProfileSnapshot::readBinary -> stream failure
  CApiInit,      ///< rap_init handle allocation -> std::bad_alloc
  NumFailPoints, ///< Count sentinel, not a failpoint.
};

/// Stable name of \p Point ("arena.alloc", "snapshot.write", ...).
const char *name(Fp Point);

/// Parses a failpoint name back to its id. Returns false on an
/// unknown name.
[[nodiscard]] bool parseName(const std::string &Name, Fp &Point);

namespace detail {
/// Number of currently armed failpoints; the disarmed fast path is a
/// single relaxed load of this counter.
extern std::atomic<unsigned> ArmedCount;
} // namespace detail

/// True if any failpoint is armed. Instrumented sites check this
/// before paying for the per-site bookkeeping.
inline bool anyArmed() {
  return detail::ArmedCount.load(std::memory_order_relaxed) != 0;
}

/// Arms \p Point to fail exactly once, after letting \p SkipHits
/// hits pass through unharmed. Re-arming resets the site's trigger
/// (hit and fire totals are kept).
void arm(Fp Point, uint64_t SkipHits = 0);

/// Arms \p Point to fail every \p Interval-th hit (1 = every hit)
/// until disarmed.
void armEvery(Fp Point, uint64_t Interval);

/// Arms \p Point in counting mode: hits are tallied, none fail. Used
/// to size a fault sweep before running it.
void armCounting(Fp Point);

/// Disarms \p Point (its hit/fire totals survive until re-armed).
void disarm(Fp Point);

/// Disarms every failpoint and clears all totals.
void disarmAll();

/// Hits observed at \p Point while it was armed (any mode).
uint64_t hitCount(Fp Point);

/// Failures actually injected at \p Point.
uint64_t fireCount(Fp Point);

/// Called by the instrumented site on every hit while anything is
/// armed; returns true when this hit must fail.
bool shouldFail(Fp Point);

/// Arms failpoints from a comma-separated spec, e.g.
/// "arena.alloc=once:5,snapshot.write=every:3,trace.write=count".
/// Modes: `once[:skip]`, `every:N`, `count`. Returns false (and sets
/// \p Error if non-null) on a malformed spec; sites named before the
/// malformed entry stay armed.
[[nodiscard]] bool configure(const std::string &Spec,
                             std::string *Error = nullptr);

/// RAII helper for tests: disarms everything on scope exit so a
/// failing assertion cannot leak an armed failpoint into later tests.
struct ScopedDisarm {
  ScopedDisarm() = default;
  ScopedDisarm(const ScopedDisarm &) = delete;
  ScopedDisarm &operator=(const ScopedDisarm &) = delete;
  ~ScopedDisarm() { disarmAll(); }
};

} // namespace failpoints
} // namespace rap

/// Instrumentation macro for failure sites: false (one relaxed load)
/// unless something is armed and this hit is the one chosen to fail.
#define RAP_FAILPOINT_HIT(Point)                                             \
  (rap::failpoints::anyArmed() && rap::failpoints::shouldFail(Point))

#endif // RAP_SUPPORT_FAILPOINT_H
