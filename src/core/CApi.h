//===- core/CApi.h - The paper's software API (Sec 3.2) --------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-call software interface described in Section 3.2 of the
/// paper: rap_init(), rap_add_points(), rap_finalize(). These are thin
/// C-linkage wrappers over RapTree so the profiler "can either be
/// called from online analysis or to post process trace files". The
/// finalize call dumps the resulting RAP tree in ASCII for further
/// processing (hot-spot identification, range coverage, ...).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_CAPI_H
#define RAP_CORE_CAPI_H

#include <cstdint>

/// Every entry point is exception-tight: no C++ exception can cross
/// the C boundary (that would be undefined behavior for a C caller).
/// Failures surface as null handles / zero returns plus a diagnostic
/// retrievable with rap_last_error(). An int status return must be
/// read: a C++ caller that drops one does not compile (RAP_NODISCARD
/// with -Werror=unused-result).
#if defined(__cplusplus)
#define RAP_NOEXCEPT noexcept
#define RAP_NODISCARD [[nodiscard]]
#else
#define RAP_NOEXCEPT
#define RAP_NODISCARD
#endif

extern "C" {

/// Opaque handle to a RAP profile.
typedef struct rap_handle rap_handle;

/// Machine-readable classification of the most recent failure, the
/// companion to rap_last_error()'s human-readable text. Thread-local,
/// like the text: each thread sees only its own failures.
typedef enum rap_error_code {
  RAP_OK = 0,                   ///< No failure recorded.
  RAP_ERR_INVALID_ARGUMENT = 1, ///< A parameter failed validation.
  RAP_ERR_ALLOC = 2,            ///< Memory allocation failed.
  RAP_ERR_BUDGET_EXHAUSTED = 3, ///< Node budget reached; estimates are
                                ///< degraded (informational: events
                                ///< were still recorded).
  RAP_ERR_CORRUPT_PROFILE = 4,  ///< A profile file failed validation
                                ///< (truncated, bit flips, bad CRC).
  RAP_ERR_IO_FAILURE = 5,       ///< A file could not be read/written.
  RAP_ERR_INTERNAL = 6,         ///< Any other internal failure.
} rap_error_code;

/// Creates a RAP profile over the universe [0, 2^range_bits) with
/// error bound \p epsilon and branching factor \p branch_factor
/// (pass 0 for the paper defaults: b = 4, q = 2). Returns null if the
/// parameters do not validate or allocation fails; rap_last_error()
/// then describes the failure.
rap_handle *rap_init(unsigned range_bits, double epsilon,
                     unsigned branch_factor) RAP_NOEXCEPT;

/// Like rap_init(), but additionally caps the profile at
/// \p max_nodes live tree nodes (0 = unbounded, identical to
/// rap_init). At the cap the profiler degrades gracefully instead of
/// allocating: splits are refused and cold subtrees are force-merged;
/// estimates remain lower bounds and rap_pressure_stats() reports how
/// much accuracy was given up.
rap_handle *rap_init_budgeted(unsigned range_bits, double epsilon,
                              unsigned branch_factor,
                              uint64_t max_nodes) RAP_NOEXCEPT;

/// Like rap_init(), but with the randomized split-admission gate
/// enabled: a leaf due to split is admitted only with probability
/// proportional to how far its counter overshot the threshold, so
/// cold singletons never allocate nodes. \p admission_coarseness
/// scales the denial rate (pass a negative value for the default;
/// larger denies more); \p admission_seed fixes the decision stream
/// so runs replay deterministically. The accuracy cost is bounded and
/// observable: rap_pressure_stats() reports the deferred weight,
/// which is the extra absolute error any estimate can carry.
rap_handle *rap_init_admission(unsigned range_bits, double epsilon,
                               unsigned branch_factor,
                               double admission_coarseness,
                               uint64_t admission_seed) RAP_NOEXCEPT;

/// Feeds \p num_points events into the profile. Looks up the
/// appropriate counter, updates it, and internally performs the split
/// and batched-merge operations when needed. The batch is validated
/// first: if any point lies outside [0, 2^range_bits), none of the
/// batch is recorded and rap_errno() = RAP_ERR_INVALID_ARGUMENT, with
/// rap_last_error() naming the first bad index. On an internal failure
/// (e.g. allocation during a split) the already-consumed prefix stays
/// recorded, the rest is dropped, and rap_last_error() is set.
void rap_add_points(rap_handle *handle, const uint64_t *points,
                    uint64_t num_points) RAP_NOEXCEPT;

/// Number of events processed so far.
uint64_t rap_num_events(const rap_handle *handle) RAP_NOEXCEPT;

/// Current number of range counters (nodes) in the tree.
uint64_t rap_num_nodes(const rap_handle *handle) RAP_NOEXCEPT;

/// Lower-bound estimate of the number of events in [lo, hi]. An empty
/// range (lo > hi) returns 0 with rap_errno() =
/// RAP_ERR_INVALID_ARGUMENT.
uint64_t rap_estimate_range(const rap_handle *handle, uint64_t lo,
                            uint64_t hi) RAP_NOEXCEPT;

/// One entry of a top-k hot-range report (rap_top_k). Mirrors the C++
/// TopKRange struct field for field.
typedef struct rap_range {
  uint64_t lo;           ///< Lowest value of the range.
  uint64_t hi;           ///< Highest value (inclusive).
  unsigned width_bits;   ///< log2 of the range width.
  uint64_t retained;     ///< Weight retained at this granularity.
  uint64_t lower_weight; ///< Provable lower bound on the true count.
  uint64_t upper_weight; ///< Provable upper bound on the true count.
} rap_range;

/// Writes the profile's top \p k hottest ranges (by retained weight,
/// deterministically tie-broken) into \p out, which must have room
/// for \p k entries. Returns the number of entries written — fewer
/// than \p k when the tree is smaller — or -1 with rap_errno() =
/// RAP_ERR_INVALID_ARGUMENT for a null \p handle, a null \p out, or
/// k == 0.
int64_t rap_top_k(const rap_handle *handle, rap_range *out,
                  uint64_t k) RAP_NOEXCEPT;

/// Writes an ASCII dump of the profile tree into \p buffer (at most
/// \p size bytes including the terminator) and destroys the handle.
/// Pass a null \p buffer to just destroy the handle. Returns the
/// number of bytes that the full dump requires (excluding the
/// terminator), like snprintf; on an internal failure the handle is
/// still destroyed and 0 is returned with rap_last_error() set.
uint64_t rap_finalize(rap_handle *handle, char *buffer,
                      uint64_t size) RAP_NOEXCEPT;

/// Resource-pressure counters of a budgeted profile (all zero when no
/// budget is configured and no allocation ever failed). Mirrors the
/// C++ TreePressure struct field for field.
typedef struct rap_pressure {
  uint64_t node_budget;        ///< Effective node cap (0 = unbounded).
  uint64_t budget_hits;        ///< Updates that ran into the cap.
  uint64_t refused_splits;     ///< Due splits refused at the cap.
  uint64_t forced_merge_passes; ///< Emergency coarsening passes.
  uint64_t reclaimed_nodes;    ///< Nodes freed by forced passes.
  uint64_t coarsen_level;      ///< Current degradation level.
  uint64_t degraded_weight;    ///< Event weight outside the eps*n bound.
  uint64_t alloc_failures;     ///< Splits abandoned on bad_alloc.
  uint64_t admission_denied_splits;   ///< Due splits the admission
                                      ///< gate denied.
  uint64_t admission_deferred_weight; ///< Weight of denied arrivals —
                                      ///< the closed-form extra error
                                      ///< bound admission adds.
} rap_pressure;

/// Copies the profile's pressure counters into \p out. Returns 0 on
/// success, -1 (with rap_errno() set) if \p handle or \p out is null.
RAP_NODISCARD int rap_pressure_stats(const rap_handle *handle,
                                     rap_pressure *out) RAP_NOEXCEPT;

/// Saves the profile to \p path in the checksummed binary snapshot
/// format, atomically (write to a temp file, then rename). Returns 0
/// on success, -1 with rap_errno() = RAP_ERR_IO_FAILURE (or
/// RAP_ERR_INVALID_ARGUMENT for a null path) on failure; on failure
/// an existing file at \p path is left untouched.
RAP_NODISCARD int rap_save_profile(const rap_handle *handle,
                                   const char *path) RAP_NOEXCEPT;

/// Loads a profile saved by rap_save_profile() (or written by the
/// rap_profile tool) and returns a live handle positioned to continue
/// profiling. Returns null with rap_errno() = RAP_ERR_CORRUPT_PROFILE
/// for a file that fails validation (truncation, bit flips, checksum
/// mismatch) or RAP_ERR_IO_FAILURE when the file cannot be read.
rap_handle *rap_load_profile(const char *path) RAP_NOEXCEPT;

/// Describes the most recent failure observed by this thread inside
/// the C API. Never null; the empty string if no call has failed.
/// Successful calls do not clear it, so check return values first.
const char *rap_last_error(void) RAP_NOEXCEPT;

/// The code classifying the most recent failure on this thread, or
/// RAP_OK if none. Successful calls do not clear it; use
/// rap_clear_error() between calls when polling.
rap_error_code rap_errno(void) RAP_NOEXCEPT;

/// Resets this thread's rap_errno() to RAP_OK and rap_last_error()
/// to the empty string.
void rap_clear_error(void) RAP_NOEXCEPT;

} // extern "C"

#endif // RAP_CORE_CAPI_H
