//===- support/Annotations.h - Lock annotations ----------------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock annotation for state shared between threads. Under Clang
/// `RAP_GUARDED_BY(m)` expands to the `guarded_by` capability
/// attribute, so a build with -Wthread-safety rejects any access to
/// the variable made without `m` held. Other compilers see nothing,
/// so annotated code stays portable; there the annotation documents
/// the discipline and the ThreadSanitizer leg (tools/ci.sh) checks it
/// on every path the threaded tests run. Usage:
///
/// \code
///   std::mutex ShardMu;
///   uint64_t PendingEvents RAP_GUARDED_BY(ShardMu);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_ANNOTATIONS_H
#define RAP_SUPPORT_ANNOTATIONS_H

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define RAP_GUARDED_BY(mutex) __attribute__((guarded_by(mutex)))
#endif
#endif

/// The variable may only be read or written while \p mutex is held.
#ifndef RAP_GUARDED_BY
#define RAP_GUARDED_BY(mutex)
#endif

#endif // RAP_SUPPORT_ANNOTATIONS_H
