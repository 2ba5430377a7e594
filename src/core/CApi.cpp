//===- core/CApi.cpp - The paper's software API (Sec 3.2) ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Every function here is noexcept and catches all internal exceptions:
// a C++ exception unwinding into a C caller is undefined behavior, so
// failures are reported as null/zero returns plus rap_last_error()
// (CApiTest static_asserts noexcept on every entry point). This file
// builds with -Werror=missing-declarations, so every extern "C"
// definition here must be declared in CApi.h.
//
//===----------------------------------------------------------------------===//

#include "core/CApi.h"

#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/FailPoint.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>

using namespace rap;

// The tree lives behind a unique_ptr (RapTree itself is neither
// copyable nor movable) so rap_load_profile can adopt the tree that
// ProfileSnapshot::restore() builds.
struct rap_handle {
  explicit rap_handle(const RapConfig &Config)
      : Tree(std::make_unique<RapTree>(Config)) {}
  explicit rap_handle(std::unique_ptr<RapTree> Restored)
      : Tree(std::move(Restored)) {}
  std::unique_ptr<RapTree> Tree;
};

namespace {

/// Per-thread diagnostics for rap_last_error() / rap_errno(). A fixed
/// buffer keeps the error path itself allocation-free (reporting a
/// bad_alloc must not allocate).
thread_local char LastError[256] = "";
thread_local rap_error_code LastCode = RAP_OK;

void setLastError(rap_error_code Code, const char *Message) noexcept {
  LastCode = Code;
  std::snprintf(LastError, sizeof(LastError), "%s", Message);
}

/// Classifies a caught exception into the closest error code.
void setLastError(const std::exception &E) noexcept {
  rap_error_code Code = RAP_ERR_INTERNAL;
  if (dynamic_cast<const std::bad_alloc *>(&E))
    Code = RAP_ERR_ALLOC;
  else if (dynamic_cast<const std::invalid_argument *>(&E))
    Code = RAP_ERR_INVALID_ARGUMENT;
  setLastError(Code, E.what());
}

/// Admission parameters for initCommon; the zero default disables the
/// gate (rap_init / rap_init_budgeted behavior).
struct InitAdmission {
  bool Enable = false;
  double Coarseness = -1.0; ///< Negative: keep the config default.
  uint64_t Seed = 0;
};

rap_handle *initCommon(unsigned range_bits, double epsilon,
                       unsigned branch_factor, uint64_t max_nodes,
                       const char *Who,
                       InitAdmission Admission = {}) noexcept {
  try {
    if (RAP_FAILPOINT_HIT(failpoints::Fp::CApiInit))
      throw std::bad_alloc();
    // RangeBits 0 (the degenerate single-value universe) is legal for
    // RapConfig but useless through this API; a C caller passing 0 has
    // made a mistake, so keep rejecting it here.
    if (range_bits == 0) {
      char Message[128];
      std::snprintf(Message, sizeof(Message),
                    "%s: range_bits must be positive", Who);
      setLastError(RAP_ERR_INVALID_ARGUMENT, Message);
      return nullptr;
    }
    RapConfig Config;
    Config.RangeBits = range_bits;
    Config.Epsilon = epsilon;
    if (branch_factor != 0)
      Config.BranchFactor = branch_factor;
    Config.MaxNodes = max_nodes;
    if (Admission.Enable) {
      Config.EnableAdmission = true;
      if (Admission.Coarseness >= 0.0)
        Config.AdmissionCoarseness = Admission.Coarseness;
      if (Admission.Seed != 0)
        Config.AdmissionSeed = Admission.Seed;
    }
    // RapTree's constructor throws std::invalid_argument on a config
    // that does not validate; it surfaces here as a null handle.
    return new rap_handle(Config);
  } catch (const std::exception &E) {
    setLastError(E);
    return nullptr;
  } catch (...) {
    setLastError(RAP_ERR_INTERNAL, "rap_init: unknown failure");
    return nullptr;
  }
}

} // namespace

extern "C" rap_handle *rap_init(unsigned range_bits, double epsilon,
                                unsigned branch_factor) noexcept {
  return initCommon(range_bits, epsilon, branch_factor, /*max_nodes=*/0,
                    "rap_init");
}

extern "C" rap_handle *rap_init_budgeted(unsigned range_bits, double epsilon,
                                         unsigned branch_factor,
                                         uint64_t max_nodes) noexcept {
  return initCommon(range_bits, epsilon, branch_factor, max_nodes,
                    "rap_init_budgeted");
}

extern "C" rap_handle *rap_init_admission(unsigned range_bits, double epsilon,
                                          unsigned branch_factor,
                                          double admission_coarseness,
                                          uint64_t admission_seed) noexcept {
  InitAdmission Admission;
  Admission.Enable = true;
  Admission.Coarseness = admission_coarseness;
  Admission.Seed = admission_seed;
  return initCommon(range_bits, epsilon, branch_factor, /*max_nodes=*/0,
                    "rap_init_admission", Admission);
}

extern "C" void rap_add_points(rap_handle *handle, const uint64_t *points,
                               uint64_t num_points) noexcept {
  try {
    // RapTree only asserts the universe bound, so in a release build an
    // out-of-universe point would be misfiled onto its low bits. Check
    // the whole batch first: a rejected call records nothing.
    const unsigned RangeBits = handle->Tree->config().RangeBits;
    if (RangeBits < 64)
      for (uint64_t I = 0; I != num_points; ++I)
        if (points[I] >> RangeBits != 0) {
          char Message[160];
          std::snprintf(Message, sizeof(Message),
                        "rap_add_points: points[%llu] = 0x%llx is outside "
                        "the %u-bit universe; batch rejected",
                        static_cast<unsigned long long>(I),
                        static_cast<unsigned long long>(points[I]),
                        RangeBits);
          setLastError(RAP_ERR_INVALID_ARGUMENT, Message);
          return;
        }
    const uint64_t RefusedBefore = handle->Tree->numRefusedSplits();
    for (uint64_t I = 0; I != num_points; ++I)
      handle->Tree->addPoint(points[I]);
    // Informational: every event was recorded, but the node budget
    // forced degraded (coarser) recording. Not an error return — the
    // call did its job — but pollable via rap_errno().
    if (handle->Tree->numRefusedSplits() > RefusedBefore)
      setLastError(RAP_ERR_BUDGET_EXHAUSTED,
                   "rap_add_points: node budget exhausted; profile "
                   "degraded to coarser ranges (see rap_pressure_stats)");
  } catch (const std::exception &E) {
    setLastError(E);
  } catch (...) {
    setLastError(RAP_ERR_INTERNAL, "rap_add_points: unknown failure");
  }
}

extern "C" uint64_t rap_num_events(const rap_handle *handle) noexcept {
  return handle->Tree->numEvents();
}

extern "C" uint64_t rap_num_nodes(const rap_handle *handle) noexcept {
  return handle->Tree->numNodes();
}

extern "C" uint64_t rap_estimate_range(const rap_handle *handle, uint64_t lo,
                                       uint64_t hi) noexcept {
  if (lo > hi) {
    setLastError(RAP_ERR_INVALID_ARGUMENT,
                 "rap_estimate_range: empty range (lo > hi)");
    return 0;
  }
  return handle->Tree->estimateRange(lo, hi);
}

extern "C" int64_t rap_top_k(const rap_handle *handle, rap_range *out,
                             uint64_t k) noexcept {
  try {
    if (!handle || !out || k == 0) {
      setLastError(RAP_ERR_INVALID_ARGUMENT,
                   !handle ? "rap_top_k: null handle"
                   : !out  ? "rap_top_k: null output array"
                           : "rap_top_k: k must be positive");
      return -1;
    }
    std::vector<TopKRange> Top =
        handle->Tree->topK(static_cast<size_t>(k));
    for (size_t I = 0; I != Top.size(); ++I) {
      out[I].lo = Top[I].Lo;
      out[I].hi = Top[I].Hi;
      out[I].width_bits = Top[I].WidthBits;
      out[I].retained = Top[I].Retained;
      out[I].lower_weight = Top[I].LowerWeight;
      out[I].upper_weight = Top[I].UpperWeight;
    }
    return static_cast<int64_t>(Top.size());
  } catch (const std::exception &E) {
    setLastError(E);
    return -1;
  } catch (...) {
    setLastError(RAP_ERR_INTERNAL, "rap_top_k: unknown failure");
    return -1;
  }
}

extern "C" int rap_pressure_stats(const rap_handle *handle,
                                  rap_pressure *out) noexcept {
  if (!handle || !out) {
    setLastError(RAP_ERR_INVALID_ARGUMENT,
                 "rap_pressure_stats: null handle or output pointer");
    return -1;
  }
  const TreePressure &P = handle->Tree->pressure();
  out->node_budget = P.NodeBudget;
  out->budget_hits = P.BudgetHits;
  out->refused_splits = P.RefusedSplits;
  out->forced_merge_passes = P.ForcedMergePasses;
  out->reclaimed_nodes = P.ReclaimedNodes;
  out->coarsen_level = P.CoarsenLevel;
  out->degraded_weight = P.DegradedWeight;
  out->alloc_failures = P.AllocFailures;
  out->admission_denied_splits = P.AdmissionDeniedSplits;
  out->admission_deferred_weight = P.AdmissionDeferredWeight;
  return 0;
}

extern "C" int rap_save_profile(const rap_handle *handle,
                                const char *path) noexcept {
  try {
    if (!handle || !path) {
      setLastError(RAP_ERR_INVALID_ARGUMENT,
                   "rap_save_profile: null handle or path");
      return -1;
    }
    std::string Error;
    ProfileIoError Kind = ProfileIoError::None;
    if (!ProfileSnapshot::capture(*handle->Tree)
             .saveFileAtomic(path, &Error, &Kind)) {
      setLastError(RAP_ERR_IO_FAILURE, Error.c_str());
      return -1;
    }
    return 0;
  } catch (const std::exception &E) {
    setLastError(E);
    return -1;
  } catch (...) {
    setLastError(RAP_ERR_INTERNAL, "rap_save_profile: unknown failure");
    return -1;
  }
}

extern "C" rap_handle *rap_load_profile(const char *path) noexcept {
  try {
    if (!path) {
      setLastError(RAP_ERR_INVALID_ARGUMENT, "rap_load_profile: null path");
      return nullptr;
    }
    std::string Error;
    ProfileIoError Kind = ProfileIoError::None;
    std::unique_ptr<ProfileSnapshot> Snapshot =
        ProfileSnapshot::loadFile(path, &Error, &Kind);
    if (!Snapshot) {
      setLastError(Kind == ProfileIoError::Io ? RAP_ERR_IO_FAILURE
                                              : RAP_ERR_CORRUPT_PROFILE,
                   Error.c_str());
      return nullptr;
    }
    return new rap_handle(Snapshot->restore());
  } catch (const std::exception &E) {
    setLastError(E);
    return nullptr;
  } catch (...) {
    setLastError(RAP_ERR_INTERNAL, "rap_load_profile: unknown failure");
    return nullptr;
  }
}

extern "C" uint64_t rap_finalize(rap_handle *handle, char *buffer,
                                 uint64_t size) noexcept {
  uint64_t Required = 0;
  try {
    if (buffer || size) {
      std::ostringstream Stream;
      handle->Tree->dump(Stream);
      std::string Text = Stream.str();
      Required = Text.size();
      if (buffer && size > 0) {
        uint64_t Copy = Required < size - 1 ? Required : size - 1;
        std::memcpy(buffer, Text.data(), Copy);
        buffer[Copy] = '\0';
      }
    }
  } catch (const std::exception &E) {
    setLastError(E);
    Required = 0;
  } catch (...) {
    setLastError(RAP_ERR_INTERNAL, "rap_finalize: unknown failure");
    Required = 0;
  }
  delete handle;
  return Required;
}

extern "C" const char *rap_last_error(void) noexcept { return LastError; }

extern "C" rap_error_code rap_errno(void) noexcept { return LastCode; }

extern "C" void rap_clear_error(void) noexcept {
  LastCode = RAP_OK;
  LastError[0] = '\0';
}
