//===- lint/Dataflow.h - Forward dataflow over lint CFGs ------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small forward worklist solver over lint::Cfg for may-analyses
/// (use-after-move, counter taint): the join is union, so a fact holds
/// at a block if it holds on ANY path into it. Blocks not yet visited
/// contribute nothing.
///
/// The transfer function maps a block's entry state to its exit state
/// by walking its Actions; findings are emitted on a separate final
/// pass once states converge.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_LINT_DATAFLOW_H
#define RAP_LINT_DATAFLOW_H

#include "lint/Cfg.h"

#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace rap {
namespace lint {

/// Dataflow facts are sets of variable (or mutex) names.
using FactSet = std::set<std::string>;

/// The converged per-block entry states plus reachability.
struct DataflowResult {
  std::vector<FactSet> EntryState; ///< Index-aligned with Cfg blocks.
  std::vector<bool> Reached;       ///< From the entry block.
};

/// Runs a forward union-join worklist analysis to a fixed point.
/// \p Transfer maps (block, entry-state) to the block's exit state; it
/// must be monotone (a larger entry set gives a larger exit set) or
/// iteration may not terminate (with name-set facts over one function
/// this is easy to satisfy and cheap to iterate).
inline DataflowResult
solveForward(const Cfg &G, const FactSet &EntryFacts,
             const std::function<FactSet(const BasicBlock &, FactSet)>
                 &Transfer) {
  DataflowResult R;
  R.EntryState.assign(G.Blocks.size(), {});
  R.Reached.assign(G.Blocks.size(), false);
  R.Reached[Cfg::Entry] = true;
  R.EntryState[Cfg::Entry] = EntryFacts;

  std::deque<size_t> Worklist{Cfg::Entry};
  std::vector<bool> Queued(G.Blocks.size(), false);
  Queued[Cfg::Entry] = true;

  while (!Worklist.empty()) {
    size_t Id = Worklist.front();
    Worklist.pop_front();
    Queued[Id] = false;

    FactSet Out = Transfer(G.Blocks[Id], R.EntryState[Id]);
    for (size_t Succ : G.Blocks[Id].Succs) {
      FactSet Merged = R.EntryState[Succ];
      Merged.insert(Out.begin(), Out.end());
      if (R.Reached[Succ] && Merged == R.EntryState[Succ])
        continue;
      R.Reached[Succ] = true;
      R.EntryState[Succ] = std::move(Merged);
      if (!Queued[Succ]) {
        Queued[Succ] = true;
        Worklist.push_back(Succ);
      }
    }
  }
  return R;
}

} // namespace lint
} // namespace rap

#endif // RAP_LINT_DATAFLOW_H
