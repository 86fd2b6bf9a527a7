// Reusable forward-dataflow scaffolding over the IR control-flow graph.
//
// Every IR-level analysis in this repo iterates the same way: reverse
// post-order sweeps over the CFG until the per-block states stop changing,
// with states delivered along edges (so reachability falls out for free:
// a block only acquires a state once some feasible edge hands it one).
// This header factors that iteration out so an analysis supplies only its
// lattice: a State, a per-block transfer producing one out-state per
// successor edge (or "edge infeasible"), and a join.
//
// Widening hooks: joins into loop headers (targets of CFG back edges) pass
// `widen = true` once the header has absorbed more than `widenAfter`
// updates, letting interval-style domains with infinite ascending chains
// force termination without giving up precision on short loops.
//
// Dirty-set rounds.  Each round still walks the blocks in reverse post-
// order, but transfers only the blocks whose in-state changed since their
// last transfer: on first reach, or after a join into them returned true.
// A clean block would hand its successors the same out-states as last
// time, and those joins would return false, so skipping it changes
// nothing the solver can observe.  The result — `in`, `rounds`,
// `converged`, and the exact sequence of state-changing joins, which is
// what drives widening — equals that of re-transferring every reached
// block every round, under two conditions on the analysis:
//  * transfer is pure: the same block and in-state give the same outs,
//    with no side effects the analysis reads back during the solve;
//  * join absorbs: re-joining a state already merged into `into` (with
//    any number of later joins or widenings in between) returns false.
// Joins at loop headers happen in the same order as a round-robin sweep.
// A priority worklist would reorder them and with them where widening
// fires, so it would change the facts, not just the speed.
#ifndef C2H_IR_DATAFLOW_H
#define C2H_IR_DATAFLOW_H

#include "ir/ir.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace c2h::ir {

// Predecessors of every edge-reachable block, derived from terminators.
inline std::map<const BasicBlock *, std::vector<const BasicBlock *>>
predecessorMap(const Function &fn) {
  std::map<const BasicBlock *, std::vector<const BasicBlock *>> preds;
  for (const auto &block : fn.blocks())
    for (BasicBlock *succ : block->successors())
      preds[succ].push_back(block.get());
  return preds;
}

// Targets of back edges w.r.t. a DFS from the entry — the loop headers,
// where widening must apply for domains with unbounded ascending chains.
inline std::set<const BasicBlock *> loopHeaders(const Function &fn) {
  std::set<const BasicBlock *> headers;
  if (!fn.entry())
    return headers;
  std::set<const BasicBlock *> onStack, done;
  // Iterative DFS: (block, next successor index).
  std::vector<std::pair<const BasicBlock *, std::size_t>> stack;
  stack.push_back({fn.entry(), 0});
  onStack.insert(fn.entry());
  while (!stack.empty()) {
    auto &[block, idx] = stack.back();
    std::vector<BasicBlock *> succs = block->successors();
    if (idx >= succs.size()) {
      onStack.erase(block);
      done.insert(block);
      stack.pop_back();
      continue;
    }
    const BasicBlock *next = succs[idx++];
    if (onStack.count(next)) {
      headers.insert(next); // back edge
    } else if (!done.count(next)) {
      stack.push_back({next, 0});
      onStack.insert(next);
    }
  }
  return headers;
}

template <class State> struct DataflowResult {
  // Converged block-entry states.  A block absent from the map was never
  // reached by any feasible edge — dead under the analysis's lattice.
  std::map<const BasicBlock *, State> in;
  bool converged = false;
  unsigned rounds = 0;
  // Block transfers performed; a round-robin sweep would do one per
  // reached block per round.
  std::uint64_t transfers = 0;
};

// Forward solver.
//   transfer(block, in)  -> std::vector<std::optional<State>>, one entry per
//                           block.successors() element; std::nullopt marks
//                           the edge infeasible (its target gets nothing).
//   join(into, from, widen) -> bool: merge `from` into `into`, return
//                           whether `into` changed; apply widening when
//                           `widen` is set.
// The entry block starts from `entryState`; everything else starts unknown.
template <class State, class TransferFn, class JoinFn>
DataflowResult<State>
solveForwardDataflow(const Function &fn, State entryState, TransferFn transfer,
                     JoinFn join, unsigned widenAfter = 0,
                     unsigned maxRounds = 0) {
  DataflowResult<State> result;
  if (!fn.entry())
    return result;
  std::vector<BasicBlock *> order = fn.reversePostOrder();
  std::set<const BasicBlock *> headers = loopHeaders(fn);
  if (maxRounds == 0)
    maxRounds =
        widenAfter + static_cast<unsigned>(fn.blocks().size()) + 48;
  std::map<const BasicBlock *, unsigned> joins;
  // Blocks whose in-state changed since they were last transferred.
  std::set<const BasicBlock *> dirty = {fn.entry()};
  result.in.emplace(fn.entry(), std::move(entryState));
  bool changed = true;
  while (changed && result.rounds < maxRounds) {
    changed = false;
    ++result.rounds;
    for (BasicBlock *block : order) {
      if (!dirty.erase(block))
        continue; // unreached, or in-state unchanged since its transfer
      ++result.transfers;
      std::vector<std::optional<State>> outs =
          transfer(*block, result.in.at(block));
      std::vector<BasicBlock *> succs = block->successors();
      for (std::size_t i = 0; i < succs.size() && i < outs.size(); ++i) {
        if (!outs[i])
          continue;
        const BasicBlock *succ = succs[i];
        auto sIt = result.in.find(succ);
        if (sIt == result.in.end()) {
          result.in.emplace(succ, std::move(*outs[i]));
          changed = true;
          dirty.insert(succ);
        } else {
          // Only joins that actually change the target state count toward
          // the widening budget: a header inside a slowly-converging outer
          // loop receives many no-op deliveries, and counting those would
          // widen values the loop never modifies (losing, say, the outer
          // induction variable's bound inside an inner loop, where no
          // branch refinement can win it back).
          bool widen = widenAfter != 0 && headers.count(succ) != 0 &&
                       joins[succ] >= widenAfter;
          if (join(sIt->second, *outs[i], widen)) {
            changed = true;
            ++joins[succ];
            dirty.insert(succ);
          }
        }
      }
    }
  }
  result.converged = !changed;
  return result;
}

} // namespace c2h::ir

#endif // C2H_IR_DATAFLOW_H
