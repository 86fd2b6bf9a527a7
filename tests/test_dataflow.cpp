// The forward dataflow solver (ir/dataflow.h) against a round-robin
// reference.  The round-robin solver re-transfers every reached block in
// every reverse-post-order round; the dirty-set solver transfers only
// blocks whose in-state changed.  Over random CFGs (self-loops, back
// edges to the entry, unreachable blocks, infeasible edges) and two
// lattices — intervals with per-state widening budgets, and set
// intersection — both must give the same in-states, rounds and
// convergence flag, and the dirty-set solver never transfers more.
#include "ir/dataflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>

namespace c2h {
namespace {

// The reference: solveForwardDataflow without the dirty set, so every
// reached block is transferred in every round.
template <class State, class TransferFn, class JoinFn>
ir::DataflowResult<State>
roundRobinSolve(const ir::Function &fn, State entryState, TransferFn transfer,
                JoinFn join, unsigned widenAfter = 0, unsigned maxRounds = 0) {
  ir::DataflowResult<State> result;
  if (!fn.entry())
    return result;
  std::vector<ir::BasicBlock *> order = fn.reversePostOrder();
  std::set<const ir::BasicBlock *> headers = ir::loopHeaders(fn);
  if (maxRounds == 0)
    maxRounds =
        widenAfter + static_cast<unsigned>(fn.blocks().size()) + 48;
  std::map<const ir::BasicBlock *, unsigned> joins;
  result.in.emplace(fn.entry(), std::move(entryState));
  bool changed = true;
  while (changed && result.rounds < maxRounds) {
    changed = false;
    ++result.rounds;
    for (ir::BasicBlock *block : order) {
      auto it = result.in.find(block);
      if (it == result.in.end())
        continue;
      ++result.transfers;
      std::vector<std::optional<State>> outs = transfer(*block, it->second);
      std::vector<ir::BasicBlock *> succs = block->successors();
      for (std::size_t i = 0; i < succs.size() && i < outs.size(); ++i) {
        if (!outs[i])
          continue;
        const ir::BasicBlock *succ = succs[i];
        auto sIt = result.in.find(succ);
        if (sIt == result.in.end()) {
          result.in.emplace(succ, std::move(*outs[i]));
          changed = true;
        } else {
          bool widen = widenAfter != 0 && headers.count(succ) != 0 &&
                       joins[succ] >= widenAfter;
          if (join(sIt->second, *outs[i], widen)) {
            changed = true;
            ++joins[succ];
          }
        }
      }
    }
  }
  result.converged = !changed;
  return result;
}

// SplitMix64.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

constexpr unsigned kVars = 3;
constexpr std::int64_t kLimit = 64; // values saturate at +-kLimit

// Per-block behaviour of the test lattices, drawn with the CFG.
struct BlockSpec {
  std::array<int, kVars> kind{};       // 0 keep, 1 add, 2 set
  std::array<std::int64_t, kVars> c{}; // addend or constant
  unsigned guardVar = 0;               // CondBr: true edge iff var < k
  std::int64_t k = 0;
  std::uint32_t gen = 0, kill = 0, probe = 0; // intersection lattice
};

struct RandomCfg {
  ir::Function fn{"f", 0};
  std::vector<BlockSpec> specs; // by block id
};

// Blocks end in Ret, Br or CondBr; targets favour the block itself and
// the entry, so self-loops and back edges to the entry are common, and
// some blocks end up unreachable.
void buildCfg(RandomCfg &cfg, Rng &rng) {
  const auto n = static_cast<unsigned>(rng.range(1, 12));
  std::vector<ir::BasicBlock *> blocks;
  for (unsigned i = 0; i < n; ++i)
    blocks.push_back(cfg.fn.newBlock(""));
  auto pick = [&](unsigned self) {
    switch (rng.range(0, 4)) {
    case 0:
      return blocks[self];
    case 1:
      return blocks[0];
    case 2:
      return blocks[std::min<unsigned>(self + 1, n - 1)];
    default:
      return blocks[rng.range(0, n - 1)];
    }
  };
  for (unsigned i = 0; i < n; ++i) {
    auto term = std::make_unique<ir::Instr>();
    std::int64_t r = rng.range(0, 9);
    if (r < 2) {
      term->op = ir::Opcode::Ret;
    } else if (r < 5) {
      term->op = ir::Opcode::Br;
      term->target0 = pick(i);
    } else {
      term->op = ir::Opcode::CondBr;
      term->operands.push_back(ir::Operand());
      term->target0 = pick(i);
      term->target1 = pick(i);
    }
    blocks[i]->append(std::move(term));

    BlockSpec spec;
    for (unsigned v = 0; v < kVars; ++v) {
      spec.kind[v] = static_cast<int>(rng.range(0, 2));
      spec.c[v] = spec.kind[v] == 1 ? rng.range(-2, 3) : rng.range(-8, 8);
    }
    spec.guardVar = static_cast<unsigned>(rng.range(0, kVars - 1));
    spec.k = rng.range(-6, 24);
    spec.gen = static_cast<std::uint32_t>(rng.next()) & 0xffu;
    spec.kill = static_cast<std::uint32_t>(rng.next()) & 0xffu;
    spec.probe = rng.range(0, 2) == 0
                     ? 0u
                     : 1u << static_cast<unsigned>(rng.range(0, 7));
    cfg.specs.push_back(spec);
  }
}

// --- Interval lattice --------------------------------------------------------

struct Box {
  std::array<std::int64_t, kVars> lo{}, hi{};
  bool operator==(const Box &) const = default;
};

std::int64_t sat(std::int64_t v) { return std::clamp(v, -kLimit, kLimit); }

auto intervalTransfer(const RandomCfg &cfg) {
  return [&cfg](const ir::BasicBlock &block, const Box &in) {
    const BlockSpec &spec = cfg.specs[block.id()];
    Box st = in;
    for (unsigned v = 0; v < kVars; ++v) {
      if (spec.kind[v] == 1) {
        st.lo[v] = sat(st.lo[v] + spec.c[v]);
        st.hi[v] = sat(st.hi[v] + spec.c[v]);
      } else if (spec.kind[v] == 2) {
        st.lo[v] = st.hi[v] = spec.c[v];
      }
    }
    std::vector<std::optional<Box>> outs;
    const ir::Instr *term = block.terminator();
    if (term->op == ir::Opcode::Br) {
      outs.push_back(st);
    } else if (term->op == ir::Opcode::CondBr) {
      unsigned g = spec.guardVar;
      Box t = st, f = st;
      t.hi[g] = std::min(t.hi[g], spec.k - 1);
      f.lo[g] = std::max(f.lo[g], spec.k);
      outs.push_back(t.lo[g] <= t.hi[g] ? std::optional<Box>(t)
                                        : std::nullopt);
      outs.push_back(f.lo[g] <= f.hi[g] ? std::optional<Box>(f)
                                        : std::nullopt);
    }
    return outs;
  };
}

// Hull join.  Like range analysis, widening is budgeted per in-state, keyed
// by the state's address: a widening join pushes a moving bound to the
// limit only after that state has grown twice under widening.
struct IntervalJoin {
  std::map<const Box *, unsigned> growth;
  bool operator()(Box &into, const Box &from, bool widen) {
    bool changed = false;
    unsigned &grown = growth[&into];
    for (unsigned v = 0; v < kVars; ++v) {
      std::int64_t lo = std::min(into.lo[v], from.lo[v]);
      std::int64_t hi = std::max(into.hi[v], from.hi[v]);
      if (widen && grown >= 2) {
        if (lo < into.lo[v])
          lo = -kLimit;
        if (hi > into.hi[v])
          hi = kLimit;
      }
      if (lo != into.lo[v] || hi != into.hi[v]) {
        into.lo[v] = lo;
        into.hi[v] = hi;
        changed = true;
      }
    }
    if (changed && widen)
      ++grown;
    return changed;
  }
};

// --- Intersection lattice ----------------------------------------------------

auto intersectionTransfer(const RandomCfg &cfg) {
  return [&cfg](const ir::BasicBlock &block, std::uint32_t in) {
    const BlockSpec &spec = cfg.specs[block.id()];
    std::uint32_t st = (in & ~spec.kill) | spec.gen;
    std::vector<std::optional<std::uint32_t>> outs;
    const ir::Instr *term = block.terminator();
    if (term->op == ir::Opcode::Br) {
      outs.push_back(st);
    } else if (term->op == ir::Opcode::CondBr) {
      // The true edge is infeasible while the probed bit is set.
      outs.push_back((st & spec.probe) != 0
                         ? std::nullopt
                         : std::optional<std::uint32_t>(st));
      outs.push_back(st);
    }
    return outs;
  };
}

bool intersectionJoin(std::uint32_t &into, std::uint32_t from, bool) {
  std::uint32_t joined = into & from;
  bool changed = joined != into;
  into = joined;
  return changed;
}

template <class State>
void expectSameSolve(const ir::DataflowResult<State> &want,
                     const ir::DataflowResult<State> &got,
                     const std::string &what) {
  EXPECT_TRUE(want.in == got.in) << what << ": in-states differ";
  EXPECT_EQ(want.rounds, got.rounds) << what;
  EXPECT_EQ(want.converged, got.converged) << what;
  EXPECT_LE(got.transfers, want.transfers) << what;
}

TEST(DataflowSolver, DirtySetMatchesRoundRobinOnRandomCfgs) {
  constexpr unsigned kCfgs = 10000;
  std::uint64_t oldWork = 0, newWork = 0;
  unsigned unconverged = 0, unreachable = 0, selfLoops = 0;
  for (unsigned seed = 0; seed < kCfgs; ++seed) {
    Rng rng{seed * 0x2545f4914f6cdd1dull + 17};
    RandomCfg cfg;
    buildCfg(cfg, rng);
    std::string what = "cfg seed " + std::to_string(seed);

    Box entry;
    for (unsigned v = 0; v < kVars; ++v) {
      entry.lo[v] = rng.range(-4, 4);
      entry.hi[v] = entry.lo[v] + rng.range(0, 4);
    }
    auto widenAfter = static_cast<unsigned>(rng.range(0, 2));
    // Now and then a round cap small enough that the solve stops early.
    unsigned maxRounds =
        rng.range(0, 3) == 0 ? static_cast<unsigned>(rng.range(1, 6)) : 0;

    auto interval = intervalTransfer(cfg);
    std::uint64_t calls = 0;
    auto counted = [&](const ir::BasicBlock &b, const Box &in) {
      ++calls;
      return interval(b, in);
    };
    IntervalJoin refJoin, dirtyJoin;
    auto want = roundRobinSolve(cfg.fn, entry, interval, std::ref(refJoin),
                                widenAfter, maxRounds);
    auto got = ir::solveForwardDataflow(cfg.fn, entry, counted,
                                        std::ref(dirtyJoin), widenAfter,
                                        maxRounds);
    expectSameSolve(want, got, what + " (intervals)");
    EXPECT_EQ(got.transfers, calls) << what;
    oldWork += want.transfers;
    newWork += got.transfers;
    unconverged += !want.converged;
    unreachable += want.in.size() < cfg.fn.blocks().size();
    for (const auto &block : cfg.fn.blocks())
      for (const ir::BasicBlock *succ : block->successors())
        selfLoops += succ == block.get();

    auto entryBits = static_cast<std::uint32_t>(rng.next()) & 0xffu;
    auto meet = intersectionTransfer(cfg);
    auto wantSet = roundRobinSolve(cfg.fn, entryBits, meet, intersectionJoin);
    auto gotSet =
        ir::solveForwardDataflow(cfg.fn, entryBits, meet, intersectionJoin);
    expectSameSolve(wantSet, gotSet, what + " (intersection)");
    EXPECT_TRUE(gotSet.converged) << what;
    if (::testing::Test::HasFailure())
      FAIL() << "first divergence at " << what << ":\n" << cfg.fn.str();
  }
  // The generator must reach the shapes the comparison is about.
  EXPECT_GT(unconverged, 100u);
  EXPECT_GT(unreachable, 1000u);
  EXPECT_GT(selfLoops, 1000u);
  EXPECT_LT(newWork, oldWork);
}

} // namespace
} // namespace c2h
