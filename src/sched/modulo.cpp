#include "sched/modulo.h"

#include "sched/dfg.h"
#include "ir/exec.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace c2h::sched {

using ir::Opcode;

namespace {

// Entered by every executePipelined run; trip-count charges and verdicts
// carry its name.
guard::Stage stageModulo("sched.modulo");

struct LoopShape {
  const ir::BasicBlock *cond = nullptr;  // tests the exit condition
  const ir::BasicBlock *latch = nullptr; // straight-line body, branches back
};

// Find the first {cond, latch} loop: cond ends in CondBr; one successor
// (the latch chain reduced by simplifyCFG to a single block) branches
// straight back to cond.
std::optional<LoopShape> findSimpleLoop(const ir::Function &fn) {
  for (const auto &block : fn.blocks()) {
    const ir::Instr *term = block->terminator();
    if (!term || term->op != Opcode::CondBr)
      continue;
    for (const ir::BasicBlock *succ : {term->target0, term->target1}) {
      if (!succ)
        continue;
      const ir::Instr *latchTerm = succ->terminator();
      if (latchTerm && latchTerm->op == Opcode::Br &&
          latchTerm->target0 == block.get())
        return LoopShape{block.get(), succ};
    }
  }
  return std::nullopt;
}

// One node of the unified iteration graph.
struct MsNode {
  const ir::Instr *instr = nullptr;
  FuClass cls = FuClass::Other;
  OpTiming timing;
  unsigned lat = 1;
};

struct MsEdge {
  unsigned from = 0, to = 0;
  unsigned distance = 0; // 0 = same iteration, 1 = next iteration
  unsigned delay = 1;    // cycles `to` must start after `from` starts
};

} // namespace

PipelineResult pipelineInnermostLoop(const ir::Function &fn,
                                     const TechLibrary &lib,
                                     const SchedOptions &options) {
  PipelineResult result;
  auto loop = findSimpleLoop(fn);
  if (!loop) {
    result.reason = "no simple loop: control flow inside the loop body "
                    "prevents pipelining";
    return result;
  }

  // Collect the iteration's instructions: condition block then latch.
  std::vector<MsNode> nodes;
  auto addBlock = [&](const ir::BasicBlock *block) {
    for (const auto &instr : block->instrs()) {
      if (instr->isTerminator())
        continue;
      MsNode node;
      node.instr = instr.get();
      node.cls = fuClassOf(instr->op);
      unsigned width = instr->dst ? instr->dst->width
                       : instr->operands.empty()
                           ? 1
                           : instr->operands[0].width();
      node.timing = lib.lookup(instr->op, width, options.clockNs);
      node.lat = std::max(1u, node.timing.latency);
      nodes.push_back(node);
    }
  };
  addBlock(loop->cond);
  addBlock(loop->latch);

  for (const auto &node : nodes) {
    switch (node.instr->op) {
    case Opcode::Call:
    case Opcode::Fork:
    case Opcode::ChanSend:
    case Opcode::ChanRecv:
    case Opcode::Delay:
      result.reason = std::string("synchronizing operation (") +
                      opcodeName(node.instr->op) +
                      ") inside the loop prevents pipelining";
      return result;
    default:
      break;
    }
  }

  // Dependence edges.  Distance 0: program-order within the iteration.
  // Distance 1: a value read at position i and written at position j >= i
  // (the read sees last iteration's value), plus conservative memory
  // recurrences.
  // Register anti- and output-dependences are intentionally absent:
  // a pipelining compiler removes them with modulo variable expansion
  // (rotating/stage registers), and our FSMD generator allocates the stage
  // copies implicitly when it overlaps iterations.  Memory dependences are
  // kept conservatively.
  std::vector<MsEdge> edges;
  auto addEdge = [&](unsigned from, unsigned to, unsigned dist,
                     unsigned delay) {
    if (from == to && dist == 0)
      return;
    edges.push_back({from, to, dist, delay});
  };

  std::map<unsigned, unsigned> lastWrite; // vreg -> node (this iteration)
  std::map<unsigned, unsigned> lastStoreMem;
  std::map<unsigned, std::vector<unsigned>> loadsMem;
  for (unsigned i = 0; i < nodes.size(); ++i) {
    const ir::Instr &instr = *nodes[i].instr;
    for (const auto &op : instr.operands) {
      if (!op.isReg())
        continue;
      auto w = lastWrite.find(op.reg().id);
      if (w != lastWrite.end())
        addEdge(w->second, i, 0, nodes[w->second].lat); // RAW
    }
    if (instr.dst)
      lastWrite[instr.dst->id] = i;
    if (instr.op == Opcode::Load) {
      auto s = lastStoreMem.find(instr.memId);
      if (s != lastStoreMem.end())
        addEdge(s->second, i, 0, nodes[s->second].lat); // mem RAW
      loadsMem[instr.memId].push_back(i);
    } else if (instr.op == Opcode::Store) {
      auto s = lastStoreMem.find(instr.memId);
      if (s != lastStoreMem.end())
        addEdge(s->second, i, 0, 1); // mem WAW
      for (unsigned l : loadsMem[instr.memId])
        addEdge(l, i, 0, 0); // mem WAR
      lastStoreMem[instr.memId] = i;
    }
  }
  // Cross-iteration register dependences: a read at position i that sees a
  // value written at position j >= i reads the *previous* iteration.
  for (unsigned i = 0; i < nodes.size(); ++i) {
    const ir::Instr &instr = *nodes[i].instr;
    for (const auto &op : instr.operands) {
      if (!op.isReg())
        continue;
      // First write in program order.
      for (unsigned j = 0; j < nodes.size(); ++j) {
        if (nodes[j].instr->dst &&
            nodes[j].instr->dst->id == op.reg().id) {
          if (j >= i)
            addEdge(j, i, 1, nodes[j].lat); // last iteration's value
          break;
        }
      }
    }
  }
  // Cross-iteration memory: conservative store <-> load/store, distance 1.
  for (unsigned i = 0; i < nodes.size(); ++i) {
    if (nodes[i].instr->op != Opcode::Store)
      continue;
    for (unsigned j = 0; j < nodes.size(); ++j) {
      if (j == i)
        continue;
      if ((nodes[j].instr->op == Opcode::Load ||
           nodes[j].instr->op == Opcode::Store) &&
          nodes[j].instr->memId == nodes[i].instr->memId)
        addEdge(i, j, 1, nodes[i].lat);
    }
  }

  unsigned n = static_cast<unsigned>(nodes.size());
  if (n == 0) {
    result.reason = "empty loop";
    return result;
  }

  // Sequential baseline: list-schedule cond + latch normally.
  {
    FunctionSchedule s = scheduleFunction(fn, lib, options);
    unsigned condLen = s.blocks.count(loop->cond)
                           ? s.blocks.at(loop->cond).length
                           : 1;
    unsigned latchLen = s.blocks.count(loop->latch)
                            ? s.blocks.at(loop->latch).length
                            : 1;
    result.sequentialCyclesPerIteration = condLen + latchLen;
  }

  // ResMII.
  std::map<int, unsigned> classCount;
  std::map<unsigned, unsigned> memCount;
  for (const auto &node : nodes) {
    if (node.cls == FuClass::Other)
      continue;
    if (node.cls == FuClass::MemPort)
      ++memCount[node.instr->memId];
    else
      ++classCount[static_cast<int>(node.cls)];
  }
  unsigned resMII = 1;
  for (const auto &[cls, count] : classCount) {
    unsigned limit = options.resources.limitFor(static_cast<FuClass>(cls));
    if (limit != 0)
      resMII = std::max(resMII, (count + limit - 1) / limit);
  }
  if (options.resources.memPortsPerMem != 0)
    for (const auto &[mem, count] : memCount)
      resMII = std::max(resMII,
                        (count + options.resources.memPortsPerMem - 1) /
                            options.resources.memPortsPerMem);
  result.resMII = resMII;

  // RecMII: smallest II such that the constraint graph with edge weights
  // (lat(from) - II * distance) has no positive cycle.  Floyd-Warshall.
  auto feasible = [&](unsigned ii) {
    constexpr double kNegInf = -1e18;
    std::vector<std::vector<double>> d(n, std::vector<double>(n, kNegInf));
    for (const auto &e : edges) {
      double w = static_cast<double>(e.delay) -
                 static_cast<double>(ii) * e.distance;
      d[e.from][e.to] = std::max(d[e.from][e.to], w);
    }
    for (unsigned k = 0; k < n; ++k)
      for (unsigned i = 0; i < n; ++i) {
        if (d[i][k] == kNegInf)
          continue;
        for (unsigned j = 0; j < n; ++j) {
          if (d[k][j] == kNegInf)
            continue;
          d[i][j] = std::max(d[i][j], d[i][k] + d[k][j]);
        }
      }
    for (unsigned i = 0; i < n; ++i)
      if (d[i][i] > 0)
        return false;
    return true;
  };
  unsigned recMII = 1;
  while (recMII < 4096 && !feasible(recMII))
    ++recMII;
  result.recMII = recMII;

  // Modulo list scheduling at increasing II.
  unsigned maxII =
      std::max<unsigned>(result.sequentialCyclesPerIteration, 1) + 4;
  for (unsigned ii = std::max(resMII, recMII); ii <= maxII; ++ii) {
    // Priority: longest intra-iteration path to a sink.
    std::vector<unsigned> prio(n, 0);
    for (unsigned i = n; i-- > 0;) {
      for (const auto &e : edges)
        if (e.from == i && e.distance == 0)
          prio[i] = std::max(prio[i], prio[e.to] + e.delay);
      prio[i] = std::max(prio[i], nodes[i].lat);
    }
    std::vector<int> time(n, -1);
    std::map<std::pair<int, unsigned>, unsigned> mrt; // (cls,slot)->count
    std::map<std::pair<unsigned, unsigned>, unsigned> memMrt;

    // Topological order over distance-0 edges = program order (edges only
    // go forward except WAR which also goes forward).
    bool ok = true;
    for (unsigned i = 0; i < n && ok; ++i) {
      int earliest = 0;
      for (const auto &e : edges)
        if (e.to == i && e.distance == 0 && time[e.from] >= 0)
          earliest = std::max(earliest,
                              time[e.from] + static_cast<int>(e.delay));
      // Find an MRT-feasible start within one II of search.
      bool placed = false;
      for (unsigned attempt = 0; attempt < ii + nodes[i].lat && !placed;
           ++attempt) {
        unsigned t = static_cast<unsigned>(earliest) + attempt;
        bool free = true;
        for (unsigned c = t; c < t + nodes[i].lat && free; ++c) {
          unsigned slot = c % ii;
          if (nodes[i].cls == FuClass::MemPort) {
            unsigned ports = options.resources.memPortsPerMem;
            if (ports != 0) {
              auto it = memMrt.find({nodes[i].instr->memId, slot});
              if (it != memMrt.end() && it->second >= ports)
                free = false;
            }
          } else if (nodes[i].cls != FuClass::Other) {
            unsigned limit = options.resources.limitFor(nodes[i].cls);
            if (limit != 0) {
              auto it = mrt.find({static_cast<int>(nodes[i].cls), slot});
              if (it != mrt.end() && it->second >= limit)
                free = false;
            }
          }
        }
        if (!free)
          continue;
        time[i] = static_cast<int>(t);
        for (unsigned c = t; c < t + nodes[i].lat; ++c) {
          unsigned slot = c % ii;
          if (nodes[i].cls == FuClass::MemPort)
            ++memMrt[{nodes[i].instr->memId, slot}];
          else if (nodes[i].cls != FuClass::Other)
            ++mrt[{static_cast<int>(nodes[i].cls), slot}];
        }
        placed = true;
      }
      if (!placed)
        ok = false;
    }
    if (!ok)
      continue;

    // Verify cross-iteration constraints:
    //   time[to] + II * distance >= time[from] + lat(from)
    bool valid = true;
    for (const auto &e : edges) {
      if (time[e.from] < 0 || time[e.to] < 0) {
        valid = false;
        break;
      }
      if (time[e.to] + static_cast<int>(ii * e.distance) <
          time[e.from] + static_cast<int>(e.delay)) {
        valid = false;
        break;
      }
    }
    if (!valid)
      continue;

    unsigned depth = 1;
    for (unsigned i = 0; i < n; ++i)
      depth = std::max(depth,
                       static_cast<unsigned>(time[i]) + nodes[i].lat);
    result.pipelined = true;
    result.ii = ii;
    result.depth = depth;
    result.condBlock = loop->cond;
    result.latchBlock = loop->latch;
    for (unsigned i = 0; i < n; ++i) {
      result.kernelOps.push_back(nodes[i].instr);
      result.kernelTimes.push_back(static_cast<unsigned>(time[i]));
    }
    return result;
  }
  result.reason = "no feasible initiation interval found";
  return result;
}

// ---------------------------------------------------------------------------
// Overlapped execution of a pipelined kernel
// ---------------------------------------------------------------------------

OverlapResult executePipelined(const ir::Module &module,
                               const ir::Function &fn,
                               const PipelineResult &pipeline,
                               std::vector<std::vector<BitVector>> &mems,
                               std::uint64_t maxIterations,
                               guard::ExecBudget *budget) {
  OverlapResult out;
  if (!pipeline.pipelined || !pipeline.condBlock || !pipeline.latchBlock) {
    out.error = "loop was not pipelined";
    return out;
  }
  try {
    stageModulo.enter(budget);
  } catch (const guard::Trip &e) {
    out.verdict = e.verdict;
    out.error = e.verdict.str();
    return out;
  }
  (void)module;

  std::vector<BitVector> regs(fn.vregCount(), BitVector(1));
  auto regValue = [&](const ir::Operand &op) -> BitVector {
    return op.isImm() ? op.imm() : regs[op.reg().id];
  };

  // Sequential straight execution from `from` until `stopAt` is reached
  // (exclusive) or the function returns (when stopAt is null).  Used for
  // the loop prologue and epilogue.
  auto runSequential = [&](const ir::BasicBlock *from,
                           const ir::BasicBlock *stopAt,
                           const char *phase) -> bool {
    const ir::BasicBlock *block = from;
    std::uint64_t guard = 0;
    while (block != stopAt) {
      if (++guard > 1'000'000) {
        out.error = std::string(phase) + " did not terminate";
        return false;
      }
      const ir::BasicBlock *next = nullptr;
      for (const auto &instrPtr : block->instrs()) {
        const ir::Instr &instr = *instrPtr;
        switch (instr.op) {
        case Opcode::Const:
          regs[instr.dst->id] = instr.constValue;
          break;
        case Opcode::Load: {
          auto &mem = mems.at(instr.memId);
          std::uint64_t addr = regValue(instr.operands[0]).toUint64();
          if (addr >= mem.size()) {
            out.error = std::string(phase) + " load out of bounds";
            return false;
          }
          regs[instr.dst->id] = mem[addr];
          break;
        }
        case Opcode::Store: {
          auto &mem = mems.at(instr.memId);
          std::uint64_t addr = regValue(instr.operands[0]).toUint64();
          if (addr >= mem.size()) {
            out.error = std::string(phase) + " store out of bounds";
            return false;
          }
          mem[addr] = regValue(instr.operands[1])
                          .resize(mem[addr].width(), false);
          break;
        }
        case Opcode::Br:
          next = instr.target0;
          break;
        case Opcode::CondBr:
          next = regValue(instr.operands[0]).isZero() ? instr.target1
                                                      : instr.target0;
          break;
        case Opcode::Ret:
          if (stopAt) {
            out.error = "function returned before reaching the loop";
            return false;
          }
          return true;
        case Opcode::Nop:
        case Opcode::Delay:
          break;
        case Opcode::Call:
        case Opcode::Fork:
        case Opcode::ChanSend:
        case Opcode::ChanRecv:
          out.error = std::string("synchronizing operation in the loop ") +
                      phase;
          return false;
        default: {
          std::vector<BitVector> ops;
          for (const auto &op : instr.operands)
            ops.push_back(regValue(op));
          regs[instr.dst->id] =
              ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width);
          break;
        }
        }
        if (next)
          break;
      }
      if (!next) {
        out.error = std::string(phase) + " block fell through";
        return false;
      }
      block = next;
    }
    return true;
  };

  // 1. Sequential prologue: from the entry to the first arrival at the
  //    loop's condition block.
  if (!runSequential(fn.entry(), pipeline.condBlock, "prologue"))
    return out;

  // 2. Trip count: run the kernel sequentially on a scratch copy.
  std::uint64_t trips = 0;
  {
    std::vector<BitVector> sregs = regs;
    auto sval = [&](const ir::Operand &op) -> BitVector {
      return op.isImm() ? op.imm() : sregs[op.reg().id];
    };
    std::vector<std::vector<BitVector>> smems = mems;
    for (;;) {
      if (trips > maxIterations) {
        out.error = "trip count exceeds the iteration budget";
        out.verdict.kind = guard::Kind::StepLimit;
        out.verdict.stage = stageModulo.name();
        out.verdict.steps = trips;
        return out;
      }
      if (budget && (trips & 1023) == 0) {
        try {
          budget->chargeSteps(1024, stageModulo.name());
          budget->checkDeadline(stageModulo.name());
        } catch (const guard::Trip &e) {
          out.verdict = e.verdict;
          out.error = e.verdict.str();
          return out;
        }
      }
      // Condition block (its terminator decides).
      bool taken = false;
      for (const auto &instrPtr : pipeline.condBlock->instrs()) {
        const ir::Instr &instr = *instrPtr;
        if (instr.op == Opcode::CondBr) {
          taken = !sval(instr.operands[0]).isZero();
          if (instr.target0 != pipeline.latchBlock)
            taken = !taken; // exit on target0
          break;
        }
        if (instr.op == Opcode::Load) {
          auto &mem = smems.at(instr.memId);
          std::uint64_t addr = sval(instr.operands[0]).toUint64();
          if (addr >= mem.size())
            break;
          sregs[instr.dst->id] = mem[addr];
        } else if (instr.op == Opcode::Store) {
          auto &mem = smems.at(instr.memId);
          std::uint64_t addr = sval(instr.operands[0]).toUint64();
          if (addr < mem.size())
            mem[addr] = sval(instr.operands[1]);
        } else if (instr.op == Opcode::Const) {
          sregs[instr.dst->id] = instr.constValue;
        } else if (instr.dst) {
          std::vector<BitVector> ops;
          for (const auto &op : instr.operands)
            ops.push_back(sval(op));
          sregs[instr.dst->id] =
              ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width);
        }
      }
      if (!taken)
        break;
      ++trips;
      for (const auto &instrPtr : pipeline.latchBlock->instrs()) {
        const ir::Instr &instr = *instrPtr;
        if (instr.isTerminator())
          continue;
        if (instr.op == Opcode::Load) {
          auto &mem = smems.at(instr.memId);
          std::uint64_t addr = sval(instr.operands[0]).toUint64();
          if (addr >= mem.size())
            break;
          sregs[instr.dst->id] = mem[addr];
        } else if (instr.op == Opcode::Store) {
          auto &mem = smems.at(instr.memId);
          std::uint64_t addr = sval(instr.operands[0]).toUint64();
          if (addr < mem.size())
            mem[addr] = sval(instr.operands[1]);
        } else if (instr.op == Opcode::Const) {
          sregs[instr.dst->id] = instr.constValue;
        } else if (instr.dst) {
          std::vector<BitVector> ops;
          for (const auto &op : instr.operands)
            ops.push_back(sval(op));
          sregs[instr.dst->id] =
              ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width);
        }
      }
    }
  }
  out.iterations = trips;
  if (trips == 0) {
    const ir::Instr *condTerm = pipeline.condBlock->terminator();
    const ir::BasicBlock *exit =
        condTerm->target0 == pipeline.latchBlock ? condTerm->target1
                                                 : condTerm->target0;
    if (!runSequential(exit, nullptr, "epilogue"))
      return out;
    out.ok = true;
    out.cycles = 1;
    return out;
  }

  // 3. Overlapped execution: at global cycle c, iteration i executes the
  //    kernel ops scheduled at c - i*II.  Modulo variable expansion is
  //    modeled by explicit renaming: each operand is resolved by program-
  //    order dataflow to (producing kernel op, iteration distance), so a
  //    read always sees the dataflow-correct copy no matter when the
  //    producing op was *scheduled* — exactly what the rotating stage
  //    registers of a pipelined datapath implement.  Memory keeps real
  //    cycle ordering (that is what the dependence verification covers).
  const std::uint64_t ii = pipeline.ii;
  const std::size_t kernelSize = pipeline.kernelOps.size();

  struct Source {
    enum class Kind { Imm, PreLoop, Def } kind = Kind::PreLoop;
    std::size_t def = 0;     // kernel index of the producer
    unsigned distance = 0;   // 0 = same iteration, 1 = previous
    unsigned reg = 0;        // for PreLoop
  };
  // sources[k][o] resolves operand o of kernel op k.
  std::vector<std::vector<Source>> sources(kernelSize);
  {
    std::map<unsigned, std::size_t> lastDef;   // reg -> kernel index so far
    std::map<unsigned, std::size_t> firstDef;  // reg -> first kernel index
    for (std::size_t k = 0; k < kernelSize; ++k) {
      const ir::Instr &instr = *pipeline.kernelOps[k];
      if (instr.dst && firstDef.find(instr.dst->id) == firstDef.end())
        firstDef[instr.dst->id] = k;
    }
    for (std::size_t k = 0; k < kernelSize; ++k) {
      const ir::Instr &instr = *pipeline.kernelOps[k];
      for (const auto &op : instr.operands) {
        Source src;
        if (op.isImm()) {
          src.kind = Source::Kind::Imm;
        } else {
          unsigned reg = op.reg().id;
          auto prior = lastDef.find(reg);
          if (prior != lastDef.end()) {
            src = {Source::Kind::Def, prior->second, 0, reg};
          } else {
            auto later = firstDef.find(reg);
            if (later != firstDef.end())
              src = {Source::Kind::Def, later->second, 1, reg};
            else
              src = {Source::Kind::PreLoop, 0, 0, reg};
          }
        }
        sources[k].push_back(src);
      }
      if (instr.dst)
        lastDef[instr.dst->id] = k;
    }
  }

  // iterVals[i][k] = value produced by kernel op k in iteration i.
  std::vector<std::vector<BitVector>> iterVals(
      trips, std::vector<BitVector>(kernelSize, BitVector(1)));
  auto readAt = [&](std::uint64_t iter, std::size_t k,
                    std::size_t operand) -> BitVector {
    const ir::Operand &op = pipeline.kernelOps[k]->operands[operand];
    const Source &src = sources[k][operand];
    switch (src.kind) {
    case Source::Kind::Imm:
      return op.imm();
    case Source::Kind::PreLoop:
      return regs[src.reg];
    case Source::Kind::Def:
      if (src.distance == 0)
        return iterVals[iter][src.def];
      if (iter == 0)
        return regs[src.reg]; // first iteration reads the pre-loop value
      return iterVals[iter - 1][src.def];
    }
    return BitVector(1);
  };

  // Ops grouped by local time for fast lookup.
  std::map<unsigned, std::vector<std::size_t>> byTime;
  unsigned depth = pipeline.depth;
  for (std::size_t k = 0; k < pipeline.kernelOps.size(); ++k)
    byTime[pipeline.kernelTimes[k]].push_back(k);

  std::uint64_t lastCycle = depth + (trips - 1) * ii;
  for (std::uint64_t cycle = 0; cycle < lastCycle; ++cycle) {
    // Two phases: everything except stores, then stores (a same-cycle
    // load/store pair on one memory is a WAR pair — the load reads the
    // old value, as registered RAMs do).
    struct Pending {
      std::uint64_t iter;
      std::size_t k;
    };
    std::vector<Pending> stores;
    for (std::uint64_t i = 0; i < trips; ++i) {
      if (cycle < i * ii)
        break;
      std::uint64_t local = cycle - i * ii;
      if (local >= depth)
        continue;
      auto it = byTime.find(static_cast<unsigned>(local));
      if (it == byTime.end())
        continue;
      for (std::size_t k : it->second) {
        const ir::Instr &instr = *pipeline.kernelOps[k];
        switch (instr.op) {
        case Opcode::Const:
          iterVals[i][k] = instr.constValue;
          break;
        case Opcode::Load: {
          auto &mem = mems.at(instr.memId);
          std::uint64_t addr = readAt(i, k, 0).toUint64();
          if (addr >= mem.size()) {
            out.error = "pipelined load out of bounds";
            return out;
          }
          iterVals[i][k] = mem[addr];
          break;
        }
        case Opcode::Store:
          stores.push_back({i, k});
          break;
        case Opcode::Nop:
        case Opcode::Delay:
          break;
        default: {
          if (!instr.dst)
            break;
          std::vector<BitVector> ops;
          for (std::size_t o = 0; o < instr.operands.size(); ++o)
            ops.push_back(readAt(i, k, o));
          iterVals[i][k] =
              ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width);
          break;
        }
        }
      }
    }
    for (const Pending &p : stores) {
      const ir::Instr &instr = *pipeline.kernelOps[p.k];
      auto &mem = mems.at(instr.memId);
      std::uint64_t addr = readAt(p.iter, p.k, 0).toUint64();
      if (addr >= mem.size()) {
        out.error = "pipelined store out of bounds";
        return out;
      }
      mem[addr] = readAt(p.iter, p.k, 1).resize(mem[addr].width(), false);
    }
  }

  // Final register state: each register's last program-order def, from the
  // final iteration.
  {
    std::map<unsigned, std::size_t> lastDef;
    for (std::size_t k = 0; k < kernelSize; ++k)
      if (pipeline.kernelOps[k]->dst)
        lastDef[pipeline.kernelOps[k]->dst->id] = k;
    for (const auto &[reg, k] : lastDef)
      regs[reg] = iterVals[trips - 1][k];
  }

  // 4. Sequential epilogue: from the loop's exit edge to the return.
  {
    const ir::Instr *condTerm = pipeline.condBlock->terminator();
    const ir::BasicBlock *exit =
        condTerm->target0 == pipeline.latchBlock ? condTerm->target1
                                                 : condTerm->target0;
    if (!runSequential(exit, nullptr, "epilogue"))
      return out;
  }
  out.ok = true;
  out.cycles = lastCycle;
  return out;
}

} // namespace c2h::sched
