#include "sched/ilp.h"

#include "ir/exec.h"

#include <functional>
#include <map>

namespace c2h::sched {

using ir::Opcode;

namespace {
// Entered by every measureIlp trace; step charges and verdicts carry its name.
guard::Stage stageIlp("sched.ilp");

struct TraceError {
  std::string message;
};
[[noreturn]] void fail(std::string message) {
  throw TraceError{std::move(message)};
}
} // namespace

IlpResult measureIlp(const ir::Module &module, const std::string &fnName,
                     const std::vector<BitVector> &args,
                     const IlpOptions &options) {
  IlpResult result;
  const ir::Function *fn = module.findFunction(fnName);
  if (!fn) {
    result.error = "no function named '" + fnName + "'";
    return result;
  }

  // Timestamped state.
  struct Cell {
    BitVector value{1};
    std::uint64_t time = 0;
  };
  std::vector<std::vector<Cell>> mems;
  for (const auto &mem : module.mems()) {
    std::vector<Cell> cells(mem.depth);
    for (auto &c : cells)
      c.value = BitVector(std::max(1u, mem.width));
    for (std::size_t i = 0; i < mem.init.size() && i < cells.size(); ++i)
      cells[i].value = mem.init[i];
    mems.push_back(std::move(cells));
  }

  std::uint64_t executed = 0;
  std::uint64_t issuedOps = 0;
  std::uint64_t makespan = 0;
  std::uint64_t branchTime = 0; // resolution time of the latest branch
  // Greedy issue-slot tracking for bounded width: slotsUsed[cycle].  The
  // makespan never exceeds the dynamic operation count, so a dense vector
  // is safe.
  std::vector<unsigned> slotsUsed;

  auto issueAt = [&](std::uint64_t ready) -> std::uint64_t {
    ++issuedOps;
    if (!options.perfectBranches)
      ready = std::max(ready, branchTime);
    if (options.issueWidth == 0)
      return ready;
    std::uint64_t t = ready;
    for (;;) {
      if (slotsUsed.size() <= t)
        slotsUsed.resize(t + 1024, 0);
      if (slotsUsed[t] < options.issueWidth) {
        ++slotsUsed[t];
        return t;
      }
      ++t;
    }
  };

  struct Reg {
    BitVector value{1};
    std::uint64_t time = 0;
  };

  std::function<std::pair<BitVector, std::uint64_t>(
      const ir::Function &, const std::vector<std::pair<BitVector, std::uint64_t>> &)>
      run = [&](const ir::Function &f,
                const std::vector<std::pair<BitVector, std::uint64_t>>
                    &actuals) -> std::pair<BitVector, std::uint64_t> {
    std::vector<Reg> regs(f.vregCount());
    for (std::size_t i = 0; i < f.params().size(); ++i) {
      regs[f.params()[i].id].value =
          actuals[i].first.resize(f.params()[i].width, false);
      regs[f.params()[i].id].time = actuals[i].second;
    }
    auto value = [&](const ir::Operand &op) -> BitVector {
      return op.isImm() ? op.imm() : regs[op.reg().id].value;
    };
    auto timeOf = [&](const ir::Operand &op) -> std::uint64_t {
      return op.isImm() ? 0 : regs[op.reg().id].time;
    };

    const ir::BasicBlock *block = f.entry();
    if (!block)
      fail("function '" + f.name() + "' has no blocks");
    for (;;) {
      const ir::BasicBlock *next = nullptr;
      for (const auto &instrPtr : block->instrs()) {
        const ir::Instr &instr = *instrPtr;
        if (++executed > options.maxInstructions) {
          guard::Verdict v;
          v.kind = guard::Kind::StepLimit;
          v.stage = stageIlp.name();
          v.steps = executed;
          throw guard::Trip(std::move(v));
        }
        if (options.budget && (executed & 4095) == 0) {
          options.budget->chargeSteps(4096, stageIlp.name());
          options.budget->checkDeadline(stageIlp.name());
        }
        switch (instr.op) {
        case Opcode::Const:
          regs[instr.dst->id] = {instr.constValue, 0};
          break;
        case Opcode::Copy:
          regs[instr.dst->id] = {value(instr.operands[0]),
                                 timeOf(instr.operands[0])};
          break;
        case Opcode::Load: {
          auto &mem = mems.at(instr.memId);
          std::uint64_t addr = value(instr.operands[0]).toUint64();
          if (addr >= mem.size())
            fail("load out of bounds");
          std::uint64_t ready =
              std::max(timeOf(instr.operands[0]), mem[addr].time);
          std::uint64_t t = issueAt(ready) + 1;
          regs[instr.dst->id] = {mem[addr].value, t};
          makespan = std::max(makespan, t);
          break;
        }
        case Opcode::Store: {
          auto &mem = mems.at(instr.memId);
          std::uint64_t addr = value(instr.operands[0]).toUint64();
          if (addr >= mem.size())
            fail("store out of bounds");
          std::uint64_t ready = std::max(timeOf(instr.operands[0]),
                                         timeOf(instr.operands[1]));
          std::uint64_t t = issueAt(ready) + 1;
          mem[addr] = {value(instr.operands[1]), t};
          makespan = std::max(makespan, t);
          break;
        }
        case Opcode::Call: {
          const ir::Function *callee = module.findFunction(instr.callee);
          if (!callee)
            fail("call to unknown function " + instr.callee);
          std::vector<std::pair<BitVector, std::uint64_t>> callArgs;
          for (const auto &op : instr.operands)
            callArgs.push_back({value(op), timeOf(op)});
          auto [ret, t] = run(*callee, callArgs);
          if (instr.dst)
            regs[instr.dst->id] = {ret.resize(instr.dst->width, false), t};
          break;
        }
        case Opcode::Ret: {
          if (!instr.operands.empty())
            return {value(instr.operands[0]), timeOf(instr.operands[0])};
          return {BitVector(1), 0};
        }
        case Opcode::Br:
          next = instr.target0;
          break;
        case Opcode::CondBr: {
          std::uint64_t ready = timeOf(instr.operands[0]);
          std::uint64_t t = issueAt(ready) + 1;
          branchTime = std::max(branchTime, t);
          makespan = std::max(makespan, t);
          next = value(instr.operands[0]).isZero() ? instr.target1
                                                   : instr.target0;
          break;
        }
        case Opcode::Delay:
        case Opcode::Nop:
          break;
        case Opcode::Fork:
        case Opcode::ChanSend:
        case Opcode::ChanRecv:
          fail("ILP analysis does not support concurrent constructs");
        default: {
          std::vector<BitVector> ops;
          std::uint64_t ready = 0;
          for (const auto &op : instr.operands) {
            ops.push_back(value(op));
            ready = std::max(ready, timeOf(op));
          }
          std::uint64_t t = issueAt(ready) + 1;
          regs[instr.dst->id] = {
              ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width), t};
          makespan = std::max(makespan, t);
          break;
        }
        }
      }
      if (!next)
        fail("block " + block->name() + " fell through");
      block = next;
    }
  };

  try {
    stageIlp.enter(options.budget);
    std::vector<std::pair<BitVector, std::uint64_t>> in;
    for (const auto &a : args)
      in.push_back({a, 0});
    if (in.size() != fn->params().size())
      fail("argument count mismatch");
    run(*fn, in);
    result.ok = true;
    // Count only real datapath work (everything that claimed an issue
    // slot) so ILP values are comparable across widths.
    result.operations = issuedOps;
    result.cycles = std::max<std::uint64_t>(1, makespan);
    result.ilp = static_cast<double>(result.operations) /
                 static_cast<double>(result.cycles);
  } catch (const TraceError &e) {
    result.error = e.message;
  } catch (const guard::Trip &e) {
    result.verdict = e.verdict;
    result.error = e.verdict.kind == guard::Kind::InjectedFault
                       ? e.verdict.str()
                       : "trace budget exceeded: " + e.verdict.str();
  }
  return result;
}

} // namespace c2h::sched
