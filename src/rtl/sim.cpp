#include "rtl/sim.h"

#include "ir/exec.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>

namespace c2h::rtl {

using ir::Opcode;

namespace {

// Entered by every Simulator::run; cycle charges and verdicts carry its name.
guard::Stage stageSim("rtl.sim");

struct PendingWrite {
  std::uint64_t dueCycle = 0;
  unsigned reg = 0;
  BitVector value{1};
};

enum class Status { Running, WaitChan, WaitCall, WaitFork, Delaying, Done,
                    Failed };

struct Activation {
  unsigned id = 0;
  const FsmdProcess *proc = nullptr;
  const ir::BasicBlock *block = nullptr;
  unsigned step = 0;
  std::vector<BitVector> regs;
  std::vector<PendingWrite> pending;
  Status status = Status::Running;
  std::string error;

  // WaitChan bookkeeping.
  bool chanIsSend = false;
  unsigned chanId = 0;
  BitVector chanValue{1};
  int chanDst = -1; // vreg for receive
  unsigned chanDstWidth = 1;

  // WaitCall / WaitFork bookkeeping.
  int callDst = -1;
  unsigned callDstWidth = 1;
  std::vector<unsigned> waitingOn; // activation ids
  int callee = -1;                 // activation id of the callee

  BitVector returnValue{1};
  bool advancedThisCycle = false;
};

} // namespace

struct Simulator::Impl {
  const Design &design;
  SimOptions options;
  std::vector<std::vector<BitVector>> mems;
  std::vector<std::unique_ptr<Activation>> activations;
  std::uint64_t cycle = 0;

  Impl(const Design &d, SimOptions o) : design(d), options(o) {
    initMems();
  }

  void initMems() {
    mems.clear();
    for (const auto &mem : design.module->mems()) {
      std::vector<BitVector> cells(mem.depth,
                                   BitVector(std::max(1u, mem.width)));
      for (std::size_t i = 0; i < mem.init.size() && i < cells.size(); ++i)
        cells[i] = mem.init[i];
      mems.push_back(std::move(cells));
    }
  }

  Activation *newActivation(const ir::Function *fn) {
    const FsmdProcess *proc = design.processFor(fn);
    if (!proc)
      return nullptr;
    auto act = std::make_unique<Activation>();
    act->id = static_cast<unsigned>(activations.size());
    act->proc = proc;
    act->block = fn->entry();
    act->regs.assign(fn->vregCount(), BitVector(1));
    activations.push_back(std::move(act));
    return activations.back().get();
  }

  BitVector operandValue(Activation &act, const ir::Operand &op) {
    if (op.isImm())
      return op.imm();
    return act.regs[op.reg().id];
  }

  void failAct(Activation &act, std::string message) {
    act.status = Status::Failed;
    act.error = std::move(message);
  }

  void commitPending(Activation &act) {
    for (auto it = act.pending.begin(); it != act.pending.end();) {
      if (it->dueCycle <= cycle) {
        act.regs[it->reg] = it->value;
        it = act.pending.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Follow the block terminator; returns false when the process finished.
  void transition(Activation &act, const ir::Instr &term) {
    switch (term.op) {
    case Opcode::Br:
      enterBlock(act, term.target0);
      return;
    case Opcode::CondBr: {
      bool taken = !operandValue(act, term.operands[0]).isZero();
      enterBlock(act, taken ? term.target0 : term.target1);
      return;
    }
    case Opcode::Ret:
      if (!term.operands.empty())
        act.returnValue = operandValue(act, term.operands[0]);
      act.status = Status::Done;
      act.advancedThisCycle = true;
      return;
    default:
      failAct(act, "block without terminator");
    }
  }

  void enterBlock(Activation &act, const ir::BasicBlock *block) {
    act.block = block;
    act.step = 0;
    act.advancedThisCycle = true;
  }

  // Execute one cycle of `act`.  Channel operations only *post offers*
  // here; matching happens afterwards in the channel phase.
  void stepActivation(Activation &act) {
    act.advancedThisCycle = false;
    commitPending(act);

    switch (act.status) {
    case Status::Done:
    case Status::Failed:
    case Status::WaitChan:
      return; // channel phase advances these
    case Status::Delaying:
      return; // handled via delayRemaining in pending? (uses pendingDelay)
    case Status::WaitCall: {
      Activation &callee = *activations[static_cast<unsigned>(act.callee)];
      if (callee.status == Status::Failed) {
        failAct(act, callee.error);
        return;
      }
      if (callee.status != Status::Done)
        return;
      if (act.callDst >= 0)
        act.regs[act.callDst] =
            callee.returnValue.resize(act.callDstWidth, false);
      act.status = Status::Running;
      act.advancedThisCycle = true;
      advancePastBarrier(act);
      return;
    }
    case Status::WaitFork: {
      for (unsigned id : act.waitingOn) {
        Activation &child = *activations[id];
        if (child.status == Status::Failed) {
          failAct(act, child.error);
          return;
        }
        if (child.status != Status::Done)
          return;
      }
      act.status = Status::Running;
      act.advancedThisCycle = true;
      advancePastBarrier(act);
      return;
    }
    case Status::Running:
      break;
    }

    const FsmdBlock &fb = act.proc->blockInfo(act.block);

    // Issue every operation that starts in this step, in program order
    // (start times are not monotone in program order when resources stall
    // independent ops, so scan the whole list each step).  Barriers
    // (call/fork/channel/delay) are always the last operation of their
    // step — the dependence graph orders everything else around them — so
    // returning mid-scan never abandons unissued same-step ops.
    for (std::size_t opIndex = 0; opIndex < fb.ops.size(); ++opIndex) {
      const OpSlot &slot = fb.ops[opIndex];
      const ir::Instr &instr = *slot.instr;
      if (slot.start != act.step || instr.isTerminator())
        continue;

      switch (instr.op) {
      case Opcode::Const:
        act.regs[instr.dst->id] = instr.constValue;
        break;
      case Opcode::Load: {
        auto &mem = mems.at(instr.memId);
        std::uint64_t addr = operandValue(act, instr.operands[0]).toUint64();
        if (addr >= mem.size()) {
          failAct(act, "load out of bounds in " + act.proc->fn->name());
          return;
        }
        BitVector v = mem[addr];
        unsigned lat = slot.done - slot.start;
        if (lat == 0)
          act.regs[instr.dst->id] = std::move(v);
        else
          act.pending.push_back({cycle + lat, instr.dst->id, std::move(v)});
        break;
      }
      case Opcode::Store: {
        auto &mem = mems.at(instr.memId);
        std::uint64_t addr = operandValue(act, instr.operands[0]).toUint64();
        if (addr >= mem.size()) {
          failAct(act, "store out of bounds in " + act.proc->fn->name());
          return;
        }
        mem[addr] = operandValue(act, instr.operands[1])
                        .resize(static_cast<unsigned>(mem[addr].width()),
                                false);
        break;
      }
      case Opcode::ChanSend:
        act.status = Status::WaitChan;
        act.chanIsSend = true;
        act.chanId = instr.chanId;
        act.chanValue = operandValue(act, instr.operands[0]);
        return;
      case Opcode::ChanRecv:
        act.status = Status::WaitChan;
        act.chanIsSend = false;
        act.chanId = instr.chanId;
        act.chanDst = static_cast<int>(instr.dst->id);
        act.chanDstWidth = instr.dst->width;
        return;
      case Opcode::Call: {
        const ir::Function *callee =
            design.module->findFunction(instr.callee);
        Activation *sub = callee ? newActivation(callee) : nullptr;
        if (!sub) {
          failAct(act, "call to unknown/unbuilt function " + instr.callee);
          return;
        }
        for (std::size_t i = 0; i < instr.operands.size() &&
                                i < callee->params().size();
             ++i)
          sub->regs[callee->params()[i].id] =
              operandValue(act, instr.operands[i])
                  .resize(callee->params()[i].width, false);
        act.status = Status::WaitCall;
        act.callee = static_cast<int>(sub->id);
        act.callDst = instr.dst ? static_cast<int>(instr.dst->id) : -1;
        act.callDstWidth = instr.dst ? instr.dst->width : 1;
        return;
      }
      case Opcode::Fork: {
        act.waitingOn.clear();
        for (unsigned fnIndex : instr.processes) {
          const ir::Function *child =
              design.module->functions()[fnIndex].get();
          Activation *sub = newActivation(child);
          if (!sub) {
            failAct(act, "fork of unbuilt process");
            return;
          }
          act.waitingOn.push_back(sub->id);
        }
        act.status = Status::WaitFork;
        return;
      }
      case Opcode::Delay: {
        // Stall for delayCycles; model via pending step advance.
        act.status = Status::Delaying;
        delayUntil_[act.id] = cycle + std::max(1u, instr.delayCycles);
        return;
      }
      case Opcode::Nop:
        break;
      default: {
        std::vector<BitVector> ops;
        for (const auto &op : instr.operands)
          ops.push_back(operandValue(act, op));
        BitVector v =
            ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width);
        unsigned lat = slot.done - slot.start;
        if (lat == 0)
          act.regs[instr.dst->id] = std::move(v);
        else
          act.pending.push_back({cycle + lat, instr.dst->id, std::move(v)});
        break;
      }
      }
    }

    act.advancedThisCycle = true;
    // End of step: advance within the block or take the transition.
    if (act.step + 1 < fb.length) {
      ++act.step;
      return;
    }
    const ir::Instr *term = act.block->terminator();
    if (!term) {
      failAct(act, "block without terminator");
      return;
    }
    // Commit anything due before the transition evaluates (conservative:
    // scheduler guaranteed operand readiness).
    for (auto &p : act.pending)
      act.regs[p.reg] = p.value;
    act.pending.clear();
    transition(act, *term);
  }

  // After a barrier op (call/fork/delay/chan) completes, move to the next
  // step or transition out of the block.
  void advancePastBarrier(Activation &act) {
    const FsmdBlock &fb = act.proc->blockInfo(act.block);
    if (act.step + 1 < fb.length) {
      ++act.step;
      return;
    }
    const ir::Instr *term = act.block->terminator();
    if (!term) {
      failAct(act, "block without terminator");
      return;
    }
    for (auto &p : act.pending)
      act.regs[p.reg] = p.value;
    act.pending.clear();
    transition(act, *term);
  }

  // Channel rendezvous phase: match one sender and one receiver per
  // channel per cycle.
  void matchChannels() {
    std::map<unsigned, std::vector<Activation *>> senders, receivers;
    for (auto &actPtr : activations) {
      Activation &act = *actPtr;
      if (act.status != Status::WaitChan)
        continue;
      (act.chanIsSend ? senders : receivers)[act.chanId].push_back(&act);
    }
    for (auto &[chan, ss] : senders) {
      auto rit = receivers.find(chan);
      if (rit == receivers.end())
        continue;
      auto &rs = rit->second;
      std::size_t pairs = std::min(ss.size(), rs.size());
      for (std::size_t i = 0; i < pairs; ++i) {
        Activation &s = *ss[i];
        Activation &r = *rs[i];
        r.regs[r.chanDst] = s.chanValue.resize(r.chanDstWidth, false);
        s.status = Status::Running;
        r.status = Status::Running;
        s.advancedThisCycle = true;
        r.advancedThisCycle = true;
        advancePastBarrier(s);
        advancePastBarrier(r);
      }
    }
  }

  void releaseDelays() {
    for (auto &actPtr : activations) {
      Activation &act = *actPtr;
      if (act.status != Status::Delaying)
        continue;
      auto it = delayUntil_.find(act.id);
      if (it != delayUntil_.end() && cycle >= it->second) {
        act.status = Status::Running;
        act.advancedThisCycle = true;
        advancePastBarrier(act);
      }
    }
  }

  SimResult run(const std::string &top, const std::vector<BitVector> &args) {
    SimResult result;
    activations.clear();
    delayUntil_.clear();
    cycle = 0;
    try {
      stageSim.enter(options.budget);
    } catch (const guard::Trip &e) {
      result.verdict = e.verdict;
      result.error = e.verdict.str();
      return result;
    }

    const ir::Function *fn = design.module->findFunction(top);
    if (!fn) {
      result.error = "no function named '" + top + "'";
      return result;
    }
    Activation *main = newActivation(fn);
    if (!main) {
      result.error = "top function was not built";
      return result;
    }
    if (args.size() != fn->params().size()) {
      result.error = "argument count mismatch";
      return result;
    }
    for (std::size_t i = 0; i < args.size(); ++i)
      main->regs[fn->params()[i].id] =
          args[i].resize(fn->params()[i].width, false);

    std::uint64_t stalled = 0;
    while (activations[0]->status != Status::Done) {
      if (activations[0]->status == Status::Failed) {
        result.error = activations[0]->error;
        result.cycles = cycle;
        return result;
      }
      if (cycle >= options.maxCycles) {
        result.error = "cycle budget exceeded after " +
                       std::to_string(cycle) + " cycles";
        result.verdict.kind = guard::Kind::CycleLimit;
        result.verdict.stage = stageSim.name();
        result.verdict.cycles = cycle;
        result.cycles = cycle;
        return result;
      }
      if (options.budget && (cycle & 1023) == 0) {
        try {
          options.budget->chargeCycles(1024, stageSim.name());
          options.budget->checkDeadline(stageSim.name());
        } catch (const guard::Trip &e) {
          result.verdict = e.verdict;
          result.error = e.verdict.str();
          result.cycles = cycle;
          return result;
        }
      }
      std::size_t count = activations.size(); // children start next cycle
      for (std::size_t i = 0; i < count; ++i)
        stepActivation(*activations[i]);
      releaseDelays();
      matchChannels();

      bool progressed = false;
      for (std::size_t i = 0; i < count; ++i)
        progressed |= activations[i]->advancedThisCycle;
      if (activations.size() != count)
        progressed = true;
      stalled = progressed ? 0 : stalled + 1;
      if (stalled > options.stallLimit) {
        result.error = "deadlock: no process advanced for " +
                       std::to_string(options.stallLimit) + " cycles";
        result.verdict.kind = guard::Kind::Deadlock;
        result.verdict.stage = stageSim.name();
        result.verdict.cycles = cycle;
        result.cycles = cycle;
        return result;
      }
      ++cycle;
    }
    result.ok = true;
    result.cycles = cycle;
    result.returnValue = activations[0]->returnValue;
    return result;
  }

  std::map<unsigned, std::uint64_t> delayUntil_;
};

Simulator::Simulator(const Design &design, SimOptions options)
    : impl_(std::make_shared<Impl>(design, options)) {}

SimResult Simulator::run(const std::vector<BitVector> &args) {
  return impl_->run(impl_->design.top, args);
}

std::vector<BitVector> Simulator::readGlobal(const std::string &name) const {
  const ir::GlobalSlot *slot = impl_->design.module->findGlobal(name);
  if (!slot)
    return {};
  std::vector<BitVector> out;
  const auto &mem = impl_->mems.at(slot->memId);
  for (std::uint64_t i = 0; i < slot->words && slot->base + i < mem.size();
       ++i)
    out.push_back(mem[slot->base + i].trunc(slot->width));
  return out;
}

void Simulator::writeGlobal(const std::string &name,
                            const std::vector<BitVector> &cells) {
  const ir::GlobalSlot *slot = impl_->design.module->findGlobal(name);
  if (!slot)
    return;
  auto &mem = impl_->mems.at(slot->memId);
  unsigned cellWidth = impl_->design.module->mems()[slot->memId].width;
  for (std::uint64_t i = 0;
       i < cells.size() && i < slot->words && slot->base + i < mem.size();
       ++i)
    mem[slot->base + i] =
        cells[i].resize(slot->width, false).resize(cellWidth, false);
}

void Simulator::resetMemories() { impl_->initMems(); }

} // namespace c2h::rtl
