//===- spc/compiler.cpp - single-pass baseline compiler ---------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Implementation notes (see paper §III):
//
//  * The abstract state is Vals[0..NumLocals) for locals followed by one
//    AVal per operand-stack slot. Absolute indexes into Vals double as
//    value-stack slot offsets relative to VFP.
//  * The merge convention is "everything in memory": any label that can be
//    reached by a branch expects all live slots spilled with tags stored
//    (per tag mode). Fallthrough into untargeted labels keeps the full
//    register/constant state — the common fast path.
//  * Conditional branches with non-trivial merges use an inverted skip
//    branch so merge code only executes on the taken edge; the abstract
//    state is snapshotted around the taken-edge code.
//  * The side-table position (STP) is tracked in lockstep with validation
//    so OSR entries and deopt checkpoints can name interpreter state.
//
//===----------------------------------------------------------------------===//

#include "spc/compiler.h"

#include "machine/assembler.h"
#include "runtime/numerics.h"
#include "spc/abstract_state.h"
#include "wasm/codereader.h"


using namespace wisp;

namespace {

// Scratch registers reserved for codegen (never allocatable).
constexpr Reg ScratchGp = 15;   // Memory-to-memory moves, const stores.
constexpr Reg ScratchGp2 = 14;  // call_indirect index.

/// One control-stack entry.
struct Control {
  Opcode Kind = Opcode::Block; ///< Block, Loop, If (Else reuses If).
  bool DeadEntry = false;      ///< Pushed while the code was unreachable.
  bool ElseSeen = false;
  bool EndTargeted = false;
  int8_t FoldedCond = -1; ///< If only: 0/1 when the condition was constant.
  uint32_t Base = 0;      ///< Operand count below the params at entry.
  std::vector<ValType> Params;
  std::vector<ValType> Results;
  Label End;
  Label Else;
  Label Head; ///< Loop header label.
  StateSnapshot ElseSnap;
};

class SPC {
public:
  SPC(const Module &M, const FuncDecl &F, const CompilerOptions &Opts,
      const ProbeSiteOracle *Probes, MCode &Code)
      : M(M), F(F), Opts(Opts), Probes(Probes), Code(Code), A(Code),
        R(M.Bytes.data(), F.BodyStart, F.BodyEnd) {
    NumLocals = F.numLocalSlots();
    Gp.NumAllocatable = Opts.NumGp;
    Fp.NumAllocatable = Opts.NumFp;
  }

  void run();

private:
  // --- Type / register class helpers ---
  static bool isFp(ValType T) { return isFloatType(T); }
  RegFile &fileFor(ValType T) { return isFp(T) ? Fp : Gp; }

  uint32_t operandCount() const { return uint32_t(Vals.size()) - NumLocals; }
  uint32_t topSlot() const { return uint32_t(Vals.size()) - 1; }

  // --- Tag mode coverage ---
  bool modeCoversSlot(uint32_t Slot) const {
    switch (Opts.Tags) {
    case TagMode::None:
    case TagMode::StackMap:
      return false;
    case TagMode::Eager:
    case TagMode::OnDemand:
      return true;
    case TagMode::EagerLocals:
      return Slot < NumLocals;
    case TagMode::EagerOperands:
    case TagMode::Lazy:
      return Slot >= NumLocals;
    }
    return false;
  }
  bool eagerMode() const {
    return Opts.Tags == TagMode::Eager || Opts.Tags == TagMode::EagerLocals ||
           Opts.Tags == TagMode::EagerOperands;
  }

  void emitTag(uint32_t Slot, ValType T) {
    A.emit(MOp::StTag, uint8_t(T), 0, 0, 0, int64_t(Slot));
    Vals[Slot].MemTag = uint8_t(T);
    ++Code.Stats.TagStores;
  }

  /// Eager modes store the slot's tag at every definition, exactly as the
  /// interpreter does.
  void eagerTagOnDef(uint32_t Slot) {
    if (!eagerMode() || !modeCoversSlot(Slot))
      return;
    emitTag(Slot, Vals[Slot].Type);
  }

  // --- Register allocation ---
  void bindReg(uint32_t Slot, Reg Rg) {
    Vals[Slot].Flags |= AVal::InReg;
    Vals[Slot].R = Rg;
    fileFor(Vals[Slot].Type).bind(Rg, Slot);
  }
  void clearReg(uint32_t Slot) {
    AVal &V = Vals[Slot];
    if (!V.inReg())
      return;
    fileFor(V.Type).unbind(V.R, Slot);
    V.Flags &= ~AVal::InReg;
    V.R = NoReg;
  }

  /// Spills every slot cached in \p Rg of class \p File and frees it.
  void spillReg(RegFile &File, Reg Rg) {
    // Copy: unbinding mutates the list.
    std::vector<uint32_t> Slots = File.Bound[Rg];
    for (uint32_t Slot : Slots) {
      AVal &V = Vals[Slot];
      assert(V.inReg() && V.R == Rg && "inconsistent register binding");
      if (!V.inMem()) {
        A.emit(isFp(V.Type) ? MOp::StSlotF : MOp::StSlot, Rg, 0, 0, 0,
               int64_t(Slot));
        V.Flags |= AVal::InMem;
      }
      File.unbind(Rg, Slot);
      V.Flags &= ~AVal::InReg;
      V.R = NoReg;
    }
  }

  Reg allocReg(ValType T, uint16_t Pins = 0) {
    RegFile &File = fileFor(T);
    Reg Rg = File.findFree(Pins);
    if (Rg != NoReg)
      return Rg;
    Rg = File.pickVictim(Pins);
    spillReg(File, Rg);
    return Rg;
  }
  /// Prefers \p Want if it is free (result-register reuse).
  Reg allocRegPrefer(ValType T, Reg Want, uint16_t Pins = 0) {
    if (Want != NoReg && Want < fileFor(T).NumAllocatable &&
        fileFor(T).isFree(Want))
      return Want;
    return allocReg(T, Pins);
  }

  static uint16_t pin(Reg Rg) {
    return Rg == NoReg ? 0 : uint16_t(1u << Rg);
  }

  /// Materializes the slot's value into a register of its class.
  Reg ensureInReg(uint32_t Slot, uint16_t Pins = 0) {
    AVal &V = Vals[Slot];
    if (V.inReg())
      return V.R;
    Reg Rg = allocReg(V.Type, Pins);
    if (V.isConst()) {
      A.emit(isFp(V.Type) ? MOp::MovFI : MOp::MovRI, Rg, 0, 0, 0,
             int64_t(V.Konst));
    } else {
      assert(V.inMem() && "value is nowhere");
      A.emit(isFp(V.Type) ? MOp::LdSlotF : MOp::LdSlot, Rg, 0, 0, 0,
             int64_t(Slot));
    }
    bindReg(Slot, Rg);
    return Rg;
  }

  // --- Stack ops ---
  void pushOperand(AVal V) {
    ++StackGen;
    Vals.push_back(V);
    if (V.inReg())
      fileFor(V.Type).bind(V.R, topSlot());
    eagerTagOnDef(topSlot());
  }
  void pushReg(ValType T, Reg Rg) {
    AVal V;
    V.Flags = AVal::InReg;
    V.Type = T;
    V.R = Rg;
    pushOperand(V);
  }
  void pushConst(ValType T, uint64_t Bits) {
    if (!Opts.TrackConstants) {
      Reg Rg = allocReg(T);
      A.emit(isFp(T) ? MOp::MovFI : MOp::MovRI, Rg, 0, 0, 0, int64_t(Bits));
      pushReg(T, Rg);
      return;
    }
    AVal V;
    V.Flags = AVal::IsConst;
    V.Type = T;
    V.Konst = Bits;
    pushOperand(V);
  }
  /// Pops the top operand, releasing its register binding.
  AVal popOperand() {
    ++StackGen;
    AVal V = Vals[topSlot()];
    clearReg(topSlot());
    Vals.pop_back();
    return V;
  }

  /// Ensures the slot's value (and, per mode, its tag) is in memory.
  void ensureSlotFlushed(uint32_t Slot) {
    AVal &V = Vals[Slot];
    if (!V.inMem()) {
      if (V.inReg()) {
        A.emit(isFp(V.Type) ? MOp::StSlotF : MOp::StSlot, V.R, 0, 0, 0,
               int64_t(Slot));
      } else {
        assert(V.isConst() && "value is nowhere");
        A.emit(MOp::MovRI, ScratchGp, 0, 0, 0, int64_t(V.Konst));
        A.emit(MOp::StSlot, ScratchGp, 0, 0, 0, int64_t(Slot));
      }
      V.Flags |= AVal::InMem;
    }
    if (modeCoversSlot(Slot) && !V.tagStored())
      emitTag(Slot, V.Type);
  }

  /// Full flush: every live slot's value and tag to memory (calls, generic
  /// probes, merges).
  void flushAll() {
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot)
      ensureSlotFlushed(Slot);
  }

  /// Tag-only flush before potentially-trapping instructions: cheap at
  /// runtime (usually zero instructions in steady state).
  void flushTagsForTrap() {
    if (Opts.Tags == TagMode::None || Opts.Tags == TagMode::StackMap)
      return;
    if (eagerMode())
      return; // Tags are maintained at every definition already.
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot) {
      AVal &V = Vals[Slot];
      if (modeCoversSlot(Slot) && !V.tagStored())
        emitTag(Slot, V.Type);
    }
  }

  /// Drops all register bindings (registers do not survive calls).
  void dropAllRegs() {
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot) {
      AVal &V = Vals[Slot];
      V.Flags &= ~AVal::InReg;
      V.R = NoReg;
    }
    Gp.reset();
    Fp.reset();
  }

  /// Drops constant knowledge (loop entry over-approximation).
  void dropConsts() {
    for (AVal &V : Vals) {
      if (V.isConst()) {
        assert(V.inMem() && "dropping unspilled constant");
        V.Flags &= ~AVal::IsConst;
      }
    }
  }

  // --- Snapshots ---
  StateSnapshot snapshot() {
    StateSnapshot S;
    S.Vals = Vals;
    Code.Stats.SnapshotBytes += S.byteSize();
    return S;
  }
  void restoreSnapshot(const StateSnapshot &S) {
    Vals = S.Vals;
    Gp.reset();
    Fp.reset();
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot)
      if (Vals[Slot].inReg())
        fileFor(Vals[Slot].Type).bind(Vals[Slot].R, Slot);
  }

  /// Rebuilds the all-in-memory state at a merge label.
  void rebuildMergeState(uint32_t BaseOperands,
                         const std::vector<ValType> &Pushed) {
    Vals.resize(NumLocals + BaseOperands);
    Gp.reset();
    Fp.reset();
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot) {
      AVal &V = Vals[Slot];
      V.Flags = AVal::InMem;
      V.R = NoReg;
      V.MemTag = tagKnownAfterFlush(Slot) ? uint8_t(V.Type) : 0;
    }
    for (ValType T : Pushed) {
      AVal V;
      V.Flags = AVal::InMem;
      V.Type = T;
      Vals.push_back(V);
      Vals.back().MemTag =
          tagKnownAfterFlush(topSlot()) ? uint8_t(T) : 0;
    }
  }
  bool tagKnownAfterFlush(uint32_t Slot) const {
    return modeCoversSlot(Slot);
  }

  // --- Merge transfers ---
  /// Copies the top \p Arity operand values to target operand base
  /// \p TgtBase and flushes everything below. Mutates the state; callers
  /// branching conditionally snapshot around it.
  void emitMergeTransfer(uint32_t Arity, uint32_t TgtBase) {
    uint32_t SrcBase = operandCount() - Arity;
    assert(SrcBase >= TgtBase && "merge source below target");
    for (uint32_t J = 0; J < Arity; ++J) {
      uint32_t Src = NumLocals + SrcBase + J;
      uint32_t Dst = NumLocals + TgtBase + J;
      if (Src == Dst) {
        ensureSlotFlushed(Src);
        continue;
      }
      const AVal &V = Vals[Src];
      if (V.inReg()) {
        A.emit(isFp(V.Type) ? MOp::StSlotF : MOp::StSlot, V.R, 0, 0, 0,
               int64_t(Dst));
      } else if (V.isConst()) {
        A.emit(MOp::MovRI, ScratchGp, 0, 0, 0, int64_t(V.Konst));
        A.emit(MOp::StSlot, ScratchGp, 0, 0, 0, int64_t(Dst));
      } else {
        A.emit(MOp::LdSlot, ScratchGp, 0, 0, 0, int64_t(Src));
        A.emit(MOp::StSlot, ScratchGp, 0, 0, 0, int64_t(Dst));
      }
      if (modeCoversSlot(Dst))
        emitTag(Dst, V.Type); // Dst AVal is rewritten below/at the label.
    }
    // Flush locals and the stack below the target base.
    for (uint32_t Slot = 0; Slot < NumLocals + TgtBase; ++Slot)
      ensureSlotFlushed(Slot);
  }

  /// True when a conditional branch to \p C needs no merge code at all.
  bool isTrivialMerge(const Control &C, uint32_t Arity) {
    if (operandCount() != C.Base + Arity)
      return false;
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot) {
      const AVal &V = Vals[Slot];
      if (!V.inMem())
        return false;
      if (modeCoversSlot(Slot) && !V.tagStored())
        return false;
    }
    return true;
  }

  /// Emits the flush/moves/jump for an unconditional branch to depth
  /// \p Depth. Marks forward targets as merged-into.
  void emitBranchTransfer(uint32_t Depth) {
    Control &C = Ctrl[Ctrl.size() - 1 - Depth];
    if (C.Kind == Opcode::Loop) {
      emitMergeTransfer(uint32_t(C.Params.size()), C.Base);
      A.jmp(C.Head);
      return;
    }
    emitMergeTransfer(uint32_t(C.Results.size()), C.Base);
    C.EndTargeted = true;
    A.jmp(C.End);
  }

  // --- Observation points ---
  void recordStackMapIfNeeded() {
    if (Opts.Tags != TagMode::StackMap)
      return;
    StackMapEntry E;
    E.Pc = A.pc();
    E.Height = operandCount();
    for (uint32_t Slot = 0; Slot < Vals.size(); ++Slot)
      if (isRefType(Vals[Slot].Type))
        E.RefSlots.push_back(Slot);
    Code.Stats.StackMapBytes += E.byteSize();
    Code.StackMaps.push_back(std::move(E));
  }

  void emitDeoptCheck(uint32_t Ip) {
    if (Opts.EmitDeoptChecks)
      A.emit(MOp::DeoptCheck, 0, 0, 0, 0, int64_t(Ip), int64_t(Stp));
  }
  void emitFuelCheck(uint32_t Ip) {
    if (Opts.EmitFuelChecks)
      A.emit(MOp::FuelCheck, 0, 0, 0, 0, int64_t(Ip), 0);
  }

  // --- Constant folding ---
  bool tryFoldBinop(Opcode Op, uint64_t Av, uint64_t Bv, uint64_t *Out);
  bool tryFoldUnop(Opcode Op, uint64_t Av, uint64_t *Out);

  // --- Peephole (compare + branch fusion) ---
  struct PendingCmp {
    bool Valid = false;
    bool Is64 = false;
    Cond C = Cond::Eq;
    Reg Lhs = NoReg;
    Reg Rhs = NoReg;
    bool RhsIsImm = false;
    int64_t Imm = 0;
    uint32_t InstPc = 0;
    uint32_t DstSlot = 0;
    uint64_t Gen = 0; ///< StackGen right after the result push.
  };
  PendingCmp LastCmp;
  /// Bumped on every operand push/pop. Fusion is only sound while the
  /// compare's result is still the live top of stack; checking slot
  /// *indices* alone false-positives when codeless ops (constant pushes,
  /// register rebinds on local.set, MR-cached local.gets) repopulate the
  /// same slot without advancing the instruction stream.
  uint64_t StackGen = 0;

  /// If the branch condition is the result of the immediately preceding
  /// integer compare, pops it and returns the fused condition.
  bool tryFuseCompare(PendingCmp *Out) {
    if (!Opts.Peephole || !LastCmp.Valid)
      return false;
    if (LastCmp.InstPc + 1 != A.pc() || LastCmp.DstSlot != topSlot() ||
        LastCmp.Gen != StackGen)
      return false;
    *Out = LastCmp;
    // Nop out the CmpSet; the operand registers still hold their values.
    Code.Insts[LastCmp.InstPc].Op = MOp::Nop;
    popOperand();
    LastCmp.Valid = false;
    return true;
  }
  void emitFusedBranch(const PendingCmp &P, bool Negated, Label L) {
    Cond C = Negated ? negate(P.C) : P.C;
    if (P.RhsIsImm) {
      if (P.Is64)
        A.brCmpI64(C, P.Lhs, P.Imm, L);
      else
        A.brCmpI32(C, P.Lhs, P.Imm, L);
    } else {
      if (P.Is64)
        A.brCmp64(C, P.Lhs, P.Rhs, L);
      else
        A.brCmp32(C, P.Lhs, P.Rhs, L);
    }
  }

  // --- Op family compilers ---
  void compileBinop(Opcode Op, ValType OpTy, ValType ResTy, MOp RegForm,
                    MOp ImmForm, bool Commutative);
  void compileUnop(Opcode Op, ValType InTy, ValType OutTy, MOp Form);
  void compileCmp(bool Is64, Cond C);
  void compileCmpF(bool Is64, FCond C);
  void compileDivRem(Opcode Op, bool Is64, MOp Form);
  void compileLoad(MOp Form, ValType ResTy);
  void compileStore(MOp Form);
  void compileSelect(Opcode Op);
  void compileCall(const FuncType &FT, bool Indirect, uint32_t CalleeOrType);
  void emitReturn();
  void handleProbe(uint32_t Ip);

  // --- Structure ---
  void compileOp(Opcode Op, uint32_t OpIp);
  void skipDeadOp(Opcode Op);
  void prologue();

  const Module &M;
  const FuncDecl &F;
  CompilerOptions Opts;
  const ProbeSiteOracle *Probes;
  MCode &Code;
  Assembler A;
  CodeReader R;

  std::vector<AVal> Vals;
  RegFile Gp, Fp;
  std::vector<Control> Ctrl;
  uint32_t NumLocals = 0;
  uint32_t Stp = 0;
  bool Live = true;
};

bool SPC::tryFoldBinop(Opcode Op, uint64_t Av, uint64_t Bv, uint64_t *Out) {
  uint32_t A32 = uint32_t(Av), B32 = uint32_t(Bv);
  switch (Op) {
  case Opcode::I32Add:
    *Out = uint32_t(A32 + B32);
    return true;
  case Opcode::I32Sub:
    *Out = uint32_t(A32 - B32);
    return true;
  case Opcode::I32Mul:
    *Out = uint32_t(A32 * B32);
    return true;
  case Opcode::I32And:
    *Out = A32 & B32;
    return true;
  case Opcode::I32Or:
    *Out = A32 | B32;
    return true;
  case Opcode::I32Xor:
    *Out = A32 ^ B32;
    return true;
  case Opcode::I32Shl:
    *Out = shl32(A32, B32);
    return true;
  case Opcode::I32ShrS:
    *Out = uint32_t(shrS32(int32_t(A32), B32));
    return true;
  case Opcode::I32ShrU:
    *Out = shrU32(A32, B32);
    return true;
  case Opcode::I32Rotl:
    *Out = rotl32(A32, B32);
    return true;
  case Opcode::I32Rotr:
    *Out = rotr32(A32, B32);
    return true;
  case Opcode::I32Eq:
    *Out = A32 == B32;
    return true;
  case Opcode::I32Ne:
    *Out = A32 != B32;
    return true;
  case Opcode::I32LtS:
    *Out = int32_t(A32) < int32_t(B32);
    return true;
  case Opcode::I32LtU:
    *Out = A32 < B32;
    return true;
  case Opcode::I32GtS:
    *Out = int32_t(A32) > int32_t(B32);
    return true;
  case Opcode::I32GtU:
    *Out = A32 > B32;
    return true;
  case Opcode::I32LeS:
    *Out = int32_t(A32) <= int32_t(B32);
    return true;
  case Opcode::I32LeU:
    *Out = A32 <= B32;
    return true;
  case Opcode::I32GeS:
    *Out = int32_t(A32) >= int32_t(B32);
    return true;
  case Opcode::I32GeU:
    *Out = A32 >= B32;
    return true;
  case Opcode::I64Add:
    *Out = Av + Bv;
    return true;
  case Opcode::I64Sub:
    *Out = Av - Bv;
    return true;
  case Opcode::I64Mul:
    *Out = Av * Bv;
    return true;
  case Opcode::I64And:
    *Out = Av & Bv;
    return true;
  case Opcode::I64Or:
    *Out = Av | Bv;
    return true;
  case Opcode::I64Xor:
    *Out = Av ^ Bv;
    return true;
  case Opcode::I64Shl:
    *Out = shl64(Av, Bv);
    return true;
  case Opcode::I64ShrS:
    *Out = uint64_t(shrS64(int64_t(Av), Bv));
    return true;
  case Opcode::I64ShrU:
    *Out = shrU64(Av, Bv);
    return true;
  case Opcode::I64Rotl:
    *Out = rotl64(Av, Bv);
    return true;
  case Opcode::I64Rotr:
    *Out = rotr64(Av, Bv);
    return true;
  case Opcode::I64Eq:
    *Out = Av == Bv;
    return true;
  case Opcode::I64Ne:
    *Out = Av != Bv;
    return true;
  case Opcode::I64LtS:
    *Out = int64_t(Av) < int64_t(Bv);
    return true;
  case Opcode::I64LtU:
    *Out = Av < Bv;
    return true;
  case Opcode::I64GtS:
    *Out = int64_t(Av) > int64_t(Bv);
    return true;
  case Opcode::I64GtU:
    *Out = Av > Bv;
    return true;
  case Opcode::I64LeS:
    *Out = int64_t(Av) <= int64_t(Bv);
    return true;
  case Opcode::I64LeU:
    *Out = Av <= Bv;
    return true;
  case Opcode::I64GeS:
    *Out = int64_t(Av) >= int64_t(Bv);
    return true;
  case Opcode::I64GeU:
    *Out = Av >= Bv;
    return true;
  default:
    return false; // Floats and trapping ops are not folded.
  }
}

bool SPC::tryFoldUnop(Opcode Op, uint64_t Av, uint64_t *Out) {
  uint32_t A32 = uint32_t(Av);
  switch (Op) {
  case Opcode::I32Eqz:
    *Out = A32 == 0;
    return true;
  case Opcode::I64Eqz:
    *Out = Av == 0;
    return true;
  case Opcode::I32Clz:
    *Out = clz32(A32);
    return true;
  case Opcode::I32Ctz:
    *Out = ctz32(A32);
    return true;
  case Opcode::I32Popcnt:
    *Out = popcnt32(A32);
    return true;
  case Opcode::I64Clz:
    *Out = clz64(Av);
    return true;
  case Opcode::I64Ctz:
    *Out = ctz64(Av);
    return true;
  case Opcode::I64Popcnt:
    *Out = popcnt64(Av);
    return true;
  case Opcode::I32WrapI64:
    *Out = A32;
    return true;
  case Opcode::I64ExtendI32S:
    *Out = uint64_t(int64_t(int32_t(A32)));
    return true;
  case Opcode::I64ExtendI32U:
    *Out = A32;
    return true;
  case Opcode::I32Extend8S:
    *Out = uint32_t(int32_t(int8_t(uint8_t(A32))));
    return true;
  case Opcode::I32Extend16S:
    *Out = uint32_t(int32_t(int16_t(uint16_t(A32))));
    return true;
  case Opcode::I64Extend8S:
    *Out = uint64_t(int64_t(int8_t(uint8_t(Av))));
    return true;
  case Opcode::I64Extend16S:
    *Out = uint64_t(int64_t(int16_t(uint16_t(Av))));
    return true;
  case Opcode::I64Extend32S:
    *Out = uint64_t(int64_t(int32_t(A32)));
    return true;
  default:
    return false;
  }
}

void SPC::compileBinop(Opcode Op, ValType OpTy, ValType ResTy, MOp RegForm,
                       MOp ImmForm, bool Commutative) {
  uint32_t Sb = topSlot(), Sa = topSlot() - 1;
  AVal Av = Vals[Sa], Bv = Vals[Sb];

  // Constant folding.
  uint64_t Folded;
  if (Opts.ConstantFolding && Av.isConst() && Bv.isConst() &&
      tryFoldBinop(Op, Av.Konst, Bv.Konst, &Folded)) {
    popOperand();
    popOperand();
    pushConst(ResTy, Folded);
    return;
  }

  // Algebraic identities / strength reduction on a constant rhs.
  if (Opts.ConstantFolding && Bv.isConst() && ResTy == OpTy) {
    uint64_t K = Bv.Konst;
    bool Is32 = OpTy == ValType::I32;
    uint64_t Zero = 0, One = 1;
    bool Identity = false;
    switch (Op) {
    case Opcode::I32Add:
    case Opcode::I64Add:
    case Opcode::I32Sub:
    case Opcode::I64Sub:
    case Opcode::I32Or:
    case Opcode::I64Or:
    case Opcode::I32Xor:
    case Opcode::I64Xor:
    case Opcode::I32Shl:
    case Opcode::I64Shl:
    case Opcode::I32ShrS:
    case Opcode::I64ShrS:
    case Opcode::I32ShrU:
    case Opcode::I64ShrU:
      Identity = K == Zero;
      break;
    case Opcode::I32Mul:
    case Opcode::I64Mul:
      Identity = K == One;
      if (K == Zero) { // x * 0 = 0 (mul has no side effects).
        popOperand();
        popOperand();
        pushConst(ResTy, 0);
        return;
      }
      break;
    default:
      break;
    }
    if (Identity) { // Result is just the lhs.
      popOperand();
      return;
    }
    // Multiply by power of two -> shift.
    if (Opts.InstructionSelect &&
        (Op == Opcode::I32Mul || Op == Opcode::I64Mul)) {
      uint64_t Kv = Is32 ? uint32_t(K) : K;
      if (Kv != 0 && (Kv & (Kv - 1)) == 0) {
        uint32_t Sh = Is32 ? ctz32(uint32_t(Kv)) : uint32_t(ctz64(Kv));
        popOperand(); // rhs const
        Reg Ra = ensureInReg(topSlot());
        AVal Ao = popOperand();
        Reg Rd = allocRegPrefer(ResTy, Ao.inReg() ? Ra : NoReg);
        A.emit(Is32 ? MOp::ShlI32 : MOp::ShlI64, Rd, Ra, 0, 0, int64_t(Sh));
        pushReg(ResTy, Rd);
        return;
      }
    }
  }

  // Immediate form selection (the register side becomes the lhs; for
  // commutative ops a constant lhs is swapped into the immediate).
  if (Opts.InstructionSelect && ImmForm != MOp::Nop) {
    uint32_t RegSlot = ~0u;
    uint64_t ImmVal = 0;
    if (Bv.isConst()) {
      RegSlot = Sa;
      ImmVal = Bv.Konst;
    } else if (Commutative && Av.isConst()) {
      RegSlot = Sb;
      ImmVal = Av.Konst;
    }
    if (RegSlot != ~0u) {
      Reg Ra = ensureInReg(RegSlot);
      popOperand();
      popOperand();
      Reg Rd = allocRegPrefer(ResTy, Ra);
      A.emit(ImmForm, Rd, Ra, 0, 0, int64_t(ImmVal));
      pushReg(ResTy, Rd);
      return;
    }
  }

  // Register-register form.
  Reg Ra = ensureInReg(Sa);
  Reg Rb = ensureInReg(Sb, pin(Ra));
  popOperand();
  popOperand();
  bool SameClass = isFp(ResTy) == isFp(OpTy);
  Reg Rd = allocRegPrefer(ResTy, SameClass ? Ra : NoReg);
  A.emit(RegForm, Rd, Ra, Rb);
  pushReg(ResTy, Rd);
}

void SPC::compileUnop(Opcode Op, ValType InTy, ValType OutTy, MOp Form) {
  AVal Av = Vals[topSlot()];
  uint64_t Folded;
  if (Opts.ConstantFolding && Av.isConst() &&
      tryFoldUnop(Op, Av.Konst, &Folded)) {
    popOperand();
    pushConst(OutTy, Folded);
    return;
  }
  Reg Ra = ensureInReg(topSlot());
  popOperand();
  bool SameClass = isFp(InTy) == isFp(OutTy);
  Reg Rd = allocRegPrefer(OutTy, SameClass ? Ra : NoReg);
  A.emit(Form, Rd, Ra);
  pushReg(OutTy, Rd);
}

void SPC::compileCmp(bool Is64, Cond C) {
  uint32_t Sb = topSlot(), Sa = topSlot() - 1;
  AVal Av = Vals[Sa], Bv = Vals[Sb];
  if (Opts.ConstantFolding && Av.isConst() && Bv.isConst()) {
    bool V = Is64 ? evalCond64(C, Av.Konst, Bv.Konst)
                  : evalCond32(C, uint32_t(Av.Konst), uint32_t(Bv.Konst));
    popOperand();
    popOperand();
    pushConst(ValType::I32, V);
    return;
  }
  PendingCmp P;
  P.Is64 = Is64;
  P.C = C;
  Reg Rd;
  if (Opts.InstructionSelect && Bv.isConst()) {
    Reg Ra = ensureInReg(Sa);
    popOperand();
    popOperand();
    Rd = allocRegPrefer(ValType::I32, Ra);
    P.InstPc = A.emit(Is64 ? MOp::CmpSetI64 : MOp::CmpSetI32, Rd, Ra, 0,
                      uint8_t(C), int64_t(Bv.Konst));
    P.Lhs = Ra;
    P.RhsIsImm = true;
    P.Imm = int64_t(Bv.Konst);
  } else {
    Reg Ra = ensureInReg(Sa);
    Reg Rb = ensureInReg(Sb, pin(Ra));
    popOperand();
    popOperand();
    Rd = allocRegPrefer(ValType::I32, Ra);
    P.InstPc =
        A.emit(Is64 ? MOp::CmpSet64 : MOp::CmpSet32, Rd, Ra, Rb, uint8_t(C));
    P.Lhs = Ra;
    P.Rhs = Rb;
  }
  pushReg(ValType::I32, Rd);
  P.Valid = Opts.Peephole;
  P.DstSlot = topSlot();
  P.Gen = StackGen;
  LastCmp = P;
}

void SPC::compileCmpF(bool Is64, FCond C) {
  uint32_t Sb = topSlot(), Sa = topSlot() - 1;
  Reg Ra = ensureInReg(Sa);
  Reg Rb = ensureInReg(Sb, pin(Ra));
  popOperand();
  popOperand();
  Reg Rd = allocReg(ValType::I32);
  A.emit(Is64 ? MOp::CmpSetF64 : MOp::CmpSetF32, Rd, Ra, Rb, uint8_t(C));
  pushReg(ValType::I32, Rd);
}

void SPC::compileDivRem(Opcode Op, bool Is64, MOp Form) {
  // Division can trap: tag observation point. Skip when the rhs constant
  // provably cannot trap.
  uint32_t Sb = topSlot();
  AVal Bv = Vals[Sb];
  bool CanTrap = true;
  if (Opts.TrackConstants && Bv.isConst()) {
    uint64_t K = Is64 ? Bv.Konst : uint32_t(Bv.Konst);
    bool IsSigned = Op == Opcode::I32DivS || Op == Opcode::I64DivS ||
                    Op == Opcode::I32RemS || Op == Opcode::I64RemS;
    uint64_t MinusOne = Is64 ? ~uint64_t(0) : uint64_t(uint32_t(-1));
    CanTrap = K == 0 || (IsSigned && K == MinusOne);
  }
  if (CanTrap)
    flushTagsForTrap();
  Reg Rb = ensureInReg(Sb);
  Reg Ra = ensureInReg(topSlot() - 1, pin(Rb));
  popOperand();
  popOperand();
  Reg Rd = allocRegPrefer(Is64 ? ValType::I64 : ValType::I32, Ra);
  A.emit(Form, Rd, Ra, Rb);
  pushReg(Is64 ? ValType::I64 : ValType::I32, Rd);
}

void SPC::compileLoad(MOp Form, ValType ResTy) {
  MemArg Arg = R.readMemArg();
  flushTagsForTrap();
  Reg Ra = ensureInReg(topSlot());
  popOperand();
  Reg Rd;
  if (isFp(ResTy)) {
    Rd = allocReg(ResTy);
  } else {
    Rd = allocRegPrefer(ResTy, Ra);
  }
  A.emit(Form, Rd, Ra, 0, 0, int64_t(Arg.Offset));
  pushReg(ResTy, Rd);
}

void SPC::compileStore(MOp Form) {
  MemArg Arg = R.readMemArg();
  flushTagsForTrap();
  Reg Rv = ensureInReg(topSlot());
  Reg Ra = ensureInReg(topSlot() - 1, pin(Rv));
  popOperand();
  popOperand();
  A.emit(Form, Rv, Ra, 0, 0, int64_t(Arg.Offset));
}

void SPC::compileSelect(Opcode Op) {
  if (Op == Opcode::SelectT) {
    uint32_t N = R.readU32();
    for (uint32_t I = 0; I < N; ++I)
      (void)R.readByte();
  }
  AVal Cv = Vals[topSlot()];
  if (Opts.ConstantFolding && Cv.isConst()) {
    popOperand(); // cond
    if (uint32_t(Cv.Konst) != 0) {
      popOperand(); // b; a is the result, already in place.
      return;
    }
    // The result is b, which moves down one slot. A memory-only b carries
    // no value in its AVal — its bits live in its *old* stack slot, and
    // the destination slot still holds a's stale spill — so materialize
    // it in a register first. The InMem claim is wrong at the new slot
    // either way.
    if (!Vals[topSlot()].inReg() && !Vals[topSlot()].isConst())
      ensureInReg(topSlot());
    AVal Bv = popOperand();
    Bv.Flags &= ~AVal::InMem;
    popOperand(); // a
    pushOperand(Bv);
    return;
  }
  Reg Rc = ensureInReg(topSlot());
  ValType T = Vals[topSlot() - 1].Type;
  Reg Rb = ensureInReg(topSlot() - 1, pin(Rc));
  Reg Ra = ensureInReg(topSlot() - 2, uint16_t(pin(Rc) | pin(Rb)));
  popOperand();
  popOperand();
  popOperand();
  // The destination must be writable: Ra may still be shared with a local
  // under multi-register allocation.
  Reg Rd = allocRegPrefer(T, Ra, uint16_t(pin(Rb) | pin(Rc)));
  if (Rd != Ra)
    A.emit(isFp(T) ? MOp::MovFF : MOp::MovRR, Rd, Ra);
  // if (cond) keep a; else result = b.
  Label Keep = A.newLabel();
  A.jmpIf(Rc, Keep);
  A.emit(isFp(T) ? MOp::MovFF : MOp::MovRR, Rd, Rb);
  A.bind(Keep);
  pushReg(T, Rd);
}

void SPC::compileCall(const FuncType &FT, bool Indirect, uint32_t CalleeOrType) {
  uint32_t NArgs = uint32_t(FT.Params.size());
  uint32_t NRes = uint32_t(FT.Results.size());
  Reg IdxReg = 0;
  if (Indirect) {
    flushTagsForTrap(); // Table checks can trap.
    Reg Ri = ensureInReg(topSlot());
    A.emit(MOp::MovRR, ScratchGp2, Ri);
    popOperand();
    IdxReg = ScratchGp2;
  }
  flushAll();
  uint32_t ArgBase = NumLocals + operandCount() - NArgs;
  A.emit(MOp::StSp, 0, 0, 0, 0, int64_t(ArgBase));
  dropAllRegs();
  // The map is keyed by the call instruction's pc (the next emitted one).
  recordStackMapIfNeeded();
  if (Indirect)
    A.emit(MOp::CallIndirect, IdxReg, 0, 0, 0, int64_t(CalleeOrType),
           int64_t(ArgBase));
  else
    A.emit(MOp::CallDirect, 0, 0, 0, 0, int64_t(CalleeOrType),
           int64_t(ArgBase));
  // Pop args, push results (in memory, tagged by the callee per mode).
  for (uint32_t I = 0; I < NArgs; ++I)
    popOperand();
  for (uint32_t I = 0; I < NRes; ++I) {
    AVal V;
    V.Flags = AVal::InMem;
    V.Type = FT.Results[I];
    Vals.push_back(V);
    Vals.back().MemTag =
        tagKnownAfterFlush(topSlot()) ? uint8_t(V.Type) : 0;
  }
  emitDeoptCheck(uint32_t(R.pc()));
}

void SPC::emitReturn() {
  uint32_t NRes = uint32_t(M.Types[F.TypeIdx].Results.size());
  uint32_t SrcBase = uint32_t(Vals.size()) - NRes;
  for (uint32_t J = 0; J < NRes; ++J) {
    uint32_t Src = SrcBase + J;
    uint32_t Dst = J;
    const AVal &V = Vals[Src];
    if (Src == Dst) {
      ensureSlotFlushed(Src);
    } else {
      if (V.inReg()) {
        A.emit(isFp(V.Type) ? MOp::StSlotF : MOp::StSlot, V.R, 0, 0, 0,
               int64_t(Dst));
      } else if (V.isConst()) {
        A.emit(MOp::MovRI, ScratchGp, 0, 0, 0, int64_t(V.Konst));
        A.emit(MOp::StSlot, ScratchGp, 0, 0, 0, int64_t(Dst));
      } else {
        A.emit(MOp::LdSlot, ScratchGp, 0, 0, 0, int64_t(Src));
        A.emit(MOp::StSlot, ScratchGp, 0, 0, 0, int64_t(Dst));
      }
      // Result tags are the callee's responsibility (operand coverage).
      if (Opts.Tags == TagMode::OnDemand || Opts.Tags == TagMode::Lazy ||
          Opts.Tags == TagMode::Eager ||
          Opts.Tags == TagMode::EagerOperands) {
        A.emit(MOp::StTag, uint8_t(V.Type), 0, 0, 0, int64_t(Dst));
        ++Code.Stats.TagStores;
      }
    }
  }
  A.emit(MOp::Ret);
}

void SPC::handleProbe(uint32_t Ip) {
  ProbeSiteKind Kind = Probes->classify(F.Index, Ip);
  if (Kind == ProbeSiteKind::None)
    return;
  if (Opts.OptimizeProbes && Kind == ProbeSiteKind::Counter) {
    // Emit the counter increment relocatable: the cell address is not
    // baked here but recorded as a patch point the engine resolves against
    // its probe registry at install time (machine/isa.h PatchKind).
    Code.Patches.push_back(
        {PatchKind::CounterCell, A.pc(), uint64_t(Ip)});
    A.emit(MOp::CntInc);
    return;
  }
  if (Opts.OptimizeProbes && Kind == ProbeSiteKind::TosReader &&
      operandCount() > 0) {
    uint32_t Tos = topSlot();
    Reg Rg = ensureInReg(Tos);
    ValType T = Vals[Tos].Type;
    A.emit(isFp(T) ? MOp::ProbeTosF : MOp::ProbeTosG, Rg, 0, 0, uint8_t(T),
           int64_t(Ip));
    return;
  }
  // Generic probe: full observation.
  flushAll();
  A.emit(MOp::StSp, 0, 0, 0, 0, int64_t(Vals.size()));
  A.emit(MOp::ProbeFire, 0, 0, 0, 0, int64_t(Ip));
}

void SPC::prologue() {
  Code.FuncIndex = F.Index;
  Code.FrameSlots = F.frameSlots();
  const FuncType &FT = M.Types[F.TypeIdx];
  // The function body behaves like a block producing the results.
  Control Root;
  Root.Kind = Opcode::Block;
  Root.Results = FT.Results;
  Root.End = A.newLabel();
  Ctrl.push_back(std::move(Root));
  uint32_t NParams = uint32_t(FT.Params.size());
  Vals.resize(NumLocals);
  for (uint32_t I = 0; I < NumLocals; ++I) {
    AVal &V = Vals[I];
    V.Type = F.LocalTypes[I];
    if (I < NParams) {
      V.Flags = AVal::InMem;
      V.MemTag = uint8_t(V.Type); // Tagged by the caller.
    } else if (Opts.TrackConstants) {
      V.Flags = AVal::IsConst;
      V.Konst = 0;
    } else {
      V.Flags = AVal::InMem;
    }
  }
  // Without constant tracking, declared locals must be zeroed eagerly.
  if (!Opts.TrackConstants && NumLocals > NParams)
    A.emit(MOp::ZeroSlots, 0, 0, 0, 0, int64_t(NParams),
           int64_t(NumLocals - NParams));
  // Eager modes write local tags up front (a definition).
  if (eagerMode()) {
    for (uint32_t I = 0; I < NumLocals; ++I)
      if (modeCoversSlot(I))
        emitTag(I, Vals[I].Type);
  }
  emitDeoptCheck(F.BodyStart);
}

void SPC::skipDeadOp(Opcode Op) {
  // Track STP in lockstep with the validator even for unreachable code.
  switch (Op) {
  case Opcode::If: {
    ++Stp;
    (void)R.readBlockType();
    Control C;
    C.Kind = Opcode::If;
    C.DeadEntry = true;
    Ctrl.push_back(std::move(C));
    return;
  }
  case Opcode::Block:
  case Opcode::Loop: {
    (void)R.readBlockType();
    Control C;
    C.Kind = Op;
    C.DeadEntry = true;
    Ctrl.push_back(std::move(C));
    return;
  }
  case Opcode::Else:
    if (Ctrl.back().DeadEntry) {
      ++Stp; // The validator still emitted the else-skip entry.
      return;
    }
    // Live-entry if whose then-arm ended dead: revive the else arm.
    // compileOp performs the STP accounting.
    compileOp(Op, uint32_t(R.pc()) - 1);
    return;
  case Opcode::Br:
  case Opcode::BrIf:
    ++Stp;
    (void)R.readU32();
    return;
  case Opcode::BrTable: {
    uint32_t N = R.readU32();
    for (uint32_t I = 0; I <= N; ++I)
      (void)R.readU32();
    Stp += N + 1;
    return;
  }
  case Opcode::End:
    if (Ctrl.back().DeadEntry) {
      Ctrl.pop_back();
      return; // Still dead.
    }
    compileOp(Op, uint32_t(R.pc()) - 1);
    return;
  default:
    R.skipImms(Op);
    return;
  }
}

void SPC::compileOp(Opcode Op, uint32_t) {
  switch (Op) {
  case Opcode::Nop:
    return;

  case Opcode::Unreachable:
    flushTagsForTrap();
    A.emit(MOp::TrapOp, 0, 0, 0, 0, int64_t(TrapReason::Unreachable));
    Live = false;
    return;

  case Opcode::Block:
  case Opcode::Loop: {
    BlockType BT = R.readBlockType();
    Control C;
    C.Kind = Op;
    if (BT.K == BlockType::OneResult) {
      C.Results.push_back(BT.Result);
    } else if (BT.K == BlockType::FuncTypeIdx) {
      C.Params = M.Types[BT.TypeIdx].Params;
      C.Results = M.Types[BT.TypeIdx].Results;
    }
    C.Base = operandCount() - uint32_t(C.Params.size());
    C.End = A.newLabel();
    if (Op == Opcode::Loop) {
      // Loop entry is a merge: spill everything, drop constants & regs.
      flushAll();
      dropAllRegs();
      dropConsts();
      C.Head = A.newLabel();
      A.bind(C.Head);
      // Order matters for fuel determinism: the check sits at the head so
      // both entry fallthrough and taken backedges charge, the OSR entry
      // lands AFTER it (the interpreter charged that arrival at its own
      // branch site before tiering up), and the deopt check follows so a
      // tiered-down frame resumes at the plain header ip, which the
      // interpreter tiers do not re-charge.
      emitFuelCheck(uint32_t(R.pc()));
      if (Opts.EmitOsrEntries)
        Code.OsrEntries.push_back(
            MCode::OsrEntry{uint32_t(R.pc()), Stp, A.pc()});
      emitDeoptCheck(uint32_t(R.pc()));
    }
    Ctrl.push_back(std::move(C));
    return;
  }

  case Opcode::If: {
    ++Stp; // The validator emitted the false-edge entry.
    BlockType BT = R.readBlockType();
    Control C;
    C.Kind = Opcode::If;
    if (BT.K == BlockType::OneResult) {
      C.Results.push_back(BT.Result);
    } else if (BT.K == BlockType::FuncTypeIdx) {
      C.Params = M.Types[BT.TypeIdx].Params;
      C.Results = M.Types[BT.TypeIdx].Results;
    }
    C.End = A.newLabel();
    AVal Cv = Vals[topSlot()];
    if (Opts.ConstantFolding && Cv.isConst()) {
      popOperand();
      C.FoldedCond = uint32_t(Cv.Konst) != 0 ? 1 : 0;
      C.Base = operandCount() - uint32_t(C.Params.size());
      if (C.FoldedCond == 0) {
        C.ElseSnap = snapshot();
        Live = false; // Then-arm is dead.
      }
      Ctrl.push_back(std::move(C));
      return;
    }
    C.Else = A.newLabel();
    PendingCmp P;
    if (tryFuseCompare(&P)) {
      emitFusedBranch(P, /*Negated=*/true, C.Else);
    } else {
      Reg Rc = ensureInReg(topSlot());
      popOperand();
      A.jmpIfZ(Rc, C.Else);
    }
    C.Base = operandCount() - uint32_t(C.Params.size());
    C.ElseSnap = snapshot();
    Ctrl.push_back(std::move(C));
    return;
  }

  case Opcode::Else: {
    ++Stp; // The else-skip entry.
    Control &C = Ctrl.back();
    assert(C.Kind == Opcode::If && !C.ElseSeen && "else without if");
    C.ElseSeen = true;
    if (Live) {
      emitMergeTransfer(uint32_t(C.Results.size()), C.Base);
      C.EndTargeted = true;
      A.jmp(C.End);
    }
    if (C.FoldedCond == 1) {
      Live = false; // Else-arm statically dead.
      return;
    }
    restoreSnapshot(C.ElseSnap);
    Live = true;
    if (C.FoldedCond == -1)
      A.bind(C.Else);
    return;
  }

  case Opcode::End: {
    Control C = std::move(Ctrl.back());
    Ctrl.pop_back();
    // An if without else has an implicit empty else-arm.
    if (C.Kind == Opcode::If && !C.ElseSeen && C.FoldedCond != 1) {
      if (C.FoldedCond == 0) {
        // Condition statically false and no else: state = entry snapshot.
        assert(!Live && "then-arm of folded-false if ended live");
        restoreSnapshot(C.ElseSnap);
        Live = true;
      } else {
        // Real false edge: merge the then-arm with the fallthrough.
        if (Live) {
          emitMergeTransfer(uint32_t(C.Results.size()), C.Base);
          C.EndTargeted = true;
          A.jmp(C.End);
        }
        A.bind(C.Else);
        restoreSnapshot(C.ElseSnap);
        Live = true;
      }
    }
    if (C.EndTargeted) {
      if (Live)
        emitMergeTransfer(uint32_t(C.Results.size()), C.Base);
      A.bind(C.End);
      rebuildMergeState(C.Base, C.Results);
      Live = true;
    }
    // Untargeted end: state flows through unchanged (fast path), or code
    // stays dead.
    if (Ctrl.empty()) {
      if (Live)
        emitReturn();
      Live = false;
      return;
    }
    return;
  }

  case Opcode::Br: {
    ++Stp;
    uint32_t Depth = R.readU32();
    emitBranchTransfer(Depth);
    Live = false;
    return;
  }

  case Opcode::BrIf: {
    ++Stp;
    uint32_t Depth = R.readU32();
    AVal Cv = Vals[topSlot()];
    if (Opts.ConstantFolding && Cv.isConst()) {
      popOperand();
      if (uint32_t(Cv.Konst) != 0) {
        emitBranchTransfer(Depth);
        Live = false;
      }
      return;
    }
    Control &C = Ctrl[Ctrl.size() - 1 - Depth];
    uint32_t Arity = uint32_t(
        (C.Kind == Opcode::Loop ? C.Params : C.Results).size());
    PendingCmp P;
    bool Fused = tryFuseCompare(&P);
    Reg Rc = NoReg;
    if (!Fused) {
      Rc = ensureInReg(topSlot());
      popOperand();
    }
    if (isTrivialMerge(C, Arity)) {
      Label Target = C.Kind == Opcode::Loop ? C.Head : C.End;
      if (C.Kind != Opcode::Loop)
        C.EndTargeted = true;
      if (Fused)
        emitFusedBranch(P, /*Negated=*/false, Target);
      else
        A.jmpIf(Rc, Target);
      return;
    }
    // Inverted skip: merge code runs only on the taken edge.
    Label Skip = A.newLabel();
    if (Fused)
      emitFusedBranch(P, /*Negated=*/true, Skip);
    else
      A.jmpIfZ(Rc, Skip);
    StateSnapshot Save = snapshot();
    emitBranchTransfer(Depth);
    restoreSnapshot(Save);
    A.bind(Skip);
    return;
  }

  case Opcode::BrTable: {
    uint32_t N = R.readU32();
    std::vector<uint32_t> Depths(N + 1);
    for (uint32_t I = 0; I <= N; ++I)
      Depths[I] = R.readU32();
    Stp += N + 1;
    Reg Ri = ensureInReg(topSlot());
    A.emit(MOp::MovRR, ScratchGp2, Ri);
    popOperand();
    flushAll(); // Unconditional transfer: mutate freely.
    // Per-target stubs perform the (memory) merge moves.
    std::vector<Label> Stubs(Depths.size());
    for (size_t I = 0; I < Depths.size(); ++I)
      Stubs[I] = A.newLabel();
    A.brTable(ScratchGp2, Stubs);
    for (size_t I = 0; I < Depths.size(); ++I) {
      A.bind(Stubs[I]);
      Control &C = Ctrl[Ctrl.size() - 1 - Depths[I]];
      uint32_t Arity = uint32_t(
          (C.Kind == Opcode::Loop ? C.Params : C.Results).size());
      uint32_t SrcBase = operandCount() - Arity;
      for (uint32_t J = 0; J < Arity; ++J) {
        uint32_t Src = NumLocals + SrcBase + J;
        uint32_t Dst = NumLocals + C.Base + J;
        if (Src == Dst)
          continue;
        A.emit(MOp::LdSlot, ScratchGp, 0, 0, 0, int64_t(Src));
        A.emit(MOp::StSlot, ScratchGp, 0, 0, 0, int64_t(Dst));
        if (modeCoversSlot(Dst)) {
          A.emit(MOp::StTag, uint8_t(Vals[Src].Type), 0, 0, 0, int64_t(Dst));
          ++Code.Stats.TagStores;
        }
      }
      if (C.Kind == Opcode::Loop) {
        A.jmp(C.Head);
      } else {
        C.EndTargeted = true;
        A.jmp(C.End);
      }
    }
    Live = false;
    return;
  }

  case Opcode::Return:
    emitReturn();
    Live = false;
    return;

  case Opcode::Call: {
    uint32_t Idx = R.readU32();
    compileCall(M.funcType(Idx), /*Indirect=*/false, Idx);
    return;
  }
  case Opcode::CallIndirect: {
    uint32_t TypeIdx = R.readU32();
    (void)R.readU32(); // Table index (0).
    compileCall(M.Types[TypeIdx], /*Indirect=*/true, TypeIdx);
    return;
  }

  case Opcode::Drop:
    popOperand();
    return;
  case Opcode::Select:
  case Opcode::SelectT:
    compileSelect(Op);
    return;

  case Opcode::LocalGet: {
    uint32_t Idx = R.readU32();
    AVal &L = Vals[Idx];
    if (L.isConst()) {
      AVal V;
      V.Flags = AVal::IsConst;
      V.Type = L.Type;
      V.Konst = L.Konst;
      pushOperand(V);
      return;
    }
    if (L.inReg()) {
      if (Opts.MultiRegister) {
        pushReg(L.Type, L.R);
        return;
      }
      Reg Rd = allocReg(L.Type, pin(L.R));
      A.emit(isFp(L.Type) ? MOp::MovFF : MOp::MovRR, Rd, L.R);
      pushReg(L.Type, Rd);
      return;
    }
    // In memory: load, and (with MR) also cache the local itself.
    Reg Rd = allocReg(L.Type);
    A.emit(isFp(L.Type) ? MOp::LdSlotF : MOp::LdSlot, Rd, 0, 0, 0,
           int64_t(Idx));
    if (Opts.MultiRegister)
      bindReg(Idx, Rd);
    pushReg(L.Type, Rd);
    return;
  }

  case Opcode::LocalSet:
  case Opcode::LocalTee: {
    uint32_t Idx = R.readU32();
    bool IsTee = Op == Opcode::LocalTee;
    AVal T = Vals[topSlot()];
    clearReg(Idx);
    AVal &L = Vals[Idx];
    L.Flags &= ~(AVal::InMem | AVal::IsConst);
    if (T.isConst()) {
      L.Flags |= AVal::IsConst;
      L.Konst = T.Konst;
      if (!IsTee)
        popOperand();
    } else if (T.inReg()) {
      if (IsTee) {
        if (Opts.MultiRegister) {
          bindReg(Idx, T.R);
        } else {
          Reg Rd = allocReg(L.Type, pin(T.R));
          A.emit(isFp(L.Type) ? MOp::MovFF : MOp::MovRR, Rd, T.R);
          bindReg(Idx, Rd);
        }
      } else {
        // Rebind the top's register to the local.
        clearReg(topSlot());
        Vals.pop_back();
        bindReg(Idx, T.R);
      }
    } else {
      // Top is only in memory: load it into a register for the local.
      Reg Rd = ensureInReg(topSlot());
      if (IsTee) {
        if (Opts.MultiRegister) {
          bindReg(Idx, Rd);
        } else {
          Reg Rd2 = allocReg(L.Type, pin(Rd));
          A.emit(isFp(L.Type) ? MOp::MovFF : MOp::MovRR, Rd2, Rd);
          bindReg(Idx, Rd2);
        }
      } else {
        clearReg(topSlot());
        Vals.pop_back();
        bindReg(Idx, Rd);
      }
    }
    eagerTagOnDef(Idx);
    return;
  }

  case Opcode::GlobalGet: {
    uint32_t Idx = R.readU32();
    ValType T = M.Globals[Idx].Type;
    Reg Rd = allocReg(T);
    A.emit(isFp(T) ? MOp::GlobGetF : MOp::GlobGet, Rd, 0, 0, 0, int64_t(Idx));
    pushReg(T, Rd);
    return;
  }
  case Opcode::GlobalSet: {
    uint32_t Idx = R.readU32();
    ValType T = M.Globals[Idx].Type;
    Reg Rv = ensureInReg(topSlot());
    popOperand();
    A.emit(isFp(T) ? MOp::GlobSetF : MOp::GlobSet, Rv, 0, 0, 0, int64_t(Idx));
    return;
  }

  case Opcode::I32Const:
    pushConst(ValType::I32, uint64_t(uint32_t(R.readS32())));
    return;
  case Opcode::I64Const:
    pushConst(ValType::I64, uint64_t(R.readS64()));
    return;
  case Opcode::F32Const:
    pushConst(ValType::F32, R.readF32Bits());
    return;
  case Opcode::F64Const:
    pushConst(ValType::F64, R.readF64Bits());
    return;

  case Opcode::MemorySize: {
    (void)R.readByte();
    Reg Rd = allocReg(ValType::I32);
    A.emit(MOp::MemSize, Rd);
    pushReg(ValType::I32, Rd);
    return;
  }
  case Opcode::MemoryGrow: {
    (void)R.readByte();
    Reg Ra = ensureInReg(topSlot());
    popOperand();
    Reg Rd = allocRegPrefer(ValType::I32, Ra);
    A.emit(MOp::MemGrow, Rd, Ra);
    pushReg(ValType::I32, Rd);
    return;
  }
  case Opcode::MemoryCopy: {
    (void)R.readByte();
    (void)R.readByte();
    flushTagsForTrap();
    Reg Rl = ensureInReg(topSlot());
    Reg Rs = ensureInReg(topSlot() - 1, pin(Rl));
    Reg Rd = ensureInReg(topSlot() - 2, uint16_t(pin(Rl) | pin(Rs)));
    popOperand();
    popOperand();
    popOperand();
    A.emit(MOp::MemCopy, Rd, Rs, Rl);
    return;
  }
  case Opcode::MemoryFill: {
    (void)R.readByte();
    flushTagsForTrap();
    Reg Rl = ensureInReg(topSlot());
    Reg Rv = ensureInReg(topSlot() - 1, pin(Rl));
    Reg Rd = ensureInReg(topSlot() - 2, uint16_t(pin(Rl) | pin(Rv)));
    popOperand();
    popOperand();
    popOperand();
    A.emit(MOp::MemFill, Rd, Rv, Rl);
    return;
  }

  case Opcode::RefNull: {
    uint8_t HeapTy = R.readByte();
    pushConst(HeapTy == 0x70 ? ValType::FuncRef : ValType::ExternRef, 0);
    return;
  }
  case Opcode::RefIsNull: {
    Reg Ra = ensureInReg(topSlot());
    popOperand();
    Reg Rd = allocRegPrefer(ValType::I32, Ra);
    A.emit(MOp::Eqz64, Rd, Ra);
    pushReg(ValType::I32, Rd);
    return;
  }
  case Opcode::RefFunc: {
    uint32_t Idx = R.readU32();
    pushConst(ValType::FuncRef, uint64_t(Idx) + 1);
    return;
  }

  default:
    break;
  }

  // Comparison, arithmetic, conversion and memory families.
  using V = ValType;
  switch (Op) {
  // --- i32 compares ---
  case Opcode::I32Eqz: {
    // eqz is a compare against 0 so the peephole can fuse it.
    AVal Av = Vals[topSlot()];
    if (Opts.ConstantFolding && Av.isConst()) {
      popOperand();
      pushConst(V::I32, uint32_t(Av.Konst) == 0);
      return;
    }
    Reg Ra = ensureInReg(topSlot());
    popOperand();
    Reg Rd = allocRegPrefer(V::I32, Ra);
    PendingCmp P;
    P.InstPc = A.emit(MOp::CmpSetI32, Rd, Ra, 0, uint8_t(Cond::Eq), 0);
    P.Lhs = Ra;
    P.RhsIsImm = true;
    P.Imm = 0;
    P.C = Cond::Eq;
    pushReg(V::I32, Rd);
    P.Valid = Opts.Peephole;
    P.DstSlot = topSlot();
    P.Gen = StackGen;
    LastCmp = P;
    return;
  }
  case Opcode::I32Eq:
    compileCmp(false, Cond::Eq);
    return;
  case Opcode::I32Ne:
    compileCmp(false, Cond::Ne);
    return;
  case Opcode::I32LtS:
    compileCmp(false, Cond::LtS);
    return;
  case Opcode::I32LtU:
    compileCmp(false, Cond::LtU);
    return;
  case Opcode::I32GtS:
    compileCmp(false, Cond::GtS);
    return;
  case Opcode::I32GtU:
    compileCmp(false, Cond::GtU);
    return;
  case Opcode::I32LeS:
    compileCmp(false, Cond::LeS);
    return;
  case Opcode::I32LeU:
    compileCmp(false, Cond::LeU);
    return;
  case Opcode::I32GeS:
    compileCmp(false, Cond::GeS);
    return;
  case Opcode::I32GeU:
    compileCmp(false, Cond::GeU);
    return;
  case Opcode::I64Eqz: {
    AVal Av = Vals[topSlot()];
    if (Opts.ConstantFolding && Av.isConst()) {
      popOperand();
      pushConst(V::I32, Av.Konst == 0);
      return;
    }
    Reg Ra = ensureInReg(topSlot());
    popOperand();
    Reg Rd = allocRegPrefer(V::I32, Ra);
    PendingCmp P;
    P.InstPc = A.emit(MOp::CmpSetI64, Rd, Ra, 0, uint8_t(Cond::Eq), 0);
    P.Is64 = true;
    P.Lhs = Ra;
    P.RhsIsImm = true;
    P.Imm = 0;
    P.C = Cond::Eq;
    pushReg(V::I32, Rd);
    P.Valid = Opts.Peephole;
    P.DstSlot = topSlot();
    P.Gen = StackGen;
    LastCmp = P;
    return;
  }
  case Opcode::I64Eq:
    compileCmp(true, Cond::Eq);
    return;
  case Opcode::I64Ne:
    compileCmp(true, Cond::Ne);
    return;
  case Opcode::I64LtS:
    compileCmp(true, Cond::LtS);
    return;
  case Opcode::I64LtU:
    compileCmp(true, Cond::LtU);
    return;
  case Opcode::I64GtS:
    compileCmp(true, Cond::GtS);
    return;
  case Opcode::I64GtU:
    compileCmp(true, Cond::GtU);
    return;
  case Opcode::I64LeS:
    compileCmp(true, Cond::LeS);
    return;
  case Opcode::I64LeU:
    compileCmp(true, Cond::LeU);
    return;
  case Opcode::I64GeS:
    compileCmp(true, Cond::GeS);
    return;
  case Opcode::I64GeU:
    compileCmp(true, Cond::GeU);
    return;
  case Opcode::F32Eq:
    compileCmpF(false, FCond::Eq);
    return;
  case Opcode::F32Ne:
    compileCmpF(false, FCond::Ne);
    return;
  case Opcode::F32Lt:
    compileCmpF(false, FCond::Lt);
    return;
  case Opcode::F32Gt:
    compileCmpF(false, FCond::Gt);
    return;
  case Opcode::F32Le:
    compileCmpF(false, FCond::Le);
    return;
  case Opcode::F32Ge:
    compileCmpF(false, FCond::Ge);
    return;
  case Opcode::F64Eq:
    compileCmpF(true, FCond::Eq);
    return;
  case Opcode::F64Ne:
    compileCmpF(true, FCond::Ne);
    return;
  case Opcode::F64Lt:
    compileCmpF(true, FCond::Lt);
    return;
  case Opcode::F64Gt:
    compileCmpF(true, FCond::Gt);
    return;
  case Opcode::F64Le:
    compileCmpF(true, FCond::Le);
    return;
  case Opcode::F64Ge:
    compileCmpF(true, FCond::Ge);
    return;

  // --- i32 arithmetic ---
  case Opcode::I32Add:
    compileBinop(Op, V::I32, V::I32, MOp::Add32, MOp::AddI32, true);
    return;
  case Opcode::I32Sub:
    compileBinop(Op, V::I32, V::I32, MOp::Sub32, MOp::Nop, false);
    return;
  case Opcode::I32Mul:
    compileBinop(Op, V::I32, V::I32, MOp::Mul32, MOp::MulI32, true);
    return;
  case Opcode::I32DivS:
    compileDivRem(Op, false, MOp::DivS32);
    return;
  case Opcode::I32DivU:
    compileDivRem(Op, false, MOp::DivU32);
    return;
  case Opcode::I32RemS:
    compileDivRem(Op, false, MOp::RemS32);
    return;
  case Opcode::I32RemU:
    compileDivRem(Op, false, MOp::RemU32);
    return;
  case Opcode::I32And:
    compileBinop(Op, V::I32, V::I32, MOp::And32, MOp::AndI32, true);
    return;
  case Opcode::I32Or:
    compileBinop(Op, V::I32, V::I32, MOp::Or32, MOp::OrI32, true);
    return;
  case Opcode::I32Xor:
    compileBinop(Op, V::I32, V::I32, MOp::Xor32, MOp::XorI32, true);
    return;
  case Opcode::I32Shl:
    compileBinop(Op, V::I32, V::I32, MOp::Shl32, MOp::ShlI32, false);
    return;
  case Opcode::I32ShrS:
    compileBinop(Op, V::I32, V::I32, MOp::ShrS32, MOp::ShrSI32, false);
    return;
  case Opcode::I32ShrU:
    compileBinop(Op, V::I32, V::I32, MOp::ShrU32, MOp::ShrUI32, false);
    return;
  case Opcode::I32Rotl:
    compileBinop(Op, V::I32, V::I32, MOp::Rotl32, MOp::Nop, false);
    return;
  case Opcode::I32Rotr:
    compileBinop(Op, V::I32, V::I32, MOp::Rotr32, MOp::Nop, false);
    return;
  case Opcode::I32Clz:
    compileUnop(Op, V::I32, V::I32, MOp::Clz32);
    return;
  case Opcode::I32Ctz:
    compileUnop(Op, V::I32, V::I32, MOp::Ctz32);
    return;
  case Opcode::I32Popcnt:
    compileUnop(Op, V::I32, V::I32, MOp::Popcnt32);
    return;

  // --- i64 arithmetic ---
  case Opcode::I64Add:
    compileBinop(Op, V::I64, V::I64, MOp::Add64, MOp::AddI64, true);
    return;
  case Opcode::I64Sub:
    compileBinop(Op, V::I64, V::I64, MOp::Sub64, MOp::Nop, false);
    return;
  case Opcode::I64Mul:
    compileBinop(Op, V::I64, V::I64, MOp::Mul64, MOp::MulI64, true);
    return;
  case Opcode::I64DivS:
    compileDivRem(Op, true, MOp::DivS64);
    return;
  case Opcode::I64DivU:
    compileDivRem(Op, true, MOp::DivU64);
    return;
  case Opcode::I64RemS:
    compileDivRem(Op, true, MOp::RemS64);
    return;
  case Opcode::I64RemU:
    compileDivRem(Op, true, MOp::RemU64);
    return;
  case Opcode::I64And:
    compileBinop(Op, V::I64, V::I64, MOp::And64, MOp::AndI64, true);
    return;
  case Opcode::I64Or:
    compileBinop(Op, V::I64, V::I64, MOp::Or64, MOp::OrI64, true);
    return;
  case Opcode::I64Xor:
    compileBinop(Op, V::I64, V::I64, MOp::Xor64, MOp::XorI64, true);
    return;
  case Opcode::I64Shl:
    compileBinop(Op, V::I64, V::I64, MOp::Shl64, MOp::ShlI64, false);
    return;
  case Opcode::I64ShrS:
    compileBinop(Op, V::I64, V::I64, MOp::ShrS64, MOp::ShrSI64, false);
    return;
  case Opcode::I64ShrU:
    compileBinop(Op, V::I64, V::I64, MOp::ShrU64, MOp::ShrUI64, false);
    return;
  case Opcode::I64Rotl:
    compileBinop(Op, V::I64, V::I64, MOp::Rotl64, MOp::Nop, false);
    return;
  case Opcode::I64Rotr:
    compileBinop(Op, V::I64, V::I64, MOp::Rotr64, MOp::Nop, false);
    return;
  case Opcode::I64Clz:
    compileUnop(Op, V::I64, V::I64, MOp::Clz64);
    return;
  case Opcode::I64Ctz:
    compileUnop(Op, V::I64, V::I64, MOp::Ctz64);
    return;
  case Opcode::I64Popcnt:
    compileUnop(Op, V::I64, V::I64, MOp::Popcnt64);
    return;

  // --- float arithmetic ---
  case Opcode::F32Add:
    compileBinop(Op, V::F32, V::F32, MOp::AddF32, MOp::Nop, false);
    return;
  case Opcode::F32Sub:
    compileBinop(Op, V::F32, V::F32, MOp::SubF32, MOp::Nop, false);
    return;
  case Opcode::F32Mul:
    compileBinop(Op, V::F32, V::F32, MOp::MulF32, MOp::Nop, false);
    return;
  case Opcode::F32Div:
    compileBinop(Op, V::F32, V::F32, MOp::DivF32, MOp::Nop, false);
    return;
  case Opcode::F32Min:
    compileBinop(Op, V::F32, V::F32, MOp::MinF32, MOp::Nop, false);
    return;
  case Opcode::F32Max:
    compileBinop(Op, V::F32, V::F32, MOp::MaxF32, MOp::Nop, false);
    return;
  case Opcode::F32Copysign:
    compileBinop(Op, V::F32, V::F32, MOp::CopysignF32, MOp::Nop, false);
    return;
  case Opcode::F32Abs:
    compileUnop(Op, V::F32, V::F32, MOp::AbsF32);
    return;
  case Opcode::F32Neg:
    compileUnop(Op, V::F32, V::F32, MOp::NegF32);
    return;
  case Opcode::F32Ceil:
    compileUnop(Op, V::F32, V::F32, MOp::CeilF32);
    return;
  case Opcode::F32Floor:
    compileUnop(Op, V::F32, V::F32, MOp::FloorF32);
    return;
  case Opcode::F32Trunc:
    compileUnop(Op, V::F32, V::F32, MOp::TruncF32);
    return;
  case Opcode::F32Nearest:
    compileUnop(Op, V::F32, V::F32, MOp::NearestF32);
    return;
  case Opcode::F32Sqrt:
    compileUnop(Op, V::F32, V::F32, MOp::SqrtF32);
    return;
  case Opcode::F64Add:
    compileBinop(Op, V::F64, V::F64, MOp::AddF64, MOp::Nop, false);
    return;
  case Opcode::F64Sub:
    compileBinop(Op, V::F64, V::F64, MOp::SubF64, MOp::Nop, false);
    return;
  case Opcode::F64Mul:
    compileBinop(Op, V::F64, V::F64, MOp::MulF64, MOp::Nop, false);
    return;
  case Opcode::F64Div:
    compileBinop(Op, V::F64, V::F64, MOp::DivF64, MOp::Nop, false);
    return;
  case Opcode::F64Min:
    compileBinop(Op, V::F64, V::F64, MOp::MinF64, MOp::Nop, false);
    return;
  case Opcode::F64Max:
    compileBinop(Op, V::F64, V::F64, MOp::MaxF64, MOp::Nop, false);
    return;
  case Opcode::F64Copysign:
    compileBinop(Op, V::F64, V::F64, MOp::CopysignF64, MOp::Nop, false);
    return;
  case Opcode::F64Abs:
    compileUnop(Op, V::F64, V::F64, MOp::AbsF64);
    return;
  case Opcode::F64Neg:
    compileUnop(Op, V::F64, V::F64, MOp::NegF64);
    return;
  case Opcode::F64Ceil:
    compileUnop(Op, V::F64, V::F64, MOp::CeilF64);
    return;
  case Opcode::F64Floor:
    compileUnop(Op, V::F64, V::F64, MOp::FloorF64);
    return;
  case Opcode::F64Trunc:
    compileUnop(Op, V::F64, V::F64, MOp::TruncF64);
    return;
  case Opcode::F64Nearest:
    compileUnop(Op, V::F64, V::F64, MOp::NearestF64);
    return;
  case Opcode::F64Sqrt:
    compileUnop(Op, V::F64, V::F64, MOp::SqrtF64);
    return;

  // --- conversions ---
  case Opcode::I32WrapI64:
    compileUnop(Op, V::I64, V::I32, MOp::Wrap64);
    return;
  case Opcode::I64ExtendI32S:
    compileUnop(Op, V::I32, V::I64, MOp::ExtS3264);
    return;
  case Opcode::I64ExtendI32U:
    compileUnop(Op, V::I32, V::I64, MOp::Wrap64);
    return;
  case Opcode::I32Extend8S:
    compileUnop(Op, V::I32, V::I32, MOp::Ext8S32);
    return;
  case Opcode::I32Extend16S:
    compileUnop(Op, V::I32, V::I32, MOp::Ext16S32);
    return;
  case Opcode::I64Extend8S:
    compileUnop(Op, V::I64, V::I64, MOp::Ext8S64);
    return;
  case Opcode::I64Extend16S:
    compileUnop(Op, V::I64, V::I64, MOp::Ext16S64);
    return;
  case Opcode::I64Extend32S:
    compileUnop(Op, V::I64, V::I64, MOp::Ext32S64);
    return;
  case Opcode::I32TruncF32S:
    flushTagsForTrap();
    compileUnop(Op, V::F32, V::I32, MOp::TruncF32I32S);
    return;
  case Opcode::I32TruncF32U:
    flushTagsForTrap();
    compileUnop(Op, V::F32, V::I32, MOp::TruncF32I32U);
    return;
  case Opcode::I32TruncF64S:
    flushTagsForTrap();
    compileUnop(Op, V::F64, V::I32, MOp::TruncF64I32S);
    return;
  case Opcode::I32TruncF64U:
    flushTagsForTrap();
    compileUnop(Op, V::F64, V::I32, MOp::TruncF64I32U);
    return;
  case Opcode::I64TruncF32S:
    flushTagsForTrap();
    compileUnop(Op, V::F32, V::I64, MOp::TruncF32I64S);
    return;
  case Opcode::I64TruncF32U:
    flushTagsForTrap();
    compileUnop(Op, V::F32, V::I64, MOp::TruncF32I64U);
    return;
  case Opcode::I64TruncF64S:
    flushTagsForTrap();
    compileUnop(Op, V::F64, V::I64, MOp::TruncF64I64S);
    return;
  case Opcode::I64TruncF64U:
    flushTagsForTrap();
    compileUnop(Op, V::F64, V::I64, MOp::TruncF64I64U);
    return;
  case Opcode::I32TruncSatF32S:
    compileUnop(Op, V::F32, V::I32, MOp::TruncSatF32I32S);
    return;
  case Opcode::I32TruncSatF32U:
    compileUnop(Op, V::F32, V::I32, MOp::TruncSatF32I32U);
    return;
  case Opcode::I32TruncSatF64S:
    compileUnop(Op, V::F64, V::I32, MOp::TruncSatF64I32S);
    return;
  case Opcode::I32TruncSatF64U:
    compileUnop(Op, V::F64, V::I32, MOp::TruncSatF64I32U);
    return;
  case Opcode::I64TruncSatF32S:
    compileUnop(Op, V::F32, V::I64, MOp::TruncSatF32I64S);
    return;
  case Opcode::I64TruncSatF32U:
    compileUnop(Op, V::F32, V::I64, MOp::TruncSatF32I64U);
    return;
  case Opcode::I64TruncSatF64S:
    compileUnop(Op, V::F64, V::I64, MOp::TruncSatF64I64S);
    return;
  case Opcode::I64TruncSatF64U:
    compileUnop(Op, V::F64, V::I64, MOp::TruncSatF64I64U);
    return;
  case Opcode::F32ConvertI32S:
    compileUnop(Op, V::I32, V::F32, MOp::ConvI32SF32);
    return;
  case Opcode::F32ConvertI32U:
    compileUnop(Op, V::I32, V::F32, MOp::ConvI32UF32);
    return;
  case Opcode::F32ConvertI64S:
    compileUnop(Op, V::I64, V::F32, MOp::ConvI64SF32);
    return;
  case Opcode::F32ConvertI64U:
    compileUnop(Op, V::I64, V::F32, MOp::ConvI64UF32);
    return;
  case Opcode::F64ConvertI32S:
    compileUnop(Op, V::I32, V::F64, MOp::ConvI32SF64);
    return;
  case Opcode::F64ConvertI32U:
    compileUnop(Op, V::I32, V::F64, MOp::ConvI32UF64);
    return;
  case Opcode::F64ConvertI64S:
    compileUnop(Op, V::I64, V::F64, MOp::ConvI64SF64);
    return;
  case Opcode::F64ConvertI64U:
    compileUnop(Op, V::I64, V::F64, MOp::ConvI64UF64);
    return;
  case Opcode::F32DemoteF64:
    compileUnop(Op, V::F64, V::F32, MOp::DemoteF64);
    return;
  case Opcode::F64PromoteF32:
    compileUnop(Op, V::F32, V::F64, MOp::PromoteF32);
    return;
  case Opcode::I32ReinterpretF32:
    compileUnop(Op, V::F32, V::I32, MOp::RintFG32);
    return;
  case Opcode::I64ReinterpretF64:
    compileUnop(Op, V::F64, V::I64, MOp::RintFG64);
    return;
  case Opcode::F32ReinterpretI32:
    compileUnop(Op, V::I32, V::F32, MOp::RintGF32);
    return;
  case Opcode::F64ReinterpretI64:
    compileUnop(Op, V::I64, V::F64, MOp::RintGF64);
    return;

  // --- memory ---
  case Opcode::I32Load:
    compileLoad(MOp::LdM32, V::I32);
    return;
  case Opcode::I64Load:
    compileLoad(MOp::LdM64, V::I64);
    return;
  case Opcode::F32Load:
    compileLoad(MOp::LdMF32, V::F32);
    return;
  case Opcode::F64Load:
    compileLoad(MOp::LdMF64, V::F64);
    return;
  case Opcode::I32Load8S:
    compileLoad(MOp::LdM8S32, V::I32);
    return;
  case Opcode::I32Load8U:
    compileLoad(MOp::LdM8U32, V::I32);
    return;
  case Opcode::I32Load16S:
    compileLoad(MOp::LdM16S32, V::I32);
    return;
  case Opcode::I32Load16U:
    compileLoad(MOp::LdM16U32, V::I32);
    return;
  case Opcode::I64Load8S:
    compileLoad(MOp::LdM8S64, V::I64);
    return;
  case Opcode::I64Load8U:
    compileLoad(MOp::LdM8U64, V::I64);
    return;
  case Opcode::I64Load16S:
    compileLoad(MOp::LdM16S64, V::I64);
    return;
  case Opcode::I64Load16U:
    compileLoad(MOp::LdM16U64, V::I64);
    return;
  case Opcode::I64Load32S:
    compileLoad(MOp::LdM32S64, V::I64);
    return;
  case Opcode::I64Load32U:
    compileLoad(MOp::LdM32U64, V::I64);
    return;
  case Opcode::I32Store:
    compileStore(MOp::StM32);
    return;
  case Opcode::I64Store:
    compileStore(MOp::StM64);
    return;
  case Opcode::F32Store:
    compileStore(MOp::StMF32);
    return;
  case Opcode::F64Store:
    compileStore(MOp::StMF64);
    return;
  case Opcode::I32Store8:
    compileStore(MOp::StM8);
    return;
  case Opcode::I32Store16:
    compileStore(MOp::StM16);
    return;
  case Opcode::I64Store8:
    compileStore(MOp::StM8);
    return;
  case Opcode::I64Store16:
    compileStore(MOp::StM16);
    return;
  case Opcode::I64Store32:
    compileStore(MOp::StM32);
    return;

  default:
    assert(false && "unhandled opcode in single-pass compiler");
    A.emit(MOp::TrapOp, 0, 0, 0, 0, int64_t(TrapReason::Unreachable));
    Live = false;
    return;
  }
}

void SPC::run() {
  prologue();
  while (R.pc() < F.BodyEnd) {
    uint32_t OpIp = uint32_t(R.pc());
    Opcode Op = R.readOpcode();
    if (!Live) {
      skipDeadOp(Op);
      continue;
    }
    // Probe sites are observation points compiled before the instruction.
    if (Probes)
      handleProbe(OpIp);
    Code.noteLine(OpIp);
    compileOp(Op, OpIp);
  }
  assert(Ctrl.empty() && "unbalanced control stack");
  Code.Stats.CodeInsts = Code.Insts.size();
}

} // namespace

std::unique_ptr<MCode> wisp::compileFunction(const Module &M,
                                             const FuncDecl &F,
                                             const CompilerOptions &Opts,
                                             const ProbeSiteOracle *Probes) {
  auto Code = std::make_unique<MCode>();
  SPC Compiler(M, F, Opts, Probes, *Code);
  Compiler.run();
  return Code;
}
