//===- opt/optcompiler.cpp - IR-based optimizing compiler -------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Pipeline: bytecode -> linear IR over virtual registers (with constant
// folding, per-block CSE and local.set coalescing during construction) ->
// use-count DCE -> linear-scan register allocation over [def, last use]
// intervals, where only values live into a loop are extended to its end
// (intervals live across calls are spilled: every machine register is
// caller-saved) -> machine code emission with compare+branch fusion
// (register and immediate compares).
//
// IR conventions:
//  * one virtual register per local (multiple defs, non-SSA); stack values
//    get fresh single-def vregs, so constants propagate safely on them.
//  * local.set of a temporary that the previous instruction defined
//    retargets that instruction to the local's vreg instead of moving.
//  * control merges copy stack vregs into pre-created merge vregs at the
//    edges; locals need no merge handling at all.
//  * calls stage arguments into value-stack slots per the engine calling
//    convention; the staging base is patched after spill-slot counts are
//    known.
//
//===----------------------------------------------------------------------===//

#include "opt/optcompiler.h"

#include "machine/assembler.h"
#include "runtime/numerics.h"
#include "wasm/codereader.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

using namespace wisp;

namespace {

constexpr int NoVreg = -1;

/// One linear IR instruction. Special pseudo-ops:
///  * IsLabel: a jump target (Imm = label id).
///  * ArgStage/ResStage: StSlot whose final slot index is ArgRel relative
///    to the staging base (patched after regalloc).
struct IRInst {
  MOp Op = MOp::Nop;
  int Dst = NoVreg;
  int A = NoVreg;
  int B = NoVreg;
  uint8_t D = 0;
  int64_t Imm = 0;
  int64_t Imm2 = 0;
  bool IsLabel = false;
  bool SideEffect = false;
  bool IsCall = false;
  bool ArgRel = false; ///< Imm is relative to the call staging base.
  bool Dead = false;
};

struct VregInfo {
  ValType Ty = ValType::I32;
  bool HasConst = false;
  bool MultiDef = false; ///< Merge or select vreg: assigned at several sites.
  uint64_t Konst = 0;
  uint32_t Uses = 0;
  // Live interval (instruction indexes, post-DCE renumbering not needed:
  // positions are stable because DCE only marks).
  int Start = -1;
  int End = -1;
  // Allocation result.
  Reg R = NoReg;
  int SpillSlot = -1;
  bool CrossesCall = false;
};

class OptCompiler {
public:
  OptCompiler(const Module &M, const FuncDecl &F, MCode &Code)
      : M(M), F(F), Code(Code),
        R(M.Bytes.data(), F.BodyStart, F.BodyEnd) {
    NumLocals = F.numLocalSlots();
  }

  void run();

  /// Governance checks at loop headers (same placement as the SPC).
  bool EmitFuelChecks = false;

private:
  // --- IR building ---
  int newVreg(ValType Ty) {
    Vregs.push_back(VregInfo{Ty});
    Versions.push_back(0);
    return int(Vregs.size()) - 1;
  }
  int newMultiDefVreg(ValType Ty) {
    int V = newVreg(Ty);
    Vregs[uint32_t(V)].MultiDef = true;
    return V;
  }
  /// Records a (re)definition of a vreg; value numbering keys include the
  /// version so stale entries never match (locals are multi-def).
  void defBump(int V) {
    if (V >= 0)
      ++Versions[uint32_t(V)];
  }
  int emit(MOp Op, int Dst, int A, int B, uint8_t D = 0, int64_t Imm = 0,
           int64_t Imm2 = 0) {
    IRInst I;
    I.Op = Op;
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    I.D = D;
    I.Imm = Imm;
    I.Imm2 = Imm2;
    defBump(Dst);
    Insts.push_back(I);
    return int(Insts.size()) - 1;
  }
  int newLabel() {
    LabelCount++;
    return LabelCount - 1;
  }
  void placeLabel(int L) {
    IRInst I;
    I.IsLabel = true;
    I.Imm = L;
    Insts.push_back(I);
    // All value-numbering state is per extended block: a definition made
    // on one incoming path does not dominate the code after a label.
    CSE.clear();
    LoadCSE.clear();
    ConstCSE.clear();
  }
  int emitConst(ValType Ty, uint64_t Bits) {
    // CSE constants per block.
    CseKey Key = constKey(Ty, Bits);
    auto It = ConstCSE.find(Key);
    if (It != ConstCSE.end())
      return It->second;
    int V = newVreg(Ty);
    Vregs[V].HasConst = true;
    Vregs[V].Konst = Bits;
    emit(isFloatType(Ty) ? MOp::MovFI : MOp::MovRI, V, NoVreg, NoVreg, 0,
         int64_t(Bits));
    ConstCSE[Key] = V;
    return V;
  }

  void push(int V) { Stack.push_back(V); }
  int pop() {
    int V = Stack.back();
    Stack.pop_back();
    return V;
  }

  /// Copies \p V into a fresh temporary and rewrites every operand-stack
  /// entry equal to it. No-op if V is not on the stack.
  void rescueStackAlias(int V) {
    size_t First = 0;
    while (First < Stack.size() && Stack[First] != V)
      ++First;
    if (First == Stack.size())
      return;
    ValType Ty = Vregs[uint32_t(V)].Ty;
    int Copy = newVreg(Ty);
    IRInst Cp;
    Cp.Op = isFloatType(Ty) ? MOp::MovFF : MOp::MovRR;
    Cp.Dst = Copy;
    Cp.A = V;
    // No SideEffect: if nothing ends up reading the rescued entry, dead
    // code elimination is free to drop the copy.
    defBump(Copy);
    Insts.push_back(Cp);
    for (size_t J = First; J < Stack.size(); ++J)
      if (Stack[J] == V)
        Stack[J] = Copy;
  }

  /// Rescues stack entries aliasing any local that is assigned somewhere
  /// in the function. Called on entry to a control construct: a local.set
  /// inside the construct would clobber entries pushed outside it, and a
  /// rescue emitted at the set site would neither dominate the entry's
  /// later uses nor execute exactly once inside a loop.
  void materializeLocalAliases() {
    // Local vregs are allocated first in run(), so ids 0..NumLocals-1 are
    // exactly the locals: one stack pass suffices.
    for (size_t I = 0; I < Stack.size(); ++I) {
      int V = Stack[I];
      if (V >= 0 && V < int(NumLocals) && LocalEverSet[V])
        rescueStackAlias(V); // Rewrites every occurrence of V.
    }
  }

  struct Ctl {
    Opcode Kind = Opcode::Block;
    bool DeadEntry = false;
    bool ElseSeen = false;
    uint32_t Base = 0;
    bool EndTargeted = false;
    int EndLabel = -1;
    int ElseLabel = -1;
    int HeadLabel = -1;
    std::vector<int> MergeVregs;  ///< Result (or loop param) vregs.
    std::vector<int> SavedStack;  ///< If: stack for the else arm.
    std::vector<ValType> Results;
    int LoopStartPos = -1;
  };

  // --- Construction-time optimizations ---
  bool foldBinop(MOp Op, uint8_t D, uint64_t Av, uint64_t Bv, uint64_t *Out);
  int cseLookupOrEmit(MOp Op, ValType Ty, int A, int B, uint8_t D,
                      int64_t Imm);
  bool coalesceLocalSet(int V, int LV);

  void buildOp(Opcode Op);
  void skipDeadOp(Opcode Op);
  void buildCall(const FuncType &FT, bool Indirect, uint32_t CalleeOrType);
  void emitBranchMoves(Ctl &C, bool IsLoop);
  void buildReturn();

  // --- Passes ---
  void deadCodeElim();
  void computeIntervals();
  void allocate();
  void emitMachine();

  const Module &M;
  const FuncDecl &F;
  MCode &Code;
  CodeReader R;
  uint32_t NumLocals = 0;

  std::vector<IRInst> Insts;
  std::vector<VregInfo> Vregs;
  std::vector<uint32_t> Versions; ///< Def counters for value numbering.
  std::vector<int> Stack; ///< Operand stack of vregs.
  std::vector<int> LocalVreg;
  std::vector<uint8_t> LocalEverSet; ///< Local is assigned in the body.
  std::vector<Ctl> Ctrl;
  int LabelCount = 0;
  bool Live = true;
  uint32_t MaxHeight = 0;

  // Per-block CSE tables.
  struct CseKey {
    uint64_t K0, K1, K2;
    bool operator==(const CseKey &O) const {
      return K0 == O.K0 && K1 == O.K1 && K2 == O.K2;
    }
  };
  struct CseHash {
    size_t operator()(const CseKey &K) const {
      return size_t((K.K0 * 1099511628211ull ^ K.K1) * 1099511628211ull ^
                    K.K2);
    }
  };
  std::unordered_map<CseKey, int, CseHash> CSE;
  std::unordered_map<CseKey, int, CseHash> LoadCSE;
  std::unordered_map<CseKey, int, CseHash> ConstCSE;

  /// Value-numbering keys. Operand versions keep entries for multi-def
  /// locals from matching after a redefinition.
  CseKey cseKey(MOp Op, int A, int B, uint8_t D, int64_t Imm) const {
    return {uint64_t(Op) | (uint64_t(D) << 16) | (uint64_t(uint32_t(A)) << 32),
            uint64_t(uint32_t(B)) | (uint64_t(Imm) << 32),
            (A >= 0 ? uint64_t(Versions[uint32_t(A)]) : 0) |
                ((B >= 0 ? uint64_t(Versions[uint32_t(B)]) : 0) << 32)};
  }
  static CseKey constKey(ValType Ty, uint64_t Bits) {
    return {Bits, uint64_t(Ty), 0};
  }

  std::vector<std::pair<int, int>> LoopRanges; ///< IR position ranges.
  std::vector<int> CallPositions;
  std::vector<std::vector<int>> BrTableLabels;
  std::vector<int> ThirdOperandIsVreg; ///< MemCopy/Fill positions.
  uint32_t NumSpills = 0;
};

bool OptCompiler::foldBinop(MOp Op, uint8_t D, uint64_t Av, uint64_t Bv,
                            uint64_t *Out) {
  uint32_t A32 = uint32_t(Av), B32 = uint32_t(Bv);
  switch (Op) {
  case MOp::Add32:
    *Out = uint32_t(A32 + B32);
    return true;
  case MOp::Sub32:
    *Out = uint32_t(A32 - B32);
    return true;
  case MOp::Mul32:
    *Out = uint32_t(A32 * B32);
    return true;
  case MOp::And32:
    *Out = A32 & B32;
    return true;
  case MOp::Or32:
    *Out = A32 | B32;
    return true;
  case MOp::Xor32:
    *Out = A32 ^ B32;
    return true;
  case MOp::Shl32:
    *Out = shl32(A32, B32);
    return true;
  case MOp::ShrS32:
    *Out = uint32_t(shrS32(int32_t(A32), B32));
    return true;
  case MOp::ShrU32:
    *Out = shrU32(A32, B32);
    return true;
  case MOp::Add64:
    *Out = Av + Bv;
    return true;
  case MOp::Sub64:
    *Out = Av - Bv;
    return true;
  case MOp::Mul64:
    *Out = Av * Bv;
    return true;
  case MOp::And64:
    *Out = Av & Bv;
    return true;
  case MOp::Or64:
    *Out = Av | Bv;
    return true;
  case MOp::Xor64:
    *Out = Av ^ Bv;
    return true;
  case MOp::CmpSet32:
    *Out = evalCond32(Cond(D), A32, B32);
    return true;
  case MOp::CmpSet64:
    *Out = evalCond64(Cond(D), Av, Bv);
    return true;
  default:
    return false;
  }
}

int OptCompiler::cseLookupOrEmit(MOp Op, ValType Ty, int A, int B, uint8_t D,
                                 int64_t Imm) {
  CseKey Key = cseKey(Op, A, B, D, Imm);
  bool IsLoad = Op >= MOp::LdM8S32 && Op <= MOp::LdMF64;
  auto &Table = IsLoad ? LoadCSE : CSE;
  auto It = Table.find(Key);
  if (It != Table.end())
    return It->second;
  int V = newVreg(Ty);
  emit(Op, V, A, B, D, Imm);
  Table[Key] = V;
  return V;
}

bool OptCompiler::coalesceLocalSet(int V, int LV) {
  // Only a single-def temporary that the previous instruction defined,
  // and that nothing else names, can be renamed: that instruction then
  // writes the local itself and the move disappears.
  if (Insts.empty() || V < int(NumLocals) || Vregs[uint32_t(V)].MultiDef)
    return false;
  IRInst &Def = Insts.back();
  if (Def.Dst != V)
    return false;
  // A stack entry of LV would need a rescue copy before the (now earlier)
  // redefinition; one of V (a CSE hit) would lose its definition.
  auto named = [](const std::vector<int> &Vs, int X) {
    return std::find(Vs.begin(), Vs.end(), X) != Vs.end();
  };
  if (named(Stack, V) || named(Stack, LV))
    return false;
  for (const Ctl &C : Ctrl)
    if (named(C.SavedStack, V))
      return false;
  // Value-numbering entries must not hand out V, which is never defined
  // now.
  auto forget = [V](auto &Table, const CseKey &Key) {
    auto It = Table.find(Key);
    if (It != Table.end() && It->second == V)
      Table.erase(It);
  };
  const VregInfo &Info = Vregs[uint32_t(V)];
  if (Info.HasConst) {
    forget(ConstCSE, constKey(Info.Ty, Info.Konst));
  } else {
    CseKey Key = cseKey(Def.Op, Def.A, Def.B, Def.D, Def.Imm);
    forget(CSE, Key);
    forget(LoadCSE, Key);
  }
  Def.Dst = LV;
  Def.SideEffect = true; // Locals are multi-def; keep all assignments.
  defBump(LV);
  return true;
}

// Maps fixed-signature wasm opcodes to machine ops (shares the scheme of
// the baseline compilers; defined in copypatch.cpp would create a layering
// knot, so it is re-derived here).
static bool mapOp(Opcode Op, MOp *Mo, uint8_t *D);
static MOp immFormOf(MOp Mo);

void OptCompiler::buildCall(const FuncType &FT, bool Indirect,
                            uint32_t CalleeOrType) {
  int IdxV = NoVreg;
  if (Indirect)
    IdxV = pop();
  uint32_t NArgs = uint32_t(FT.Params.size());
  uint32_t HeightAfterArgs = uint32_t(Stack.size()) - NArgs;
  // Stage the arguments into the calling-convention slots.
  for (uint32_t I = 0; I < NArgs; ++I) {
    int V = Stack[HeightAfterArgs + I];
    IRInst S;
    S.Op = isFloatType(Vregs[V].Ty) ? MOp::StSlotF : MOp::StSlot;
    S.A = V;
    S.Imm = int64_t(HeightAfterArgs + I);
    S.ArgRel = true;
    S.SideEffect = true;
    Insts.push_back(S);
  }
  for (uint32_t I = 0; I < NArgs; ++I)
    (void)pop();
  IRInst C;
  C.Op = Indirect ? MOp::CallIndirect : MOp::CallDirect;
  C.A = IdxV;
  C.Imm = int64_t(CalleeOrType);
  C.Imm2 = int64_t(HeightAfterArgs); // Staging-relative; patched later.
  C.ArgRel = true;
  C.SideEffect = true;
  C.IsCall = true;
  CallPositions.push_back(int(Insts.size()));
  Insts.push_back(C);
  // Results come back in the staging slots.
  for (uint32_t I = 0; I < FT.Results.size(); ++I) {
    ValType Ty = FT.Results[I];
    int V = newVreg(Ty);
    IRInst L;
    L.Op = isFloatType(Ty) ? MOp::LdSlotF : MOp::LdSlot;
    L.Dst = V;
    L.Imm = int64_t(HeightAfterArgs + I);
    L.ArgRel = true;
    L.SideEffect = true; // Do not CSE/DCE result loads across calls.
    defBump(V);
    Insts.push_back(L);
    push(V);
  }
  CSE.clear();
  LoadCSE.clear();
  ConstCSE.clear(); // Conservative: constant vregs may be spilled anyway.
}

void OptCompiler::emitBranchMoves(Ctl &C, bool /*IsLoop*/) {
  uint32_t Arity = uint32_t(C.MergeVregs.size());
  uint32_t SrcBase = uint32_t(Stack.size()) - Arity;
  for (uint32_t J = 0; J < Arity; ++J) {
    int Src = Stack[SrcBase + J];
    int Dst = C.MergeVregs[J];
    if (Src == Dst)
      continue;
    IRInst Mv;
    Mv.Op = isFloatType(Vregs[uint32_t(Dst)].Ty) ? MOp::MovFF : MOp::MovRR;
    Mv.Dst = Dst;
    Mv.A = Src;
    Mv.SideEffect = true; // Merge moves must survive DCE.
    defBump(Dst);
    Insts.push_back(Mv);
  }
}

void OptCompiler::buildReturn() {
  const FuncType &FT = M.Types[F.TypeIdx];
  uint32_t NRes = uint32_t(FT.Results.size());
  uint32_t SrcBase = uint32_t(Stack.size()) - NRes;
  for (uint32_t J = 0; J < NRes; ++J) {
    int V = Stack[SrcBase + J];
    IRInst S;
    S.Op = isFloatType(Vregs[uint32_t(V)].Ty) ? MOp::StSlotF : MOp::StSlot;
    S.A = V;
    S.Imm = int64_t(J); // Absolute result slot.
    S.SideEffect = true;
    Insts.push_back(S);
  }
  IRInst Ret;
  Ret.Op = MOp::Ret;
  Ret.SideEffect = true;
  Insts.push_back(Ret);
}

void OptCompiler::skipDeadOp(Opcode Op) {
  switch (Op) {
  case Opcode::Block:
  case Opcode::Loop:
  case Opcode::If: {
    (void)R.readBlockType();
    Ctl C;
    C.Kind = Op;
    C.DeadEntry = true;
    Ctrl.push_back(std::move(C));
    return;
  }
  case Opcode::Else:
    if (Ctrl.back().DeadEntry)
      return;
    buildOp(Op);
    return;
  case Opcode::End:
    if (Ctrl.back().DeadEntry) {
      Ctrl.pop_back();
      return;
    }
    buildOp(Op);
    return;
  default:
    R.skipImms(Op);
    return;
  }
}

void OptCompiler::buildOp(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return;
  case Opcode::Unreachable: {
    IRInst T;
    T.Op = MOp::TrapOp;
    T.Imm = int64_t(TrapReason::Unreachable);
    T.SideEffect = true;
    Insts.push_back(T);
    Live = false;
    return;
  }

  case Opcode::Block:
  case Opcode::Loop: {
    BlockType BT = R.readBlockType();
    materializeLocalAliases();
    Ctl C;
    C.Kind = Op;
    std::vector<ValType> Params;
    if (BT.K == BlockType::OneResult) {
      C.Results.push_back(BT.Result);
    } else if (BT.K == BlockType::FuncTypeIdx) {
      Params = M.Types[BT.TypeIdx].Params;
      C.Results = M.Types[BT.TypeIdx].Results;
    }
    C.Base = uint32_t(Stack.size()) - uint32_t(Params.size());
    C.EndLabel = newLabel();
    if (Op == Opcode::Loop) {
      // Loop params become merge vregs assigned before the header.
      for (ValType T : Params)
        C.MergeVregs.push_back(newMultiDefVreg(T));
      // Move current params into the merge vregs, then rebind the stack.
      for (size_t I = 0; I < Params.size(); ++I) {
        int Src = Stack[C.Base + I];
        IRInst Mv;
        Mv.Op = isFloatType(Params[I]) ? MOp::MovFF : MOp::MovRR;
        Mv.Dst = C.MergeVregs[I];
        Mv.A = Src;
        Mv.SideEffect = true;
        defBump(C.MergeVregs[I]);
        Insts.push_back(Mv);
        Stack[C.Base + I] = C.MergeVregs[I];
      }
      C.HeadLabel = newLabel();
      C.LoopStartPos = int(Insts.size());
      placeLabel(C.HeadLabel);
      if (EmitFuelChecks) {
        // Loop-header fuel charge; SideEffect pins it against DCE, and
        // nothing hoists (LoopRanges only extend live intervals).
        IRInst FC;
        FC.Op = MOp::FuelCheck;
        FC.Imm = int64_t(R.pc());
        FC.SideEffect = true;
        Insts.push_back(FC);
      }
    } else {
      for (ValType T : C.Results)
        C.MergeVregs.push_back(newMultiDefVreg(T));
    }
    Ctrl.push_back(std::move(C));
    return;
  }

  case Opcode::If: {
    BlockType BT = R.readBlockType();
    int CondV = pop();
    materializeLocalAliases();
    Ctl C;
    C.Kind = Opcode::If;
    std::vector<ValType> Params;
    if (BT.K == BlockType::OneResult) {
      C.Results.push_back(BT.Result);
    } else if (BT.K == BlockType::FuncTypeIdx) {
      Params = M.Types[BT.TypeIdx].Params;
      C.Results = M.Types[BT.TypeIdx].Results;
    }
    C.Base = uint32_t(Stack.size()) - uint32_t(Params.size());
    C.EndLabel = newLabel();
    C.ElseLabel = newLabel();
    for (ValType T : C.Results)
      C.MergeVregs.push_back(newMultiDefVreg(T));
    C.SavedStack = Stack;
    if (Vregs[uint32_t(CondV)].HasConst) {
      // Branch folding: pick the live arm statically.
      if (Vregs[uint32_t(CondV)].Konst != 0) {
        C.ElseLabel = -2; // Then-arm live; else dead.
      } else {
        C.ElseLabel = -3; // Else-arm live; then dead.
        Live = false;
      }
      Ctrl.push_back(std::move(C));
      return;
    }
    IRInst Br;
    Br.Op = MOp::JmpIfZ;
    Br.A = CondV;
    Br.Imm = C.ElseLabel;
    Br.SideEffect = true;
    Insts.push_back(Br);
    CSE.clear();
    LoadCSE.clear();
    ConstCSE.clear();
    Ctrl.push_back(std::move(C));
    return;
  }

  case Opcode::Else: {
    Ctl &C = Ctrl.back();
    C.ElseSeen = true;
    if (Live) {
      emitBranchMoves(C, false);
      C.EndTargeted = true;
      IRInst J;
      J.Op = MOp::Jmp;
      J.Imm = C.EndLabel;
      J.SideEffect = true;
      Insts.push_back(J);
    }
    Stack = C.SavedStack;
    if (C.ElseLabel == -2) { // Then was statically chosen.
      Live = false;
      return;
    }
    Live = true;
    if (C.ElseLabel >= 0)
      placeLabel(C.ElseLabel);
    else
      CSE.clear(); // Folded-false: fresh block state anyway.
    return;
  }

  case Opcode::End: {
    Ctl C = std::move(Ctrl.back());
    Ctrl.pop_back();
    if (C.Kind == Opcode::Loop) {
      // Loops have no end merge: branches go to the header, so the body's
      // fallthrough state (or deadness) flows out unchanged.
      if (C.LoopStartPos >= 0)
        LoopRanges.push_back({C.LoopStartPos, int(Insts.size())});
      if (Ctrl.empty()) {
        if (Live)
          buildReturn();
        Live = false;
      }
      return;
    }
    if (C.Kind == Opcode::If && !C.ElseSeen) {
      if (C.ElseLabel == -2) {
        // Folded-true if without else: the then-arm's values become the
        // results.
        if (Live)
          emitBranchMoves(C, false);
      } else if (C.ElseLabel == -3) {
        // Folded-false: only the implicit else (params pass through).
        Stack = C.SavedStack;
        Live = true;
        emitBranchMoves(C, false);
      } else {
        // Real false edge: merge then-arm with the pass-through params.
        if (Live) {
          emitBranchMoves(C, false);
          C.EndTargeted = true;
          IRInst J;
          J.Op = MOp::Jmp;
          J.Imm = C.EndLabel;
          J.SideEffect = true;
          Insts.push_back(J);
        }
        placeLabel(C.ElseLabel);
        Stack = C.SavedStack;
        emitBranchMoves(C, false);
        Live = true;
      }
    } else if (Live) {
      emitBranchMoves(C, false);
    }
    bool AnyIn = Live || C.EndTargeted;
    placeLabel(C.EndLabel);
    Stack.resize(C.Base);
    for (int MV : C.MergeVregs)
      push(MV);
    if (uint32_t(Stack.size()) > MaxHeight)
      MaxHeight = uint32_t(Stack.size());
    Live = AnyIn;
    if (Ctrl.empty()) {
      if (Live)
        buildReturn();
      Live = false;
    }
    return;
  }

  case Opcode::Br: {
    uint32_t Depth = R.readU32();
    Ctl &C = Ctrl[Ctrl.size() - 1 - Depth];
    if (C.Kind == Opcode::Loop) {
      emitBranchMoves(C, true);
      IRInst J;
      J.Op = MOp::Jmp;
      J.Imm = C.HeadLabel;
      J.SideEffect = true;
      Insts.push_back(J);
    } else {
      emitBranchMoves(C, false);
      C.EndTargeted = true;
      IRInst J;
      J.Op = MOp::Jmp;
      J.Imm = C.EndLabel;
      J.SideEffect = true;
      Insts.push_back(J);
    }
    Live = false;
    return;
  }

  case Opcode::BrIf: {
    uint32_t Depth = R.readU32();
    int CondV = pop();
    Ctl &C = Ctrl[Ctrl.size() - 1 - Depth];
    if (Vregs[uint32_t(CondV)].HasConst) {
      if (Vregs[uint32_t(CondV)].Konst != 0) {
        R.setPc(R.pc()); // Fall into the unconditional case.
        // Re-use Br logic:
        if (C.Kind == Opcode::Loop) {
          emitBranchMoves(C, true);
          IRInst J;
          J.Op = MOp::Jmp;
          J.Imm = C.HeadLabel;
          J.SideEffect = true;
          Insts.push_back(J);
        } else {
          emitBranchMoves(C, false);
          C.EndTargeted = true;
          IRInst J;
          J.Op = MOp::Jmp;
          J.Imm = C.EndLabel;
          J.SideEffect = true;
          Insts.push_back(J);
        }
        Live = false;
      }
      return;
    }
    // Taken-edge merge moves behind an inverted branch when needed.
    uint32_t Arity = uint32_t(C.MergeVregs.size());
    bool NeedMoves = false;
    for (uint32_t J = 0; J < Arity; ++J)
      NeedMoves |= Stack[Stack.size() - Arity + J] != C.MergeVregs[J];
    int Target = C.Kind == Opcode::Loop ? C.HeadLabel : C.EndLabel;
    if (C.Kind != Opcode::Loop)
      C.EndTargeted = true;
    if (!NeedMoves) {
      IRInst Br;
      Br.Op = MOp::JmpIf;
      Br.A = CondV;
      Br.Imm = Target;
      Br.SideEffect = true;
      Insts.push_back(Br);
    } else {
      int Skip = newLabel();
      IRInst Br;
      Br.Op = MOp::JmpIfZ;
      Br.A = CondV;
      Br.Imm = Skip;
      Br.SideEffect = true;
      Insts.push_back(Br);
      emitBranchMoves(C, C.Kind == Opcode::Loop);
      IRInst J;
      J.Op = MOp::Jmp;
      J.Imm = Target;
      J.SideEffect = true;
      Insts.push_back(J);
      placeLabel(Skip);
    }
    CSE.clear();
    LoadCSE.clear();
    return;
  }

  case Opcode::BrTable: {
    uint32_t N = R.readU32();
    std::vector<uint32_t> Depths(N + 1);
    for (uint32_t I = 0; I <= N; ++I)
      Depths[I] = R.readU32();
    int IdxV = pop();
    // Stubs per case with merge moves.
    std::vector<int> Stubs(Depths.size());
    for (auto &L : Stubs)
      L = newLabel();
    IRInst BT;
    BT.Op = MOp::BrTable;
    BT.A = IdxV;
    BT.Imm2 = int64_t(Stubs.size());
    // Encode stub labels in a side table carried by Imm (index into
    // BrTableLabels).
    BT.Imm = int64_t(BrTableLabels.size());
    BrTableLabels.push_back(Stubs);
    BT.SideEffect = true;
    Insts.push_back(BT);
    for (size_t I = 0; I < Depths.size(); ++I) {
      placeLabel(Stubs[I]);
      Ctl &C = Ctrl[Ctrl.size() - 1 - Depths[I]];
      bool IsLoop = C.Kind == Opcode::Loop;
      if (!IsLoop)
        C.EndTargeted = true;
      emitBranchMoves(C, IsLoop);
      IRInst J;
      J.Op = MOp::Jmp;
      J.Imm = IsLoop ? C.HeadLabel : C.EndLabel;
      J.SideEffect = true;
      Insts.push_back(J);
    }
    Live = false;
    return;
  }

  case Opcode::Return:
    buildReturn();
    Live = false;
    return;

  case Opcode::Call: {
    uint32_t Idx = R.readU32();
    buildCall(M.funcType(Idx), false, Idx);
    return;
  }
  case Opcode::CallIndirect: {
    uint32_t TypeIdx = R.readU32();
    (void)R.readU32();
    buildCall(M.Types[TypeIdx], true, TypeIdx);
    return;
  }

  case Opcode::Drop:
    (void)pop();
    return;

  case Opcode::Select:
  case Opcode::SelectT: {
    if (Op == Opcode::SelectT) {
      uint32_t N = R.readU32();
      for (uint32_t I = 0; I < N; ++I)
        (void)R.readByte();
    }
    int CondV = pop();
    int Bv = pop();
    int Av = pop();
    if (Vregs[uint32_t(CondV)].HasConst) {
      push(Vregs[uint32_t(CondV)].Konst != 0 ? Av : Bv);
      return;
    }
    ValType Ty = Vregs[uint32_t(Av)].Ty;
    int Dst = newMultiDefVreg(Ty);
    // dst = a; if (!cond) dst = b — expressed with an internal label.
    IRInst Mv;
    Mv.Op = isFloatType(Ty) ? MOp::MovFF : MOp::MovRR;
    Mv.Dst = Dst;
    Mv.A = Av;
    Mv.SideEffect = true;
    defBump(Dst);
    Insts.push_back(Mv);
    int Keep = newLabel();
    IRInst Br;
    Br.Op = MOp::JmpIf;
    Br.A = CondV;
    Br.Imm = Keep;
    Br.SideEffect = true;
    Insts.push_back(Br);
    IRInst Mv2;
    Mv2.Op = Mv.Op;
    Mv2.Dst = Dst;
    Mv2.A = Bv;
    Mv2.SideEffect = true;
    defBump(Dst);
    Insts.push_back(Mv2);
    placeLabel(Keep);
    push(Dst);
    return;
  }

  case Opcode::LocalGet: {
    uint32_t Idx = R.readU32();
    push(LocalVreg[Idx]);
    return;
  }
  case Opcode::LocalSet:
  case Opcode::LocalTee: {
    uint32_t Idx = R.readU32();
    int V = Stack.back();
    if (Op == Opcode::LocalSet)
      (void)pop();
    int LV = LocalVreg[Idx];
    if (Op == Opcode::LocalSet && coalesceLocalSet(V, LV))
      return;
    // Stack entries pushed by an earlier local.get alias the local's vreg;
    // rescue them into a fresh copy before the assignment clobbers LV.
    if (V != LV)
      rescueStackAlias(LV);
    IRInst Mv;
    Mv.Op = isFloatType(F.LocalTypes[Idx]) ? MOp::MovFF : MOp::MovRR;
    Mv.Dst = LV;
    Mv.A = V;
    Mv.SideEffect = true; // Locals are multi-def; keep all assignments.
    defBump(LV);
    Insts.push_back(Mv);
    return;
  }

  case Opcode::GlobalGet: {
    uint32_t Idx = R.readU32();
    ValType Ty = M.Globals[Idx].Type;
    int V = newVreg(Ty);
    IRInst G;
    G.Op = isFloatType(Ty) ? MOp::GlobGetF : MOp::GlobGet;
    G.Dst = V;
    G.Imm = int64_t(Idx);
    G.SideEffect = true; // Conservative: globals are not CSE'd.
    defBump(V);
    Insts.push_back(G);
    push(V);
    return;
  }
  case Opcode::GlobalSet: {
    uint32_t Idx = R.readU32();
    int V = pop();
    IRInst G;
    G.Op = isFloatType(M.Globals[Idx].Type) ? MOp::GlobSetF : MOp::GlobSet;
    G.A = V;
    G.Imm = int64_t(Idx);
    G.SideEffect = true;
    Insts.push_back(G);
    return;
  }

  case Opcode::I32Const:
    push(emitConst(ValType::I32, uint64_t(uint32_t(R.readS32()))));
    return;
  case Opcode::I64Const:
    push(emitConst(ValType::I64, uint64_t(R.readS64())));
    return;
  case Opcode::F32Const:
    push(emitConst(ValType::F32, R.readF32Bits()));
    return;
  case Opcode::F64Const:
    push(emitConst(ValType::F64, R.readF64Bits()));
    return;

  case Opcode::MemorySize: {
    (void)R.readByte();
    int V = newVreg(ValType::I32);
    IRInst I;
    I.Op = MOp::MemSize;
    I.Dst = V;
    I.SideEffect = true;
    defBump(V);
    Insts.push_back(I);
    push(V);
    return;
  }
  case Opcode::MemoryGrow: {
    (void)R.readByte();
    int A = pop();
    int V = newVreg(ValType::I32);
    IRInst I;
    I.Op = MOp::MemGrow;
    I.Dst = V;
    I.A = A;
    I.SideEffect = true;
    defBump(V);
    Insts.push_back(I);
    LoadCSE.clear();
    push(V);
    return;
  }
  case Opcode::MemoryCopy:
  case Opcode::MemoryFill: {
    (void)R.readByte();
    if (Op == Opcode::MemoryCopy)
      (void)R.readByte();
    int L = pop(), B = pop(), A = pop();
    IRInst I;
    I.Op = Op == Opcode::MemoryCopy ? MOp::MemCopy : MOp::MemFill;
    I.Dst = NoVreg;
    I.A = A;
    I.B = B;
    I.Imm2 = L; // Third operand carried in Imm2 as a vreg id.
    I.SideEffect = true;
    Insts.push_back(I);
    ThirdOperandIsVreg.push_back(int(Insts.size()) - 1);
    LoadCSE.clear();
    return;
  }

  case Opcode::RefNull:
    (void)R.readByte();
    push(emitConst(ValType::ExternRef, 0));
    return;
  case Opcode::RefIsNull: {
    int A = pop();
    int V = cseLookupOrEmit(MOp::Eqz64, ValType::I32, A, NoVreg, 0, 0);
    push(V);
    return;
  }
  case Opcode::RefFunc: {
    uint32_t Idx = R.readU32();
    push(emitConst(ValType::FuncRef, uint64_t(Idx) + 1));
    return;
  }

  default: {
    // Fixed-signature operations.
    MOp Mo;
    uint8_t D;
    bool Ok = mapOp(Op, &Mo, &D);
    assert(Ok && "unhandled opcode in optimizing compiler");
    (void)Ok;
    const OpInfo &Info = opInfo(Op);
    int64_t Imm = 0;
    if (Info.Imm == ImmKind::MemArg) {
      MemArg Arg = R.readMemArg();
      Imm = int64_t(Arg.Offset);
    }
    int Bv = NoVreg, Av = NoVreg;
    if (Info.NPop >= 2)
      Bv = pop();
    if (Info.NPop >= 1)
      Av = pop();
    // Constant folding on single-def stack vregs.
    if (Info.NPop == 2 && Av >= 0 && Bv >= 0 && Vregs[Av].HasConst &&
        Vregs[Bv].HasConst) {
      uint64_t Out;
      if (foldBinop(Mo, D, Vregs[Av].Konst, Vregs[Bv].Konst, &Out)) {
        push(emitConst(Info.Push, Out));
        return;
      }
    }
    bool HasSideEffect = Info.CanTrap || Info.NPush == 0;
    // Instruction selection: fold a constant rhs into the immediate form
    // (the MovRI definition becomes dead and DCE removes it).
    if (!HasSideEffect && Info.NPop == 2 && Bv >= 0 &&
        Vregs[uint32_t(Bv)].HasConst) {
      MOp ImmMo = immFormOf(Mo);
      if (ImmMo != MOp::Nop) {
        int VI = cseLookupOrEmit(ImmMo, Info.Push, Av, NoVreg, D,
                                 int64_t(Vregs[uint32_t(Bv)].Konst));
        push(VI);
        return;
      }
    }
    int V;
    if (HasSideEffect) {
      V = Info.NPush ? newVreg(Info.Push) : NoVreg;
      IRInst I;
      I.Op = Mo;
      I.Dst = V;
      I.D = D;
      I.Imm = Imm;
      if (Info.NPop == 1) {
        I.A = Av;
      } else if (Info.NPop == 2) {
        I.A = Av;
        I.B = Bv;
      }
      // Stores: machine layout wants (A=value, B=address).
      if (Info.NPush == 0 && Info.Imm == ImmKind::MemArg) {
        I.A = Bv; // value
        I.B = Av; // address
        LoadCSE.clear();
      }
      I.SideEffect = true;
      defBump(V);
      Insts.push_back(I);
    } else {
      V = cseLookupOrEmit(Mo, Info.Push, Av, Bv, D, Imm);
    }
    if (Info.NPush)
      push(V);
    return;
  }
  }
}

// The opcode->machine-op mapping shared by simple operations.
static MOp immFormOf(MOp Mo) {
  switch (Mo) {
  case MOp::Add32:
    return MOp::AddI32;
  case MOp::Mul32:
    return MOp::MulI32;
  case MOp::And32:
    return MOp::AndI32;
  case MOp::Or32:
    return MOp::OrI32;
  case MOp::Xor32:
    return MOp::XorI32;
  case MOp::Shl32:
    return MOp::ShlI32;
  case MOp::ShrS32:
    return MOp::ShrSI32;
  case MOp::ShrU32:
    return MOp::ShrUI32;
  case MOp::CmpSet32:
    return MOp::CmpSetI32;
  case MOp::Add64:
    return MOp::AddI64;
  case MOp::Mul64:
    return MOp::MulI64;
  case MOp::And64:
    return MOp::AndI64;
  case MOp::Or64:
    return MOp::OrI64;
  case MOp::Xor64:
    return MOp::XorI64;
  case MOp::Shl64:
    return MOp::ShlI64;
  case MOp::ShrS64:
    return MOp::ShrSI64;
  case MOp::ShrU64:
    return MOp::ShrUI64;
  case MOp::CmpSet64:
    return MOp::CmpSetI64;
  default:
    return MOp::Nop;
  }
}

static bool mapOp(Opcode Op, MOp *Mo, uint8_t *D) {
  *D = 0;
  switch (Op) {
#define C2(OPC, MOPC, COND)                                                    \
  case Opcode::OPC:                                                            \
    *Mo = MOp::MOPC;                                                           \
    *D = uint8_t(COND);                                                        \
    return true;
#define M1(OPC, MOPC)                                                          \
  case Opcode::OPC:                                                            \
    *Mo = MOp::MOPC;                                                           \
    return true;
    M1(I32Add, Add32) M1(I32Sub, Sub32) M1(I32Mul, Mul32)
    M1(I32DivS, DivS32) M1(I32DivU, DivU32) M1(I32RemS, RemS32)
    M1(I32RemU, RemU32) M1(I32And, And32) M1(I32Or, Or32) M1(I32Xor, Xor32)
    M1(I32Shl, Shl32) M1(I32ShrS, ShrS32) M1(I32ShrU, ShrU32)
    M1(I32Rotl, Rotl32) M1(I32Rotr, Rotr32) M1(I32Clz, Clz32)
    M1(I32Ctz, Ctz32) M1(I32Popcnt, Popcnt32) M1(I32Eqz, Eqz32)
    M1(I32Extend8S, Ext8S32) M1(I32Extend16S, Ext16S32)
    M1(I64Add, Add64) M1(I64Sub, Sub64) M1(I64Mul, Mul64)
    M1(I64DivS, DivS64) M1(I64DivU, DivU64) M1(I64RemS, RemS64)
    M1(I64RemU, RemU64) M1(I64And, And64) M1(I64Or, Or64) M1(I64Xor, Xor64)
    M1(I64Shl, Shl64) M1(I64ShrS, ShrS64) M1(I64ShrU, ShrU64)
    M1(I64Rotl, Rotl64) M1(I64Rotr, Rotr64) M1(I64Clz, Clz64)
    M1(I64Ctz, Ctz64) M1(I64Popcnt, Popcnt64) M1(I64Eqz, Eqz64)
    M1(I64Extend8S, Ext8S64) M1(I64Extend16S, Ext16S64)
    M1(I64Extend32S, Ext32S64)
    C2(I32Eq, CmpSet32, Cond::Eq) C2(I32Ne, CmpSet32, Cond::Ne)
    C2(I32LtS, CmpSet32, Cond::LtS) C2(I32LtU, CmpSet32, Cond::LtU)
    C2(I32GtS, CmpSet32, Cond::GtS) C2(I32GtU, CmpSet32, Cond::GtU)
    C2(I32LeS, CmpSet32, Cond::LeS) C2(I32LeU, CmpSet32, Cond::LeU)
    C2(I32GeS, CmpSet32, Cond::GeS) C2(I32GeU, CmpSet32, Cond::GeU)
    C2(I64Eq, CmpSet64, Cond::Eq) C2(I64Ne, CmpSet64, Cond::Ne)
    C2(I64LtS, CmpSet64, Cond::LtS) C2(I64LtU, CmpSet64, Cond::LtU)
    C2(I64GtS, CmpSet64, Cond::GtS) C2(I64GtU, CmpSet64, Cond::GtU)
    C2(I64LeS, CmpSet64, Cond::LeS) C2(I64LeU, CmpSet64, Cond::LeU)
    C2(I64GeS, CmpSet64, Cond::GeS) C2(I64GeU, CmpSet64, Cond::GeU)
    C2(F32Eq, CmpSetF32, FCond::Eq) C2(F32Ne, CmpSetF32, FCond::Ne)
    C2(F32Lt, CmpSetF32, FCond::Lt) C2(F32Gt, CmpSetF32, FCond::Gt)
    C2(F32Le, CmpSetF32, FCond::Le) C2(F32Ge, CmpSetF32, FCond::Ge)
    C2(F64Eq, CmpSetF64, FCond::Eq) C2(F64Ne, CmpSetF64, FCond::Ne)
    C2(F64Lt, CmpSetF64, FCond::Lt) C2(F64Gt, CmpSetF64, FCond::Gt)
    C2(F64Le, CmpSetF64, FCond::Le) C2(F64Ge, CmpSetF64, FCond::Ge)
    M1(F32Add, AddF32) M1(F32Sub, SubF32) M1(F32Mul, MulF32)
    M1(F32Div, DivF32) M1(F32Min, MinF32) M1(F32Max, MaxF32)
    M1(F32Copysign, CopysignF32) M1(F32Abs, AbsF32) M1(F32Neg, NegF32)
    M1(F32Ceil, CeilF32) M1(F32Floor, FloorF32) M1(F32Trunc, TruncF32)
    M1(F32Nearest, NearestF32) M1(F32Sqrt, SqrtF32)
    M1(F64Add, AddF64) M1(F64Sub, SubF64) M1(F64Mul, MulF64)
    M1(F64Div, DivF64) M1(F64Min, MinF64) M1(F64Max, MaxF64)
    M1(F64Copysign, CopysignF64) M1(F64Abs, AbsF64) M1(F64Neg, NegF64)
    M1(F64Ceil, CeilF64) M1(F64Floor, FloorF64) M1(F64Trunc, TruncF64)
    M1(F64Nearest, NearestF64) M1(F64Sqrt, SqrtF64)
    M1(I32WrapI64, Wrap64) M1(I64ExtendI32S, ExtS3264)
    M1(I64ExtendI32U, Wrap64)
    M1(I32TruncF32S, TruncF32I32S) M1(I32TruncF32U, TruncF32I32U)
    M1(I32TruncF64S, TruncF64I32S) M1(I32TruncF64U, TruncF64I32U)
    M1(I64TruncF32S, TruncF32I64S) M1(I64TruncF32U, TruncF32I64U)
    M1(I64TruncF64S, TruncF64I64S) M1(I64TruncF64U, TruncF64I64U)
    M1(I32TruncSatF32S, TruncSatF32I32S) M1(I32TruncSatF32U, TruncSatF32I32U)
    M1(I32TruncSatF64S, TruncSatF64I32S) M1(I32TruncSatF64U, TruncSatF64I32U)
    M1(I64TruncSatF32S, TruncSatF32I64S) M1(I64TruncSatF32U, TruncSatF32I64U)
    M1(I64TruncSatF64S, TruncSatF64I64S) M1(I64TruncSatF64U, TruncSatF64I64U)
    M1(F32ConvertI32S, ConvI32SF32) M1(F32ConvertI32U, ConvI32UF32)
    M1(F32ConvertI64S, ConvI64SF32) M1(F32ConvertI64U, ConvI64UF32)
    M1(F64ConvertI32S, ConvI32SF64) M1(F64ConvertI32U, ConvI32UF64)
    M1(F64ConvertI64S, ConvI64SF64) M1(F64ConvertI64U, ConvI64UF64)
    M1(F32DemoteF64, DemoteF64) M1(F64PromoteF32, PromoteF32)
    M1(I32ReinterpretF32, RintFG32) M1(I64ReinterpretF64, RintFG64)
    M1(F32ReinterpretI32, RintGF32) M1(F64ReinterpretI64, RintGF64)
    M1(I32Load, LdM32) M1(I64Load, LdM64) M1(F32Load, LdMF32)
    M1(F64Load, LdMF64) M1(I32Load8S, LdM8S32) M1(I32Load8U, LdM8U32)
    M1(I32Load16S, LdM16S32) M1(I32Load16U, LdM16U32)
    M1(I64Load8S, LdM8S64) M1(I64Load8U, LdM8U64)
    M1(I64Load16S, LdM16S64) M1(I64Load16U, LdM16U64)
    M1(I64Load32S, LdM32S64) M1(I64Load32U, LdM32U64)
    M1(I32Store, StM32) M1(I64Store, StM64) M1(F32Store, StMF32)
    M1(F64Store, StMF64) M1(I32Store8, StM8) M1(I32Store16, StM16)
    M1(I64Store8, StM8) M1(I64Store16, StM16) M1(I64Store32, StM32)
#undef M1
#undef C2
  default:
    return false;
  }
}

// --- Passes ---

void OptCompiler::deadCodeElim() {
  auto useOf = [&](int V) {
    if (V >= 0)
      ++Vregs[uint32_t(V)].Uses;
  };
  for (size_t P = 0; P < Insts.size(); ++P) {
    const IRInst &I = Insts[P];
    useOf(I.A);
    useOf(I.B);
    if (I.Op == MOp::MemCopy || I.Op == MOp::MemFill)
      useOf(int(I.Imm2));
  }
  // Reverse sweep with cascading.
  for (size_t P = Insts.size(); P > 0; --P) {
    IRInst &I = Insts[P - 1];
    if (I.SideEffect || I.IsLabel || I.Dst < 0)
      continue;
    if (Vregs[uint32_t(I.Dst)].Uses != 0)
      continue;
    I.Dead = true;
    auto drop = [&](int V) {
      if (V >= 0)
        --Vregs[uint32_t(V)].Uses;
    };
    drop(I.A);
    drop(I.B);
    if (I.Op == MOp::MemCopy || I.Op == MOp::MemFill)
      drop(int(I.Imm2));
  }
}

void OptCompiler::computeIntervals() {
  auto touch = [&](int V, int P) {
    if (V < 0)
      return;
    VregInfo &Info = Vregs[uint32_t(V)];
    if (Info.Start < 0 || P < Info.Start)
      Info.Start = P;
    if (P > Info.End)
      Info.End = P;
  };
  for (size_t P = 0; P < Insts.size(); ++P) {
    const IRInst &I = Insts[P];
    if (I.Dead)
      continue;
    touch(I.Dst, int(P));
    touch(I.A, int(P));
    touch(I.B, int(P));
    if (I.Op == MOp::MemCopy || I.Op == MOp::MemFill)
      touch(int(I.Imm2), int(P));
  }
  // Loop extension: a value live into a loop (defined before the header,
  // touched at or after it) stays live to the loop end, across the
  // backedge. That covers the locals' entry definitions, loop-parameter
  // merge vregs and stack values from outside. A vreg first defined inside
  // the body is redefined on every path from the header to its uses, so it
  // is dead at the backedge and keeps its own [def, last use] range. Inner
  // loops were recorded before outer ones, so one in-order pass reaches the
  // fixpoint.
  for (const auto &[Ls, Le] : LoopRanges) {
    for (VregInfo &V : Vregs)
      if (V.Start < Ls && V.End >= Ls) // Unused vregs have End == -1.
        V.End = std::max(V.End, Le);
  }
  // Mark intervals crossing calls: all registers are caller-saved, so
  // those values must live in memory.
  for (int C : CallPositions) {
    for (VregInfo &V : Vregs) {
      if (V.Start >= 0 && V.Start < C && V.End > C)
        V.CrossesCall = true;
    }
  }
}

void OptCompiler::allocate() {
  constexpr Reg AllocatableGp = 12;
  constexpr Reg AllocatableFp = 12;
  std::vector<int> Order;
  for (size_t V = 0; V < Vregs.size(); ++V)
    if (Vregs[V].Start >= 0)
      Order.push_back(int(V));
  std::sort(Order.begin(), Order.end(), [&](int A, int B) {
    return Vregs[uint32_t(A)].Start < Vregs[uint32_t(B)].Start;
  });
  std::vector<int> Active[2]; // Per class.
  uint16_t Free[2] = {uint16_t((1u << AllocatableGp) - 1),
                      uint16_t((1u << AllocatableFp) - 1)};
  auto classOf = [&](int V) {
    return isFloatType(Vregs[uint32_t(V)].Ty) ? 1 : 0;
  };
  auto assignSpill = [&](int V) {
    Vregs[uint32_t(V)].SpillSlot = int(NumSpills++);
  };
  for (int V : Order) {
    VregInfo &Info = Vregs[uint32_t(V)];
    int Cls = classOf(V);
    // Expire old intervals.
    auto &Act = Active[Cls];
    for (size_t I = 0; I < Act.size();) {
      if (Vregs[uint32_t(Act[I])].End < Info.Start) {
        Free[Cls] |= uint16_t(1u << Vregs[uint32_t(Act[I])].R);
        Act[I] = Act.back();
        Act.pop_back();
      } else {
        ++I;
      }
    }
    if (Info.CrossesCall) {
      assignSpill(V);
      continue;
    }
    if (Free[Cls]) {
      Reg R = Reg(__builtin_ctz(Free[Cls]));
      Free[Cls] &= uint16_t(~(1u << R));
      Info.R = R;
      Act.push_back(V);
      continue;
    }
    // Spill the active interval with the furthest end if it outlives us.
    int Victim = -1;
    for (int A : Act)
      if (Victim < 0 || Vregs[uint32_t(A)].End > Vregs[uint32_t(Victim)].End)
        Victim = A;
    if (Victim >= 0 && Vregs[uint32_t(Victim)].End > Info.End) {
      Info.R = Vregs[uint32_t(Victim)].R;
      Vregs[uint32_t(Victim)].R = NoReg;
      assignSpill(Victim);
      for (auto &A : Active[Cls])
        if (A == Victim)
          A = V;
    } else {
      assignSpill(V);
    }
  }
}

void OptCompiler::emitMachine() {
  Assembler A(Code);
  std::vector<Label> Labels(static_cast<size_t>(LabelCount));
  for (auto &L : Labels)
    L = A.newLabel();
  uint32_t StageBase = NumLocals + NumSpills;
  Code.FrameSlots = StageBase + MaxHeight + 8;

  // Scratch registers (beyond the allocatable 12).
  constexpr Reg Sc1 = 13, Sc2 = 14, Sc3 = 15;
  constexpr Reg ScF1 = 13, ScF2 = 14;

  auto spillSlotOf = [&](int V) {
    return int64_t(NumLocals) + Vregs[uint32_t(V)].SpillSlot;
  };
  // Materializes an operand vreg into a register (its own or a scratch).
  auto srcReg = [&](int V, Reg ScratchG, Reg ScratchF) -> Reg {
    VregInfo &Info = Vregs[uint32_t(V)];
    if (Info.R != NoReg)
      return Info.R;
    bool Fp = isFloatType(Info.Ty);
    Reg S = Fp ? ScratchF : ScratchG;
    A.emit(Fp ? MOp::LdSlotF : MOp::LdSlot, S, 0, 0, 0, spillSlotOf(V));
    return S;
  };
  auto dstReg = [&](int V, Reg ScratchG, Reg ScratchF) -> Reg {
    VregInfo &Info = Vregs[uint32_t(V)];
    if (Info.R != NoReg)
      return Info.R;
    return isFloatType(Info.Ty) ? ScratchF : ScratchG;
  };
  auto storeDst = [&](int V, Reg R) {
    VregInfo &Info = Vregs[uint32_t(V)];
    if (Info.R != NoReg)
      return;
    bool Fp = isFloatType(Info.Ty);
    A.emit(Fp ? MOp::StSlotF : MOp::StSlot, R, 0, 0, 0, spillSlotOf(V));
  };

  for (size_t P = 0; P < Insts.size(); ++P) {
    const IRInst &I = Insts[P];
    if (I.Dead)
      continue;
    if (I.IsLabel) {
      A.bind(Labels[size_t(I.Imm)]);
      continue;
    }
    switch (I.Op) {
    case MOp::Jmp:
      A.jmp(Labels[size_t(I.Imm)]);
      break;
    case MOp::JmpIf:
    case MOp::JmpIfZ: {
      // Compare+branch fusion: the condition is a single-use CmpSet (or its
      // immediate form) immediately preceding this branch. The CmpSet is
      // popped and the branch takes its pc: with no IR instruction between
      // the two, no label can be bound between them.
      auto isCmpSet = [](MOp Op) {
        return Op == MOp::CmpSet32 || Op == MOp::CmpSetI32 ||
               Op == MOp::CmpSet64 || Op == MOp::CmpSetI64;
      };
      bool Fused = false;
      if (P > 0) {
        const IRInst &Prev = Insts[P - 1];
        if (!Prev.Dead && Prev.Dst == I.A &&
            Vregs[uint32_t(I.A)].Uses == 1 && isCmpSet(Prev.Op) &&
            Vregs[uint32_t(I.A)].R != NoReg && !Code.Insts.empty()) {
          // The CmpSet was just emitted as the previous machine inst.
          MInst MPrev = Code.Insts.back();
          if (isCmpSet(MPrev.Op) && MPrev.A == Vregs[uint32_t(I.A)].R) {
            Cond C = Cond(MPrev.D);
            if (I.Op == MOp::JmpIfZ)
              C = negate(C);
            Label L = Labels[size_t(I.Imm)];
            Code.Insts.pop_back();
            switch (MPrev.Op) {
            case MOp::CmpSet32:
              A.brCmp32(C, MPrev.B, MPrev.C, L);
              break;
            case MOp::CmpSetI32:
              A.brCmpI32(C, MPrev.B, MPrev.Imm, L);
              break;
            case MOp::CmpSet64:
              A.brCmp64(C, MPrev.B, MPrev.C, L);
              break;
            default:
              A.brCmpI64(C, MPrev.B, MPrev.Imm, L);
              break;
            }
            Fused = true;
          }
        }
      }
      if (!Fused) {
        Reg R = srcReg(I.A, Sc1, ScF1);
        if (I.Op == MOp::JmpIf)
          A.jmpIf(R, Labels[size_t(I.Imm)]);
        else
          A.jmpIfZ(R, Labels[size_t(I.Imm)]);
      }
      break;
    }
    case MOp::BrTable: {
      Reg R = srcReg(I.A, Sc1, ScF1);
      const std::vector<int> &Ls = BrTableLabels[size_t(I.Imm)];
      std::vector<Label> Targets;
      for (int L : Ls)
        Targets.push_back(Labels[size_t(L)]);
      A.brTable(R, Targets);
      break;
    }
    case MOp::CallDirect:
    case MOp::CallIndirect: {
      uint32_t ArgBase = StageBase + uint32_t(I.Imm2);
      A.emit(MOp::StSp, 0, 0, 0, 0, int64_t(ArgBase));
      if (I.Op == MOp::CallIndirect) {
        Reg R = srcReg(I.A, Sc2, ScF1);
        A.emit(MOp::MovRR, Sc2, R);
        A.emit(MOp::CallIndirect, Sc2, 0, 0, 0, I.Imm, int64_t(ArgBase));
      } else {
        A.emit(MOp::CallDirect, 0, 0, 0, 0, I.Imm, int64_t(ArgBase));
      }
      break;
    }
    case MOp::Ret:
      A.emit(MOp::Ret);
      break;
    case MOp::TrapOp:
      A.emit(MOp::TrapOp, 0, 0, 0, 0, I.Imm);
      break;
    case MOp::FuelCheck:
      A.emit(MOp::FuelCheck, 0, 0, 0, 0, I.Imm);
      break;
    case MOp::StSlot:
    case MOp::StSlotF: {
      Reg R = srcReg(I.A, Sc1, ScF1);
      int64_t Slot = I.ArgRel ? int64_t(StageBase) + I.Imm : I.Imm;
      A.emit(I.Op, R, 0, 0, 0, Slot);
      break;
    }
    case MOp::LdSlot:
    case MOp::LdSlotF: {
      Reg Rd = dstReg(I.Dst, Sc1, ScF1);
      int64_t Slot = I.ArgRel ? int64_t(StageBase) + I.Imm : I.Imm;
      A.emit(I.Op, Rd, 0, 0, 0, Slot);
      storeDst(I.Dst, Rd);
      break;
    }
    case MOp::MemCopy:
    case MOp::MemFill: {
      Reg Ra = srcReg(I.A, Sc1, ScF1);
      Reg Rb = srcReg(I.B, Sc2, ScF2);
      Reg Rc = srcReg(int(I.Imm2), Sc3, ScF2);
      A.emit(I.Op, Ra, Rb, Rc);
      break;
    }
    default: {
      // Uniform data instruction: dst/A/B registers plus immediates.
      Reg Ra = I.A >= 0 ? srcReg(I.A, Sc1, ScF1) : 0;
      Reg Rb = I.B >= 0 ? srcReg(I.B, Sc2, ScF2) : 0;
      if (I.Dst >= 0) {
        Reg Rd = dstReg(I.Dst, Sc3, ScF2);
        if (I.Op == MOp::MovRR || I.Op == MOp::MovFF) {
          if (Rd != Ra)
            A.emit(I.Op, Rd, Ra);
        } else if (I.Op == MOp::MovRI || I.Op == MOp::MovFI ||
                   I.Op == MOp::GlobGet || I.Op == MOp::GlobGetF ||
                   I.Op == MOp::MemSize) {
          A.emit(I.Op, Rd, 0, 0, 0, I.Imm);
        } else {
          A.emit(I.Op, Rd, Ra, Rb, I.D, I.Imm);
        }
        storeDst(I.Dst, Rd);
      } else {
        // Stores, global sets.
        if (I.Op == MOp::GlobSet || I.Op == MOp::GlobSetF)
          A.emit(I.Op, Ra, 0, 0, 0, I.Imm);
        else
          A.emit(I.Op, Ra, Rb, 0, I.D, I.Imm);
      }
      break;
    }
    }
  }
}

void OptCompiler::run() {
  const FuncType &FT = M.Types[F.TypeIdx];
  uint32_t NParams = uint32_t(FT.Params.size());
  // Pre-scan for assigned locals: local.get entries for never-assigned
  // locals can stay aliased to the local's vreg with no materialization.
  LocalEverSet.assign(NumLocals, 0);
  {
    CodeReader Scan(M.Bytes.data(), F.BodyStart, F.BodyEnd);
    while (!Scan.atEnd()) {
      Opcode Op = Scan.readOpcode();
      if (!Scan.ok())
        break;
      if (Op == Opcode::LocalSet || Op == Opcode::LocalTee) {
        uint32_t Idx = Scan.readU32();
        if (Scan.ok() && Idx < NumLocals)
          LocalEverSet[Idx] = 1;
      } else {
        Scan.skipImms(Op);
      }
    }
  }
  LocalVreg.resize(NumLocals);
  for (uint32_t I = 0; I < NumLocals; ++I) {
    LocalVreg[I] = newVreg(F.LocalTypes[I]);
    if (I < NParams) {
      IRInst L;
      L.Op = isFloatType(F.LocalTypes[I]) ? MOp::LdSlotF : MOp::LdSlot;
      L.Dst = LocalVreg[I];
      L.Imm = int64_t(I);
      defBump(LocalVreg[I]);
      Insts.push_back(L);
    } else {
      emit(isFloatType(F.LocalTypes[I]) ? MOp::MovFI : MOp::MovRI,
           LocalVreg[I], NoVreg, NoVreg, 0, 0);
    }
  }
  Ctl Root;
  Root.Kind = Opcode::Block;
  Root.Results = FT.Results;
  Root.EndLabel = newLabel();
  for (ValType T : FT.Results)
    Root.MergeVregs.push_back(newMultiDefVreg(T));
  Ctrl.push_back(std::move(Root));

  while (R.pc() < F.BodyEnd) {
    Opcode Op = R.readOpcode();
    if (!Live) {
      skipDeadOp(Op);
      continue;
    }
    if (uint32_t(Stack.size()) > MaxHeight)
      MaxHeight = uint32_t(Stack.size());
    buildOp(Op);
  }
  assert(Ctrl.empty() && "unbalanced control stack in optimizing compiler");

  deadCodeElim();
  computeIntervals();
  allocate();
  emitMachine();

  Code.FuncIndex = F.Index;
  Code.Stats.CodeInsts = Code.Insts.size();
  Code.Stats.InputBytes = F.BodyEnd - F.BodyStart;
  Code.Stats.SnapshotBytes = Insts.size() * sizeof(IRInst);
}

} // namespace

std::unique_ptr<MCode> wisp::compileOptimizing(const Module &M,
                                               const FuncDecl &F,
                                               const CompilerOptions &Opts,
                                               const ProbeSiteOracle *) {
  auto Code = std::make_unique<MCode>();
  auto Start = std::chrono::steady_clock::now();
  OptCompiler C(M, F, *Code);
  C.EmitFuelChecks = Opts.EmitFuelChecks;
  C.run();
  auto End = std::chrono::steady_clock::now();
  Code->Stats.TimeNs = uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
          .count());
  return Code;
}
