//===- baselines/copypatch.cpp - WasmNow-shaped copy-and-patch --------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Template scheme: every operand lives at its canonical value-stack slot;
// the top of stack may additionally be cached in g0/f0 (two template
// variants per opcode: TOS-in-register and TOS-in-memory). Snippets carry
// "holes" — sentinel immediates patched with actual slot indexes and
// instruction immediates at compile time. Control flow, calls and merges
// are emitted directly (they need labels), as in the real system.
//
//===----------------------------------------------------------------------===//

#include "baselines/copypatch.h"

#include "machine/assembler.h"
#include "runtime/trap.h"
#include "wasm/codereader.h"

#include <unordered_map>

using namespace wisp;

namespace {

// Patch-hole sentinels in snippet Imm fields.
constexpr int64_t HoleOperandBase = -9001; ///< Slot of the first popped operand.
constexpr int64_t HoleOperand2 = -9002;    ///< Slot of the second operand.
constexpr int64_t HoleResult = -9003;      ///< Slot of the result.
constexpr int64_t HoleImm = -9004;         ///< The instruction immediate.

// Fixed template registers.
constexpr Reg TosG = 0, TmpG = 1, TosF = 0, TmpF = 1;

/// One pre-generated machine-code template.
struct Snippet {
  std::vector<MInst> Insts;
  bool ResultInReg = false; ///< Leaves the result in g0/f0.
  bool Valid = false;
};

/// Maps a fixed-signature wasm opcode to its machine opcode (and condition
/// code for compares).
static bool mapSimpleOp(Opcode Op, MOp *M, uint8_t *D) {
  *D = 0;
  switch (Op) {
#define CMP(OPC, MOPC, COND)                                                   \
  case Opcode::OPC:                                                            \
    *M = MOp::MOPC;                                                            \
    *D = uint8_t(COND);                                                        \
    return true;
#define ONE(OPC, MOPC)                                                         \
  case Opcode::OPC:                                                            \
    *M = MOp::MOPC;                                                            \
    return true;
    ONE(I32Add, Add32) ONE(I32Sub, Sub32) ONE(I32Mul, Mul32)
    ONE(I32DivS, DivS32) ONE(I32DivU, DivU32) ONE(I32RemS, RemS32)
    ONE(I32RemU, RemU32) ONE(I32And, And32) ONE(I32Or, Or32)
    ONE(I32Xor, Xor32) ONE(I32Shl, Shl32) ONE(I32ShrS, ShrS32)
    ONE(I32ShrU, ShrU32) ONE(I32Rotl, Rotl32) ONE(I32Rotr, Rotr32)
    ONE(I32Clz, Clz32) ONE(I32Ctz, Ctz32) ONE(I32Popcnt, Popcnt32)
    ONE(I32Eqz, Eqz32) ONE(I32Extend8S, Ext8S32) ONE(I32Extend16S, Ext16S32)
    ONE(I64Add, Add64) ONE(I64Sub, Sub64) ONE(I64Mul, Mul64)
    ONE(I64DivS, DivS64) ONE(I64DivU, DivU64) ONE(I64RemS, RemS64)
    ONE(I64RemU, RemU64) ONE(I64And, And64) ONE(I64Or, Or64)
    ONE(I64Xor, Xor64) ONE(I64Shl, Shl64) ONE(I64ShrS, ShrS64)
    ONE(I64ShrU, ShrU64) ONE(I64Rotl, Rotl64) ONE(I64Rotr, Rotr64)
    ONE(I64Clz, Clz64) ONE(I64Ctz, Ctz64) ONE(I64Popcnt, Popcnt64)
    ONE(I64Eqz, Eqz64) ONE(I64Extend8S, Ext8S64) ONE(I64Extend16S, Ext16S64)
    ONE(I64Extend32S, Ext32S64)
    CMP(I32Eq, CmpSet32, Cond::Eq) CMP(I32Ne, CmpSet32, Cond::Ne)
    CMP(I32LtS, CmpSet32, Cond::LtS) CMP(I32LtU, CmpSet32, Cond::LtU)
    CMP(I32GtS, CmpSet32, Cond::GtS) CMP(I32GtU, CmpSet32, Cond::GtU)
    CMP(I32LeS, CmpSet32, Cond::LeS) CMP(I32LeU, CmpSet32, Cond::LeU)
    CMP(I32GeS, CmpSet32, Cond::GeS) CMP(I32GeU, CmpSet32, Cond::GeU)
    CMP(I64Eq, CmpSet64, Cond::Eq) CMP(I64Ne, CmpSet64, Cond::Ne)
    CMP(I64LtS, CmpSet64, Cond::LtS) CMP(I64LtU, CmpSet64, Cond::LtU)
    CMP(I64GtS, CmpSet64, Cond::GtS) CMP(I64GtU, CmpSet64, Cond::GtU)
    CMP(I64LeS, CmpSet64, Cond::LeS) CMP(I64LeU, CmpSet64, Cond::LeU)
    CMP(I64GeS, CmpSet64, Cond::GeS) CMP(I64GeU, CmpSet64, Cond::GeU)
    CMP(F32Eq, CmpSetF32, FCond::Eq) CMP(F32Ne, CmpSetF32, FCond::Ne)
    CMP(F32Lt, CmpSetF32, FCond::Lt) CMP(F32Gt, CmpSetF32, FCond::Gt)
    CMP(F32Le, CmpSetF32, FCond::Le) CMP(F32Ge, CmpSetF32, FCond::Ge)
    CMP(F64Eq, CmpSetF64, FCond::Eq) CMP(F64Ne, CmpSetF64, FCond::Ne)
    CMP(F64Lt, CmpSetF64, FCond::Lt) CMP(F64Gt, CmpSetF64, FCond::Gt)
    CMP(F64Le, CmpSetF64, FCond::Le) CMP(F64Ge, CmpSetF64, FCond::Ge)
    ONE(F32Add, AddF32) ONE(F32Sub, SubF32) ONE(F32Mul, MulF32)
    ONE(F32Div, DivF32) ONE(F32Min, MinF32) ONE(F32Max, MaxF32)
    ONE(F32Copysign, CopysignF32) ONE(F32Abs, AbsF32) ONE(F32Neg, NegF32)
    ONE(F32Ceil, CeilF32) ONE(F32Floor, FloorF32) ONE(F32Trunc, TruncF32)
    ONE(F32Nearest, NearestF32) ONE(F32Sqrt, SqrtF32)
    ONE(F64Add, AddF64) ONE(F64Sub, SubF64) ONE(F64Mul, MulF64)
    ONE(F64Div, DivF64) ONE(F64Min, MinF64) ONE(F64Max, MaxF64)
    ONE(F64Copysign, CopysignF64) ONE(F64Abs, AbsF64) ONE(F64Neg, NegF64)
    ONE(F64Ceil, CeilF64) ONE(F64Floor, FloorF64) ONE(F64Trunc, TruncF64)
    ONE(F64Nearest, NearestF64) ONE(F64Sqrt, SqrtF64)
    ONE(I32WrapI64, Wrap64) ONE(I64ExtendI32S, ExtS3264)
    ONE(I64ExtendI32U, Wrap64)
    ONE(I32TruncF32S, TruncF32I32S) ONE(I32TruncF32U, TruncF32I32U)
    ONE(I32TruncF64S, TruncF64I32S) ONE(I32TruncF64U, TruncF64I32U)
    ONE(I64TruncF32S, TruncF32I64S) ONE(I64TruncF32U, TruncF32I64U)
    ONE(I64TruncF64S, TruncF64I64S) ONE(I64TruncF64U, TruncF64I64U)
    ONE(I32TruncSatF32S, TruncSatF32I32S) ONE(I32TruncSatF32U, TruncSatF32I32U)
    ONE(I32TruncSatF64S, TruncSatF64I32S) ONE(I32TruncSatF64U, TruncSatF64I32U)
    ONE(I64TruncSatF32S, TruncSatF32I64S) ONE(I64TruncSatF32U, TruncSatF32I64U)
    ONE(I64TruncSatF64S, TruncSatF64I64S) ONE(I64TruncSatF64U, TruncSatF64I64U)
    ONE(F32ConvertI32S, ConvI32SF32) ONE(F32ConvertI32U, ConvI32UF32)
    ONE(F32ConvertI64S, ConvI64SF32) ONE(F32ConvertI64U, ConvI64UF32)
    ONE(F64ConvertI32S, ConvI32SF64) ONE(F64ConvertI32U, ConvI32UF64)
    ONE(F64ConvertI64S, ConvI64SF64) ONE(F64ConvertI64U, ConvI64UF64)
    ONE(F32DemoteF64, DemoteF64) ONE(F64PromoteF32, PromoteF32)
    ONE(I32ReinterpretF32, RintFG32) ONE(I64ReinterpretF64, RintFG64)
    ONE(F32ReinterpretI32, RintGF32) ONE(F64ReinterpretI64, RintGF64)
    ONE(I32Load, LdM32) ONE(I64Load, LdM64) ONE(F32Load, LdMF32)
    ONE(F64Load, LdMF64) ONE(I32Load8S, LdM8S32) ONE(I32Load8U, LdM8U32)
    ONE(I32Load16S, LdM16S32) ONE(I32Load16U, LdM16U32)
    ONE(I64Load8S, LdM8S64) ONE(I64Load8U, LdM8U64)
    ONE(I64Load16S, LdM16S64) ONE(I64Load16U, LdM16U64)
    ONE(I64Load32S, LdM32S64) ONE(I64Load32U, LdM32U64)
    ONE(I32Store, StM32) ONE(I64Store, StM64) ONE(F32Store, StMF32)
    ONE(F64Store, StMF64) ONE(I32Store8, StM8) ONE(I32Store16, StM16)
    ONE(I64Store8, StM8) ONE(I64Store16, StM16) ONE(I64Store32, StM32)
    ONE(MemoryGrow, MemGrow)
#undef ONE
#undef CMP
  default:
    return false;
  }
}

/// The process-wide template cache.
class TemplateCache {
public:
  void build();
  bool built() const { return Built; }
  /// Returns the snippet for (op, tos-in-reg) or null.
  const Snippet *lookup(Opcode Op, bool TosInReg) const {
    auto It = Map.find(key(Op, TosInReg));
    return It == Map.end() ? nullptr : &It->second;
  }

private:
  static uint32_t key(Opcode Op, bool Tos) {
    return (uint32_t(Op) << 1) | uint32_t(Tos);
  }
  void buildSimple(Opcode Op);
  std::unordered_map<uint32_t, Snippet> Map;
  bool Built = false;
};

void TemplateCache::buildSimple(Opcode Op) {
  MOp M;
  uint8_t D;
  if (!mapSimpleOp(Op, &M, &D))
    return;
  const OpInfo &Info = opInfo(Op);
  bool ImmIsOffset = Info.Imm == ImmKind::MemArg;
  for (int TosReg = 0; TosReg < 2; ++TosReg) {
    Snippet S;
    // Operand registers: last operand may come from the TOS register.
    Reg OperandRegs[3];
    for (unsigned I = 0; I < Info.NPop; ++I) {
      ValType T = Info.Pop[I];
      bool IsLast = I + 1u == Info.NPop;
      bool Fp = isFloatType(T);
      if (IsLast && TosReg) {
        OperandRegs[I] = Fp ? TosF : TosG;
        continue;
      }
      Reg R = Fp ? (IsLast ? TosF : TmpF) : (IsLast ? TosG : TmpG);
      OperandRegs[I] = R;
      S.Insts.push_back(MInst{Fp ? MOp::LdSlotF : MOp::LdSlot, R, 0, 0, 0,
                              IsLast ? HoleOperand2 : HoleOperandBase, 0});
    }
    // For two-operand ops the first operand loads from HoleOperandBase and
    // the second from HoleOperand2; fix single-operand ops.
    if (Info.NPop == 1 && !S.Insts.empty())
      S.Insts.back().Imm = HoleOperandBase;
    // The computation itself.
    bool FpResult = Info.NPush && isFloatType(Info.Push);
    Reg DstReg = FpResult ? TosF : TosG;
    MInst Compute{M, DstReg, 0, 0, D, 0, 0};
    if (Info.NPop >= 1)
      Compute.B = OperandRegs[0];
    if (Info.NPop >= 2)
      Compute.C = OperandRegs[1];
    if (ImmIsOffset)
      Compute.Imm = HoleImm;
    // Loads/stores use (B=address, A=value/dst); rearrange for those.
    switch (M) {
    case MOp::LdM8S32:
    case MOp::LdM8U32:
    case MOp::LdM16S32:
    case MOp::LdM16U32:
    case MOp::LdM32:
    case MOp::LdM8S64:
    case MOp::LdM8U64:
    case MOp::LdM16S64:
    case MOp::LdM16U64:
    case MOp::LdM32S64:
    case MOp::LdM32U64:
    case MOp::LdM64:
    case MOp::LdMF32:
    case MOp::LdMF64:
      Compute.B = OperandRegs[0]; // Address.
      break;
    case MOp::StM8:
    case MOp::StM16:
    case MOp::StM32:
    case MOp::StM64:
    case MOp::StMF32:
    case MOp::StMF64:
      Compute.A = OperandRegs[1]; // Value.
      Compute.B = OperandRegs[0]; // Address.
      break;
    case MOp::MemGrow:
      Compute.B = OperandRegs[0];
      break;
    default:
      // Unops: operand in B (already set via OperandRegs[0]).
      break;
    }
    S.Insts.push_back(Compute);
    S.ResultInReg = Info.NPush > 0;
    S.Valid = true;
    Map[key(Op, TosReg)] = std::move(S);
  }
}

void TemplateCache::build() {
  if (Built)
    return;
  // Walk the whole one-byte and prefixed opcode spaces.
  for (uint32_t B = 0; B < 256; ++B)
    buildSimple(Opcode(B));
  for (uint32_t B = 0; B < 16; ++B)
    buildSimple(Opcode(0xFC00 | B));
  // Constants.
  for (int TosReg = 0; TosReg < 2; ++TosReg) {
    for (Opcode Op : {Opcode::I32Const, Opcode::I64Const}) {
      Snippet S;
      S.Insts.push_back(MInst{MOp::MovRI, TosG, 0, 0, 0, HoleImm, 0});
      S.ResultInReg = true;
      S.Valid = true;
      Map[key(Op, TosReg)] = std::move(S);
    }
    for (Opcode Op : {Opcode::F32Const, Opcode::F64Const}) {
      Snippet S;
      S.Insts.push_back(MInst{MOp::MovFI, TosF, 0, 0, 0, HoleImm, 0});
      S.ResultInReg = true;
      S.Valid = true;
      Map[key(Op, TosReg)] = std::move(S);
    }
  }
  Built = true;
}

TemplateCache &cache() {
  // Built inside the magic-static initializer: C++ guarantees exactly one
  // thread constructs it while concurrent engine constructors wait, so
  // parallel workers (service/batch.h) can warm the process-wide cache
  // without a data race. A separate build() call after construction would
  // reintroduce one (unsynchronized Built/Map writes).
  static TemplateCache C = [] {
    TemplateCache T;
    T.build();
    return T;
  }();
  return C;
}

/// The copy-and-patch compiler driver: height/type tracking, template
/// application, and direct emission for control flow.
class CopyPatch {
public:
  CopyPatch(const Module &M, const FuncDecl &F, MCode &Code)
      : M(M), F(F), Code(Code), A(Code),
        R(M.Bytes.data(), F.BodyStart, F.BodyEnd) {
    NumLocals = F.numLocalSlots();
  }

  void run();

  /// Governance checks at loop headers (same placement as the SPC).
  bool EmitFuelChecks = false;

private:
  struct Ctl {
    Opcode Kind = Opcode::Block;
    bool DeadEntry = false;
    bool ElseSeen = false;
    uint32_t Base = 0;
    uint32_t NParams = 0, NResults = 0;
    Label End, Else, Head;
    std::vector<ValType> SavedStack; ///< if: type stack for the else arm.
  };

  uint32_t height() const { return uint32_t(Stack.size()); }
  uint32_t slotOf(uint32_t OperandIdx) const { return NumLocals + OperandIdx; }
  ValType topType() const { return Stack.back(); }

  /// Spills the TOS register to its canonical slot.
  void spillTos() {
    if (!TosInReg)
      return;
    bool Fp = isFloatType(topType());
    A.emit(Fp ? MOp::StSlotF : MOp::StSlot, Fp ? TosF : TosG, 0, 0, 0,
           int64_t(slotOf(height() - 1)));
    TosInReg = false;
  }

  /// Emits a constant through its template and pushes the result type
  /// (consts are Special-class, so the generic path cannot update the
  /// stack for them).
  void applyConstTemplate(Opcode Op, ValType Ty, int64_t ImmValue) {
    const Snippet *S = cache().lookup(Op, TosInReg);
    assert(S && S->Valid && "missing const template");
    for (MInst I : S->Insts) {
      if (I.Imm == HoleImm)
        I.Imm = ImmValue;
      Code.Insts.push_back(I);
    }
    Stack.push_back(Ty);
    TosInReg = true;
  }

  /// Applies the template for \p Op; returns false if no template exists.
  bool applyTemplate(Opcode Op, int64_t ImmValue) {
    const Snippet *S = cache().lookup(Op, TosInReg);
    if (!S || !S->Valid)
      return false;
    const OpInfo &Info = opInfo(Op);
    // Two-operand snippets that want both operands from memory but the
    // second is in the TOS register were generated for that case; for the
    // memory variant nothing to do. Three-operand ops have no template.
    uint32_t Base = height() - Info.NPop;
    for (MInst I : S->Insts) {
      if (I.Imm == HoleOperandBase)
        I.Imm = int64_t(slotOf(Base));
      else if (I.Imm == HoleOperand2)
        I.Imm = int64_t(slotOf(Base + 1));
      else if (I.Imm == HoleResult)
        I.Imm = int64_t(slotOf(Base));
      else if (I.Imm == HoleImm)
        I.Imm = ImmValue;
      Code.Insts.push_back(I);
    }
    for (unsigned I = 0; I < Info.NPop; ++I)
      Stack.pop_back();
    if (Info.NPush) {
      Stack.push_back(Info.Push);
      TosInReg = S->ResultInReg;
    } else {
      TosInReg = false;
    }
    return true;
  }

  /// Copies the top \p Arity operand values down to \p TgtBase (memory to
  /// memory); used on taken branch edges only.
  void emitMergeMoves(uint32_t Arity, uint32_t TgtBase) {
    uint32_t SrcBase = height() - Arity;
    for (uint32_t J = 0; J < Arity; ++J) {
      uint32_t Src = slotOf(SrcBase + J);
      uint32_t Dst = slotOf(TgtBase + J);
      if (Src == Dst)
        continue;
      A.emit(MOp::LdSlot, 13, 0, 0, 0, int64_t(Src));
      A.emit(MOp::StSlot, 13, 0, 0, 0, int64_t(Dst));
    }
  }

  void branchTo(uint32_t Depth) {
    Ctl &C = Ctrl[Ctrl.size() - 1 - Depth];
    uint32_t Arity = C.Kind == Opcode::Loop ? C.NParams : C.NResults;
    emitMergeMoves(Arity, C.Base);
    A.jmp(C.Kind == Opcode::Loop ? C.Head : C.End);
  }

  void emitReturn() {
    uint32_t NRes = uint32_t(M.Types[F.TypeIdx].Results.size());
    uint32_t SrcBase = height() - NRes;
    for (uint32_t J = 0; J < NRes; ++J) {
      uint32_t Src = slotOf(SrcBase + J);
      if (Src == J)
        continue;
      A.emit(MOp::LdSlot, 13, 0, 0, 0, int64_t(Src));
      A.emit(MOp::StSlot, 13, 0, 0, 0, int64_t(J));
    }
    A.emit(MOp::Ret);
  }

  void resolveBlockType(BlockType BT, uint32_t *NP, uint32_t *NR,
                        std::vector<ValType> *Results) {
    *NP = 0;
    *NR = 0;
    if (BT.K == BlockType::OneResult) {
      *NR = 1;
      Results->push_back(BT.Result);
    } else if (BT.K == BlockType::FuncTypeIdx) {
      *NP = uint32_t(M.Types[BT.TypeIdx].Params.size());
      *NR = uint32_t(M.Types[BT.TypeIdx].Results.size());
      *Results = M.Types[BT.TypeIdx].Results;
    }
  }

  void compileOp(Opcode Op);
  void skipDeadOp(Opcode Op);

  const Module &M;
  const FuncDecl &F;
  MCode &Code;
  Assembler A;
  CodeReader R;
  std::vector<ValType> Stack;
  std::vector<Ctl> Ctrl;
  uint32_t NumLocals = 0;
  bool TosInReg = false;
  bool Live = true;
};

void CopyPatch::skipDeadOp(Opcode Op) {
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
    compileOp(Op);
    return;
  case Opcode::End:
    if (Ctrl.back().DeadEntry) {
      Ctrl.pop_back();
      return;
    }
    compileOp(Op);
    return;
  default:
    R.skipImms(Op);
    return;
  }
}

void CopyPatch::compileOp(Opcode Op) {
#ifdef WISP_CP_TRACE
  fprintf(stderr, "op=%s h=%zu tos=%d live=%d ctrl=%zu\n", opName(Op),
          Stack.size(), int(TosInReg), int(Live), Ctrl.size());
#endif
  switch (Op) {
  case Opcode::Nop:
    return;
  case Opcode::Unreachable:
    A.emit(MOp::TrapOp, 0, 0, 0, 0, int64_t(TrapReason::Unreachable));
    Live = false;
    return;

  case Opcode::Block:
  case Opcode::Loop: {
    BlockType BT = R.readBlockType();
    spillTos();
    Ctl C;
    C.Kind = Op;
    std::vector<ValType> Results;
    resolveBlockType(BT, &C.NParams, &C.NResults, &Results);
    C.Base = height() - C.NParams;
    C.End = A.newLabel();
    if (Op == Opcode::Loop) {
      C.Head = A.newLabel();
      A.bind(C.Head);
      // Loop-header fuel charge: entry falls through it, backedges jump to
      // Head and re-execute it — exactly the interpreter's charge points.
      if (EmitFuelChecks)
        A.emit(MOp::FuelCheck, 0, 0, 0, 0, int64_t(R.pc()));
    }
    Ctrl.push_back(std::move(C));
    return;
  }

  case Opcode::If: {
    BlockType BT = R.readBlockType();
    Ctl C;
    C.Kind = Opcode::If;
    // Condition: use the TOS register directly when cached.
    Reg CondReg = 13;
    if (TosInReg) {
      CondReg = TosG;
      TosInReg = false;
    } else {
      A.emit(MOp::LdSlot, 13, 0, 0, 0, int64_t(slotOf(height() - 1)));
    }
    Stack.pop_back();
    std::vector<ValType> Results;
    resolveBlockType(BT, &C.NParams, &C.NResults, &Results);
    C.Base = height() - C.NParams;
    C.End = A.newLabel();
    C.Else = A.newLabel();
    C.SavedStack = Stack;
    A.jmpIfZ(CondReg, C.Else);
    Ctrl.push_back(std::move(C));
    return;
  }

  case Opcode::Else: {
    Ctl &C = Ctrl.back();
    C.ElseSeen = true;
    if (Live) {
      spillTos();
      A.jmp(C.End);
    }
    A.bind(C.Else);
    Stack = C.SavedStack;
    TosInReg = false;
    Live = true;
    return;
  }

  case Opcode::End: {
    Ctl C = std::move(Ctrl.back());
    Ctrl.pop_back();
    if (Live)
      spillTos();
    if (C.Kind == Opcode::If && !C.ElseSeen) {
      // Implicit empty else: the false edge falls through to the end.
      A.bind(C.Else);
    }
    if (C.Kind != Opcode::Loop)
      A.bind(C.End);
    // Rebuild the type stack at the merge.
    Stack.resize(NumLocals == 0 ? C.Base : C.Base); // operand count = Base
    Stack.resize(C.Base);
    {
      // Recover result types from the construct.
      // NResults entries were checked by the validator.
      CodeReader Tmp(nullptr, 0, 0);
      (void)Tmp;
    }
    for (uint32_t I = 0; I < C.NResults; ++I)
      Stack.push_back(ValType::I64); // Type only matters for reg class...
    TosInReg = false;
    Live = true;
    if (Ctrl.empty()) {
      emitReturn();
      Live = false;
    }
    return;
  }

  case Opcode::Br: {
    uint32_t Depth = R.readU32();
    spillTos();
    branchTo(Depth);
    Live = false;
    return;
  }
  case Opcode::BrIf: {
    uint32_t Depth = R.readU32();
    Reg CondReg = 13;
    if (TosInReg) {
      CondReg = TosG;
      TosInReg = false;
    } else {
      A.emit(MOp::LdSlot, 13, 0, 0, 0, int64_t(slotOf(height() - 1)));
    }
    Stack.pop_back();
    Label Skip = A.newLabel();
    A.jmpIfZ(CondReg, Skip);
    branchTo(Depth);
    A.bind(Skip);
    return;
  }
  case Opcode::BrTable: {
    uint32_t N = R.readU32();
    std::vector<uint32_t> Depths(N + 1);
    for (uint32_t I = 0; I <= N; ++I)
      Depths[I] = R.readU32();
    if (TosInReg) {
      A.emit(MOp::MovRR, 14, TosG);
      TosInReg = false;
    } else {
      A.emit(MOp::LdSlot, 14, 0, 0, 0, int64_t(slotOf(height() - 1)));
    }
    Stack.pop_back();
    std::vector<Label> Stubs(Depths.size());
    for (auto &L : Stubs)
      L = A.newLabel();
    A.brTable(14, Stubs);
    for (size_t I = 0; I < Depths.size(); ++I) {
      A.bind(Stubs[I]);
      branchTo(Depths[I]);
    }
    Live = false;
    return;
  }
  case Opcode::Return:
    spillTos();
    emitReturn();
    Live = false;
    return;

  case Opcode::Call:
  case Opcode::CallIndirect: {
    uint32_t AIdx = R.readU32();
    uint32_t TableIdx = 0;
    const FuncType *FT;
    Reg IdxReg = 14;
    if (Op == Opcode::CallIndirect) {
      TableIdx = R.readU32();
      (void)TableIdx;
      FT = &M.Types[AIdx];
      if (TosInReg) {
        A.emit(MOp::MovRR, IdxReg, TosG);
        TosInReg = false;
      } else {
        A.emit(MOp::LdSlot, IdxReg, 0, 0, 0, int64_t(slotOf(height() - 1)));
      }
      Stack.pop_back();
    } else {
      FT = &M.funcType(AIdx);
    }
    spillTos();
    uint32_t NArgs = uint32_t(FT->Params.size());
    uint32_t ArgBase = NumLocals + height() - NArgs;
    A.emit(MOp::StSp, 0, 0, 0, 0, int64_t(ArgBase));
    if (Op == Opcode::CallIndirect)
      A.emit(MOp::CallIndirect, IdxReg, 0, 0, 0, int64_t(AIdx),
             int64_t(ArgBase));
    else
      A.emit(MOp::CallDirect, 0, 0, 0, 0, int64_t(AIdx), int64_t(ArgBase));
    for (uint32_t I = 0; I < NArgs; ++I)
      Stack.pop_back();
    for (ValType T : FT->Results)
      Stack.push_back(T);
    TosInReg = false;
    return;
  }

  case Opcode::Drop:
    if (TosInReg)
      TosInReg = false;
    Stack.pop_back();
    return;

  case Opcode::Select:
  case Opcode::SelectT: {
    if (Op == Opcode::SelectT) {
      uint32_t N = R.readU32();
      for (uint32_t I = 0; I < N; ++I)
        (void)R.readByte();
    }
    Reg CondReg = 13;
    if (TosInReg) {
      CondReg = TosG;
      TosInReg = false;
    } else {
      A.emit(MOp::LdSlot, 13, 0, 0, 0, int64_t(slotOf(height() - 1)));
    }
    Stack.pop_back();
    uint32_t BSlot = slotOf(height() - 1);
    uint32_t ASlot = slotOf(height() - 2);
    Label Keep = A.newLabel();
    A.jmpIf(CondReg, Keep);
    A.emit(MOp::LdSlot, 14, 0, 0, 0, int64_t(BSlot));
    A.emit(MOp::StSlot, 14, 0, 0, 0, int64_t(ASlot));
    A.bind(Keep);
    Stack.pop_back();
    return;
  }

  case Opcode::LocalGet: {
    uint32_t Idx = R.readU32();
    spillTos();
    ValType T = F.LocalTypes[Idx];
    bool Fp = isFloatType(T);
    A.emit(Fp ? MOp::LdSlotF : MOp::LdSlot, Fp ? TosF : TosG, 0, 0, 0,
           int64_t(Idx));
    Stack.push_back(T);
    TosInReg = true;
    return;
  }
  case Opcode::LocalSet:
  case Opcode::LocalTee: {
    uint32_t Idx = R.readU32();
    ValType T = F.LocalTypes[Idx];
    bool Fp = isFloatType(T);
    bool IsTee = Op == Opcode::LocalTee;
    if (TosInReg) {
      A.emit(Fp ? MOp::StSlotF : MOp::StSlot, Fp ? TosF : TosG, 0, 0, 0,
             int64_t(Idx));
      if (IsTee)
        return; // Value stays cached in the TOS register.
      TosInReg = false;
    } else {
      A.emit(MOp::LdSlot, 13, 0, 0, 0, int64_t(slotOf(height() - 1)));
      A.emit(MOp::StSlot, 13, 0, 0, 0, int64_t(Idx));
      if (IsTee)
        return;
    }
    Stack.pop_back();
    return;
  }

  case Opcode::GlobalGet: {
    uint32_t Idx = R.readU32();
    spillTos();
    ValType T = M.Globals[Idx].Type;
    bool Fp = isFloatType(T);
    A.emit(Fp ? MOp::GlobGetF : MOp::GlobGet, Fp ? TosF : TosG, 0, 0, 0,
           int64_t(Idx));
    Stack.push_back(T);
    TosInReg = true;
    return;
  }
  case Opcode::GlobalSet: {
    uint32_t Idx = R.readU32();
    ValType T = M.Globals[Idx].Type;
    bool Fp = isFloatType(T);
    if (TosInReg) {
      A.emit(Fp ? MOp::GlobSetF : MOp::GlobSet, Fp ? TosF : TosG, 0, 0, 0,
             int64_t(Idx));
      TosInReg = false;
    } else {
      A.emit(Fp ? MOp::LdSlotF : MOp::LdSlot, Fp ? TmpF : TmpG, 0, 0, 0,
             int64_t(slotOf(height() - 1)));
      A.emit(Fp ? MOp::GlobSetF : MOp::GlobSet, Fp ? TmpF : TmpG, 0, 0, 0,
             int64_t(Idx));
    }
    Stack.pop_back();
    return;
  }

  case Opcode::MemorySize: {
    (void)R.readByte();
    spillTos();
    A.emit(MOp::MemSize, TosG);
    Stack.push_back(ValType::I32);
    TosInReg = true;
    return;
  }
  case Opcode::MemoryGrow: {
    (void)R.readByte();
    if (!applyTemplate(Opcode::MemoryGrow, 0))
      assert(false && "missing memory.grow template");
    return;
  }
  case Opcode::MemoryCopy:
  case Opcode::MemoryFill: {
    (void)R.readByte();
    if (Op == Opcode::MemoryCopy)
      (void)R.readByte();
    spillTos();
    A.emit(MOp::LdSlot, 3, 0, 0, 0, int64_t(slotOf(height() - 1))); // len
    A.emit(MOp::LdSlot, 2, 0, 0, 0, int64_t(slotOf(height() - 2)));
    A.emit(MOp::LdSlot, 1, 0, 0, 0, int64_t(slotOf(height() - 3)));
    A.emit(Op == Opcode::MemoryCopy ? MOp::MemCopy : MOp::MemFill, 1, 2, 3);
    Stack.pop_back();
    Stack.pop_back();
    Stack.pop_back();
    TosInReg = false;
    return;
  }

  case Opcode::RefNull: {
    (void)R.readByte();
    spillTos();
    A.emit(MOp::MovRI, TosG, 0, 0, 0, 0);
    Stack.push_back(ValType::ExternRef);
    TosInReg = true;
    return;
  }
  case Opcode::RefIsNull: {
    if (TosInReg) {
      A.emit(MOp::Eqz64, TosG, TosG);
    } else {
      A.emit(MOp::LdSlot, TosG, 0, 0, 0, int64_t(slotOf(height() - 1)));
      A.emit(MOp::Eqz64, TosG, TosG);
    }
    Stack.pop_back();
    Stack.push_back(ValType::I32);
    TosInReg = true;
    return;
  }
  case Opcode::RefFunc: {
    uint32_t Idx = R.readU32();
    spillTos();
    A.emit(MOp::MovRI, TosG, 0, 0, 0, int64_t(Idx) + 1);
    Stack.push_back(ValType::FuncRef);
    TosInReg = true;
    return;
  }

  case Opcode::I32Const: {
    int32_t V = R.readS32();
    spillTos();
    applyConstTemplate(Op, ValType::I32, int64_t(uint32_t(V)));
    return;
  }
  case Opcode::I64Const: {
    int64_t V = R.readS64();
    spillTos();
    applyConstTemplate(Op, ValType::I64, V);
    return;
  }
  case Opcode::F32Const: {
    uint32_t V = R.readF32Bits();
    spillTos();
    applyConstTemplate(Op, ValType::F32, int64_t(V));
    return;
  }
  case Opcode::F64Const: {
    uint64_t V = R.readF64Bits();
    spillTos();
    applyConstTemplate(Op, ValType::F64, int64_t(V));
    return;
  }

  default: {
    // Fixed-signature ops: templates. Memory ops carry an offset.
    int64_t Imm = 0;
    if (opInfo(Op).Imm == ImmKind::MemArg) {
      MemArg Arg = R.readMemArg();
      Imm = int64_t(Arg.Offset);
    }
    // Two-operand ops with the *second* operand cached: the variant
    // handles it. If the snippet expects memory operands but TOS is in a
    // register, the variant lookup keyed on TosInReg handles it too.
    bool Ok = applyTemplate(Op, Imm);
    assert(Ok && "no template for opcode");
    if (!Ok) {
      A.emit(MOp::TrapOp, 0, 0, 0, 0, int64_t(TrapReason::Unreachable));
      Live = false;
    }
    return;
  }
  }
}

void CopyPatch::run() {
  Code.FuncIndex = F.Index;
  Code.FrameSlots = F.frameSlots();
  // Root control frame.
  Ctl Root;
  Root.Kind = Opcode::Block;
  Root.NResults = uint32_t(M.Types[F.TypeIdx].Results.size());
  Root.End = A.newLabel();
  Ctrl.push_back(std::move(Root));
  // Zero declared locals.
  uint32_t NParams = uint32_t(M.Types[F.TypeIdx].Params.size());
  if (NumLocals > NParams)
    A.emit(MOp::ZeroSlots, 0, 0, 0, 0, int64_t(NParams),
           int64_t(NumLocals - NParams));
  while (R.pc() < F.BodyEnd) {
    uint32_t OpIp = uint32_t(R.pc());
    Opcode Op = R.readOpcode();
    if (!Live) {
      skipDeadOp(Op);
      continue;
    }
    Code.noteLine(OpIp);
    compileOp(Op);
  }
  Code.Stats.CodeInsts = Code.Insts.size();
}

} // namespace

void wisp::warmCopyPatchTemplates() {
  // Force the magic-static construction (which builds the templates); the
  // cache is immutable afterwards, so concurrent engines only ever read.
  (void)cache();
}

std::unique_ptr<MCode> wisp::compileCopyPatch(const Module &M,
                                              const FuncDecl &F,
                                              const CompilerOptions &Opts,
                                              const ProbeSiteOracle *
                                              /*Probes*/) {
  auto Code = std::make_unique<MCode>();
  CopyPatch C(M, F, *Code);
  C.EmitFuelChecks = Opts.EmitFuelChecks;
  C.run();
  return Code;
}
