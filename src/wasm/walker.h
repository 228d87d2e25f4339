//===- wasm/walker.h - the one bytecode walker ------------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One abstract interpreter over a function body. Every pass that needs the
/// facts validation proves -- the operand-stack height, the control shape
/// and the side-table position at each bytecode offset -- is a visitor of
/// this walk: the validator (side table, MaxStack, diagnostics), the
/// artifact verifier's scan (per-offset coordinates) and the static
/// analyzer (constants, lints, call edges). The walker owns:
///
///   - the decode loop, body termination and the trailing-byte check;
///   - immediate decoding and every per-instruction validation rule;
///   - the typed operand stack, clamped at the frame base in unreachable
///     (stack-polymorphic) code;
///   - the control-frame stack with block types and label arity;
///   - the side-table cursor: one entry per if, else, br and br_if, and
///     N+1 per br_table.
///
/// A visitor derives from BodyWalker<Visitor, Value> (CRTP) and hides the
/// hooks it needs; the rest are the no-op defaults below. Dispatch is
/// static, so there is no indirect call per opcode. `Value` is a payload
/// carried beside each slot's type (the analyzer's known constants); it
/// is empty by default. Hooks, in walk order within one opcode:
///
///   beforeOp(Op, Pc)    At the opcode boundary: height() and stp() are
///                       the entry coordinates; immediates are unread.
///   onSimple(Op, Info, MemOffset, Pc)
///                       Fixed-signature opcode with its immediates
///                       checked and its operands still on the stack.
///   onBrTable(N, Pc)    br_table count read; selector still on the stack.
///   onBranch(Depth)     Once per side-table entry a br, br_if or br_table
///                       emits, in emission order, after stp() advanced.
///   onCall(FuncIdx), onCallIndirect(TypeIdx), onRefFunc(FuncIdx)
///   onBlock(Op)         block/loop/if pushed its frame (frame(0)).
///   onElse()            The if frame became its else frame.
///   onEnd(Pc)           A frame was popped; depth() == 0 at the
///                       function-terminating end.
///   afterOp(Op)         The opcode's effects are applied.
///   onError(Msg)        The walk stops; pc() is the failure offset.
///   constant(Bits)      The payload of a pushed constant.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_WASM_WALKER_H
#define WISP_WASM_WALKER_H

#include "support/format.h"
#include "wasm/codereader.h"
#include "wasm/module.h"

#include <algorithm>
#include <cstdarg>
#include <span>
#include <string>
#include <vector>

namespace wisp {

/// A block type's params or results. Points into the module's type
/// section or into OneTypeTable, never into a frame.
using TypeSpan = std::span<const ValType>;

/// Backing storage for single-result block types, indexed by ValType - 1.
inline constexpr ValType OneTypeTable[] = {
    ValType::I32, ValType::I64,     ValType::F32,
    ValType::F64, ValType::FuncRef, ValType::ExternRef};

/// One entry of the control stack.
struct WalkFrame {
  Opcode Kind = Opcode::Block; ///< Block, Loop, If or Else.
  bool Unreachable = false;    ///< The rest of the frame is polymorphic.
  bool Dead = false;           ///< Opened inside unreachable code.
  uint32_t Height = 0;         ///< Operand height at entry, below params.
  TypeSpan Params;
  TypeSpan Results;

  TypeSpan labelTypes() const {
    return Kind == Opcode::Loop ? Params : Results;
  }
};

/// The default slot payload: nothing beyond the type.
struct NoValue {};

template <class Visitor, class Value = NoValue> class BodyWalker {
public:
  struct Slot {
    ValType T = ValType::Bottom;
    [[no_unique_address]] Value X{};
  };

  BodyWalker(const Module &M, const FuncDecl &F)
      : M(M), F(F), R(M.Bytes.data(), F.BodyStart, F.BodyEnd) {}

  /// Walks the whole body. Returns false after onError on invalid code.
  bool walk();

  // --- Hooks: a visitor hides the ones it needs (see the file comment).
  void beforeOp(Opcode, uint32_t) {}
  void onSimple(Opcode, const OpInfo &, uint32_t, uint32_t) {}
  void onBrTable(uint32_t, uint32_t) {}
  void onBranch(uint32_t) {}
  void onCall(uint32_t) {}
  void onCallIndirect(uint32_t) {}
  void onRefFunc(uint32_t) {}
  void onBlock(Opcode) {}
  void onElse() {}
  void onEnd(uint32_t) {}
  void afterOp(Opcode) {}
  void onError(std::string) {}
  Value constant(uint64_t) { return Value{}; }

  // --- Walk state, for visitors.
  /// Reader position: just past what has been decoded.
  size_t pc() const { return R.pc(); }
  /// Operand-stack height (locals excluded).
  uint32_t height() const { return uint32_t(Stack.size()); }
  /// Highest height reached so far, unreachable code included.
  uint32_t maxHeight() const { return MaxHeight; }
  /// Side-table position: entries emitted so far.
  uint32_t stp() const { return Stp; }
  /// Open control frames, the function's own frame included.
  size_t depth() const { return Frames.size(); }
  const WalkFrame &frame(uint32_t Depth) const {
    return Frames[Frames.size() - 1 - Depth];
  }
  /// The current code is reachable: its frame is neither past an
  /// unconditional transfer nor opened inside unreachable code.
  bool live() const {
    return !Frames.empty() && !Frames.back().Unreachable &&
           !Frames.back().Dead;
  }
  /// The payload \p Depth slots below the top (0 = top); empty when the
  /// slot was clamped away.
  Value peek(uint32_t Depth) const {
    return Depth < Stack.size() ? Stack[Stack.size() - 1 - Depth].X : Value{};
  }

protected:
  const Module &M;
  const FuncDecl &F;

private:
  Visitor &self() { return static_cast<Visitor &>(*this); }
  bool fail(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  bool step(Opcode Op, uint32_t Pc);

  void push(ValType T, Value X = Value{}) {
    Stack.push_back(Slot{T, X});
    if (Stack.size() > MaxHeight)
      MaxHeight = uint32_t(Stack.size());
  }
  void pushAll(TypeSpan Ts) {
    for (uint32_t I = 0; I < Ts.size(); ++I)
      push(Ts[I]);
  }
  bool popAny(Slot *Out) {
    const WalkFrame &C = Frames.back();
    if (Stack.size() == C.Height) {
      if (!C.Unreachable)
        return fail("operand stack underflow");
      *Out = Slot{};
      return true;
    }
    *Out = Stack.back();
    Stack.pop_back();
    return true;
  }
  bool popVal(ValType Expect, Slot *Out = nullptr) {
    Slot S;
    if (!popAny(&S))
      return false;
    if (S.T != Expect && S.T != ValType::Bottom)
      return fail("type mismatch: expected %s, found %s", valTypeName(Expect),
                  valTypeName(S.T));
    if (Out)
      *Out = S;
    return true;
  }
  bool popAll(TypeSpan Ts) {
    for (uint32_t I = Ts.size(); I > 0; --I)
      if (!popVal(Ts[I - 1]))
        return false;
    return true;
  }
  /// Pops \p Ts and pushes them back retyped, keeping each payload
  /// (br_if's fallthrough values).
  bool popPushKeep(TypeSpan Ts) {
    Kept.clear();
    for (uint32_t I = Ts.size(); I > 0; --I) {
      Slot S;
      if (!popVal(Ts[I - 1], &S))
        return false;
      Kept.push_back(S.X);
    }
    for (uint32_t I = 0; I < Ts.size(); ++I)
      push(Ts[I], Kept[Ts.size() - 1 - I]);
    return true;
  }
  void markUnreachable() {
    WalkFrame &C = Frames.back();
    Stack.resize(C.Height);
    C.Unreachable = true;
  }
  /// Checks the top frame's results are exactly what is above its base.
  bool popFrameResults() {
    if (!popAll(Frames.back().Results))
      return false;
    uint32_t Base = Frames.back().Height;
    if (Stack.size() != Base)
      return fail("%zu superfluous values at end of block",
                  Stack.size() - Base);
    return true;
  }
  bool branch(uint32_t Depth) {
    if (Depth >= Frames.size())
      return fail("branch depth %u exceeds nesting %zu", Depth,
                  Frames.size());
    ++Stp;
    self().onBranch(Depth);
    return true;
  }
  bool checkMemory() {
    if (M.Memories.empty())
      return fail("memory instruction without declared memory");
    return true;
  }

  CodeReader R;
  std::vector<WalkFrame> Frames;
  std::vector<Slot> Stack;
  std::vector<uint32_t> Targets; ///< Reused br_table target buffer.
  std::vector<Value> Kept;       ///< Reused br_if payload buffer.
  uint32_t MaxHeight = 0;
  uint32_t Stp = 0;
  bool Done = false;
};

template <class Visitor, class Value>
bool BodyWalker<Visitor, Value>::fail(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Msg = strFormatV(Fmt, Args);
  va_end(Args);
  self().onError(std::move(Msg));
  return false;
}

template <class Visitor, class Value>
bool BodyWalker<Visitor, Value>::walk() {
  // The body is an implicit block producing the function's results.
  WalkFrame Root;
  Root.Results = M.Types[F.TypeIdx].Results;
  Frames.push_back(Root);
  while (!Done) {
    if (R.atEnd())
      return fail("function body not terminated by end");
    uint32_t Pc = uint32_t(R.pc());
    Opcode Op = R.readOpcode();
    if (!R.ok())
      return fail("malformed opcode");
    self().beforeOp(Op, Pc);
    if (!step(Op, Pc))
      return false;
    self().afterOp(Op);
  }
  return true;
}

template <class Visitor, class Value>
bool BodyWalker<Visitor, Value>::step(Opcode Op, uint32_t Pc) {
  const OpInfo &Info = opInfo(Op);
  if (!Info.Name)
    return fail("unknown opcode 0x%x", unsigned(Op));

  // Fixed-signature opcodes: the metadata table is the whole rule.
  if (Info.Class == OpClass::Simple) {
    uint32_t Offset = 0;
    if (Info.Imm == ImmKind::MemArg) {
      MemArg A = R.readMemArg();
      if (!R.ok())
        return fail("malformed memarg");
      if (!checkMemory())
        return false;
      uint32_t Natural = memAccessSize(Op);
      if (A.Align >= 32 || (1u << A.Align) > Natural)
        return fail("alignment 2**%u exceeds natural alignment %u of %s",
                    A.Align, Natural, opName(Op));
      Offset = A.Offset;
    } else if (Info.Imm == ImmKind::MemIdx) {
      if (R.readByte() != 0)
        return fail("nonzero memory index");
      if (!checkMemory())
        return false;
    }
    self().onSimple(Op, Info, Offset, Pc);
    for (unsigned I = Info.NPop; I > 0; --I)
      if (!popVal(Info.Pop[I - 1]))
        return false;
    if (Info.NPush)
      push(Info.Push);
    return true;
  }

  switch (Op) {
  case Opcode::Nop:
    return true;
  case Opcode::Unreachable:
    markUnreachable();
    return true;

  case Opcode::Block:
  case Opcode::Loop:
  case Opcode::If: {
    if (Op == Opcode::If && !popVal(ValType::I32))
      return false;
    BlockType BT = R.readBlockType();
    if (!R.ok())
      return fail("malformed block type");
    WalkFrame C;
    C.Kind = Op;
    if (BT.K == BlockType::OneResult) {
      C.Results = TypeSpan(&OneTypeTable[unsigned(BT.Result) - 1], 1);
    } else if (BT.K == BlockType::FuncTypeIdx) {
      if (BT.TypeIdx >= M.Types.size())
        return fail("block type index %u out of range", BT.TypeIdx);
      C.Params = M.Types[BT.TypeIdx].Params;
      C.Results = M.Types[BT.TypeIdx].Results;
    }
    if (Op == Opcode::If)
      ++Stp; // The false edge.
    if (!popAll(C.Params))
      return false;
    C.Dead = !live();
    C.Height = height();
    Frames.push_back(C);
    pushAll(C.Params);
    self().onBlock(Op);
    return true;
  }

  case Opcode::Else: {
    if (Frames.size() <= 1 || Frames.back().Kind != Opcode::If)
      return fail("else without matching if");
    ++Stp; // The else-skip edge, taken when the then-arm falls into else.
    if (!popFrameResults())
      return false;
    WalkFrame &C = Frames.back();
    C.Kind = Opcode::Else;
    C.Unreachable = false;
    pushAll(C.Params);
    self().onElse();
    return true;
  }

  case Opcode::End: {
    if (!popFrameResults())
      return false;
    WalkFrame C = Frames.back();
    Frames.pop_back();
    // Without an else the false edge produces the results directly.
    if (C.Kind == Opcode::If && !std::ranges::equal(C.Params, C.Results))
      return fail("if without else requires matching params and results");
    self().onEnd(Pc);
    pushAll(C.Results);
    if (Frames.empty()) {
      if (R.pc() != F.BodyEnd)
        return fail("%zd trailing bytes after function end",
                    ptrdiff_t(F.BodyEnd) - ptrdiff_t(R.pc()));
      Done = true;
    }
    return true;
  }

  case Opcode::Br: {
    uint32_t Depth = R.readU32();
    if (!R.ok())
      return fail("malformed branch depth");
    if (!branch(Depth) || !popAll(frame(Depth).labelTypes()))
      return false;
    markUnreachable();
    return true;
  }

  case Opcode::BrIf: {
    uint32_t Depth = R.readU32();
    if (!R.ok())
      return fail("malformed branch depth");
    if (!popVal(ValType::I32) || !branch(Depth))
      return false;
    return popPushKeep(frame(Depth).labelTypes());
  }

  case Opcode::BrTable: {
    uint32_t N = R.readU32();
    if (!R.ok())
      return fail("malformed br_table");
    self().onBrTable(N, Pc);
    if (!popVal(ValType::I32))
      return false;
    // Every target takes at least one byte: reject a count the body
    // cannot hold before anything is sized from it.
    size_t Left = F.BodyEnd - R.pc();
    if (N > Left)
      return fail("malformed br_table targets: count %u exceeds the %zu "
                  "bytes left in the body",
                  N, Left);
    Targets.clear();
    for (uint32_t I = 0; I < N && R.ok(); ++I)
      Targets.push_back(R.readU32());
    uint32_t Default = R.readU32();
    if (!R.ok())
      return fail("malformed br_table targets");
    if (Default >= Frames.size())
      return fail("br_table default depth out of range");
    TypeSpan DefLT = frame(Default).labelTypes();
    for (uint32_t T : Targets) {
      if (T >= Frames.size())
        return fail("br_table target depth out of range");
      if (!std::ranges::equal(frame(T).labelTypes(), DefLT))
        return fail("br_table labels have inconsistent types");
    }
    for (uint32_t T : Targets)
      branch(T);
    branch(Default);
    if (!popAll(DefLT))
      return false;
    markUnreachable();
    return true;
  }

  case Opcode::Return:
    if (!popAll(M.Types[F.TypeIdx].Results))
      return false;
    markUnreachable();
    return true;

  case Opcode::Call: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Funcs.size())
      return fail("call index out of range");
    self().onCall(Idx);
    const FuncType &FT = M.funcType(Idx);
    if (!popAll(FT.Params))
      return false;
    pushAll(FT.Results);
    return true;
  }

  case Opcode::CallIndirect: {
    uint32_t TypeIdx = R.readU32();
    uint32_t TableIdx = R.readU32();
    if (!R.ok() || TypeIdx >= M.Types.size())
      return fail("call_indirect type index out of range");
    if (TableIdx >= M.Tables.size())
      return fail("call_indirect table index out of range");
    if (M.Tables[TableIdx].Elem != ValType::FuncRef)
      return fail("call_indirect table is not funcref");
    if (!popVal(ValType::I32))
      return false;
    self().onCallIndirect(TypeIdx);
    const FuncType &FT = M.Types[TypeIdx];
    if (!popAll(FT.Params))
      return false;
    pushAll(FT.Results);
    return true;
  }

  case Opcode::Drop: {
    Slot S;
    return popAny(&S);
  }

  case Opcode::Select: {
    if (!popVal(ValType::I32))
      return false;
    Slot A, B;
    if (!popAny(&A) || !popAny(&B))
      return false;
    if (A.T != B.T && A.T != ValType::Bottom && B.T != ValType::Bottom)
      return fail("select operands disagree: %s vs %s", valTypeName(A.T),
                  valTypeName(B.T));
    ValType T = A.T != ValType::Bottom ? A.T : B.T;
    if (T != ValType::Bottom && isRefType(T))
      return fail("untyped select on reference type");
    push(T);
    return true;
  }

  case Opcode::SelectT: {
    uint32_t N = R.readU32();
    if (!R.ok() || N != 1)
      return fail("select_t requires exactly one type");
    ValType T = R.readValType();
    if (!R.ok())
      return fail("malformed select_t type");
    if (!popVal(ValType::I32) || !popVal(T) || !popVal(T))
      return false;
    push(T);
    return true;
  }

  case Opcode::LocalGet:
  case Opcode::LocalSet:
  case Opcode::LocalTee: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= F.LocalTypes.size())
      return fail("local index out of range");
    ValType T = F.LocalTypes[Idx];
    if (Op == Opcode::LocalGet) {
      push(T);
      return true;
    }
    Slot S;
    if (!popVal(T, &S))
      return false;
    if (Op == Opcode::LocalTee)
      push(T, S.X);
    return true;
  }

  case Opcode::GlobalGet:
  case Opcode::GlobalSet: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Globals.size())
      return fail("global index out of range");
    const GlobalDecl &G = M.Globals[Idx];
    if (Op == Opcode::GlobalGet) {
      push(G.Type);
      return true;
    }
    if (!G.Mutable)
      return fail("global.set of immutable global %u", Idx);
    return popVal(G.Type);
  }

  case Opcode::I32Const:
  case Opcode::I64Const:
  case Opcode::F32Const:
  case Opcode::F64Const: {
    // The four opcodes are consecutive, in OneTypeTable's order.
    ValType T = OneTypeTable[unsigned(Op) - unsigned(Opcode::I32Const)];
    uint64_t Bits = Op == Opcode::I32Const   ? uint32_t(R.readS32())
                    : Op == Opcode::I64Const ? uint64_t(R.readS64())
                    : Op == Opcode::F32Const ? R.readF32Bits()
                                             : R.readF64Bits();
    if (!R.ok())
      return fail("malformed %s constant", valTypeName(T));
    push(T, self().constant(Bits));
    return true;
  }

  case Opcode::RefNull: {
    ValType T = R.readValType();
    if (!R.ok() || !isRefType(T))
      return fail("ref.null requires a reference type");
    push(T, self().constant(0));
    return true;
  }
  case Opcode::RefIsNull: {
    Slot S;
    if (!popAny(&S))
      return false;
    if (S.T != ValType::Bottom && !isRefType(S.T))
      return fail("ref.is_null on non-reference");
    push(ValType::I32);
    return true;
  }
  case Opcode::RefFunc: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Funcs.size())
      return fail("ref.func index out of range");
    self().onRefFunc(Idx);
    push(ValType::FuncRef);
    return true;
  }

  case Opcode::MemoryCopy:
  case Opcode::MemoryFill: {
    if (R.readByte() != 0 ||
        (Op == Opcode::MemoryCopy && R.readByte() != 0))
      return fail("nonzero memory index");
    if (!checkMemory())
      return false;
    return popVal(ValType::I32) && popVal(ValType::I32) &&
           popVal(ValType::I32);
  }

  default:
    return fail("unhandled opcode %s", opName(Op));
  }
}

} // namespace wisp

#endif // WISP_WASM_WALKER_H
