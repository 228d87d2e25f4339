//===- interp/threaded.cpp - threaded-dispatch interpreter ------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Executes the pre-decoded threaded IR: one fixed-size unit per dispatch,
// immediates already decoded and widened, branch targets pre-resolved to IR
// offsets (no STP bookkeeping on the hot path), and superinstructions
// covering the dominant op pairs/triples/quads. Dispatch is computed goto
// (labels as values), which every compiler this file builds with (GCC and
// Clang: it also relies on __builtin_expect and aligned(64)) supports.
//
// The frame contract matches the switch interpreter exactly: Ip/Stp/Sp are
// written back at observation points (calls, probes, traps, backedge
// hooks), so probes, OSR tier-up and deopt tier-down see the same
// coordinates regardless of the dispatch strategy. Any resume point the IR
// cannot express (no pre-decoded body, or a deopt landing inside a fused
// superinstruction) delegates the remainder of the run to the switch
// interpreter, which can resume anywhere.
//
//===----------------------------------------------------------------------===//

#include "interp/threaded.h"

#include "interp/interpreter.h"
#include "interp/predecode.h"
#include "runtime/hooks.h"
#include "runtime/numerics.h"

#include <cstring>

using namespace wisp;

#define WISP_UNLIKELY(x) __builtin_expect(!!(x), 0)

RunSignal wisp::runThreadedInterpreter(Thread &T, size_t EntryDepth) {
  assert(!T.Frames.empty() && T.Frames.size() >= EntryDepth);
  assert(T.top().Kind == FrameKind::Interp && "top frame is not interp");

  Instance *Inst = T.Inst;
  uint64_t *S = T.VS.slots();
  uint8_t *Tg = T.VS.tags();

  // Per-frame cached state.
  Frame *F = nullptr;
  FuncInstance *Func = nullptr;
  const IrUnit *Units = nullptr;
  const BrCase *Cases = nullptr;
  const IrUnit *U = nullptr;
  uint32_t SpAbs = 0;
  uint32_t Vfp = 0;
  uint32_t LocalBase = 0; // == Vfp (locals start at frame base).
  bool HasProbes = false;
  uint8_t *MemData = Inst->HasMemory ? Inst->Memory.data() : nullptr;
  uint64_t MemSize = Inst->HasMemory ? Inst->Memory.byteSize() : 0;

  // Re-reads everything from the top frame (and the function's possibly
  // replaced ThreadedCode). Returns false when the frame cannot run on
  // this tier — the caller then delegates to the switch interpreter.
  auto restore = [&]() -> bool {
    F = &T.Frames.back();
    Func = F->Func;
    const ThreadedCode *TC = Func->TCode;
    if (WISP_UNLIKELY(!TC))
      return false;
    uint32_t Idx = TC->unitIndexAt(F->Ip);
    if (WISP_UNLIKELY(Idx == ThreadedCode::NoUnit))
      return false;
    // A frame resuming EXACTLY at a loop-header fuel gate already paid the
    // charge for this arrival (a deopting JIT frame charged at the header
    // FuelCheck; a probe pause charged at the gate before firing): skip
    // it. Resumes that reach the gate non-exactly (through the elided loop
    // opcode's ip) keep it — that arrival has not been charged yet.
    if (WISP_UNLIKELY(TOp(TC->Units[Idx].Op) == TOp::FuelGate &&
                      TC->Units[Idx].BcIp == F->Ip))
      ++Idx;
    Units = TC->Units.data();
    Cases = TC->Cases.data();
    U = Units + Idx;
    SpAbs = F->Sp;
    Vfp = F->Vfp;
    LocalBase = Vfp;
    HasProbes = !Func->ProbeBits.empty();
    MemData = Inst->HasMemory ? Inst->Memory.data() : nullptr;
    MemSize = Inst->HasMemory ? Inst->Memory.byteSize() : 0;
    return true;
  };

  // Takes a pre-resolved branch. Returns 0 to continue at the (updated)
  // unit, 1 when the frame tiered up (yield to the dispatcher), 2 when a
  // rejected tier-up left a frame this tier cannot resume, 3 when a
  // governance check trapped at the branch target.
  auto takeBr = [&](uint32_t TargetUnit, uint32_t DstBase, uint32_t VC,
                    uint64_t IpFlag) -> int {
    uint32_t SrcBase = SpAbs - VC;
    uint32_t Dst = Vfp + DstBase;
    if (SrcBase != Dst && VC) {
      memmove(S + Dst, S + SrcBase, size_t(VC) * 8);
      if (Tg)
        memmove(Tg + Dst, Tg + SrcBase, VC);
    }
    SpAbs = Dst + VC;
    U = Units + TargetUnit;
    // Governance charge: one fuel unit per taken backedge, BEFORE the
    // tier-up hook (mirrors the switch interpreter's takeBranch) — an OSR
    // entry placed after the compiled header check must not double-charge
    // the transition iteration. Backward targets resolve past the header's
    // fuel gate, so this is the only charge for the arrival.
    if (WISP_UNLIKELY((IpFlag >> 32) != 0 && T.Governed)) {
      TrapReason R = T.governCheck();
      if (WISP_UNLIKELY(R != TrapReason::None)) {
        F->Ip = uint32_t(IpFlag);
        F->Stp = U->Stp;
        F->Sp = SpAbs;
        T.setTrap(R, uint32_t(IpFlag));
        return 3; // Trapped.
      }
    }
    if (WISP_UNLIKELY((IpFlag >> 32) != 0) && T.TierUpThreshold) {
      if (++Func->HotCount == T.TierUpThreshold && T.Hooks) {
        F->Ip = uint32_t(IpFlag);
        F->Stp = U->Stp;
        F->Sp = SpAbs;
        if (T.Hooks->onLoopBackedge(T, Func, uint32_t(IpFlag)))
          return 1; // Frame tiered up; yield to the dispatcher.
        if (!restore())
          return 2;
      }
    }
    return 0;
  };

  // A probed unit was reached: write the frame back, fire, charge the
  // shared flat probe cost and re-read the frame (the probe may have
  // re-predecoded the function). Returns false on a resume this tier
  // cannot express.
  auto probePause = [&]() -> bool {
    F->Ip = U->BcIp;
    F->Stp = U->Stp;
    F->Sp = SpAbs;
    if (T.Hooks)
      T.Hooks->fireProbes(T, Func, U->BcIp);
    T.InterpSteps += Thread::ProbeDispatchSteps;
    return restore();
  };

  if (!restore())
    return runInterpreter(T, EntryDepth);

#define TRAP(Reason)                                                           \
  do {                                                                         \
    F->Ip = U->BcIp;                                                           \
    F->Stp = U->Stp;                                                           \
    F->Sp = SpAbs;                                                             \
    T.setTrap(Reason, U->BcIp);                                                \
    return RunSignal::Trapped;                                                 \
  } while (0)

  // --- Stack helpers (identical contract to the switch interpreter) ---
#define PUSH(BitsV, Ty)                                                        \
  do {                                                                         \
    S[SpAbs] = (BitsV);                                                        \
    if (Tg)                                                                    \
      Tg[SpAbs] = uint8_t(ValType::Ty);                                        \
    ++SpAbs;                                                                   \
  } while (0)
#define TOP() S[SpAbs - 1]
#define POP() S[--SpAbs]

#define BIN_INPLACE(Expr)                                                      \
  do {                                                                         \
    uint64_t B = S[SpAbs - 1];                                                 \
    uint64_t A = S[SpAbs - 2];                                                 \
    (void)A;                                                                   \
    (void)B;                                                                   \
    S[SpAbs - 2] = (Expr);                                                     \
    --SpAbs;                                                                   \
  } while (0)
#define BIN_RETAG(Expr, Ty)                                                    \
  do {                                                                         \
    uint64_t B = S[SpAbs - 1];                                                 \
    uint64_t A = S[SpAbs - 2];                                                 \
    (void)A;                                                                   \
    (void)B;                                                                   \
    S[SpAbs - 2] = (Expr);                                                     \
    if (Tg)                                                                    \
      Tg[SpAbs - 2] = uint8_t(ValType::Ty);                                    \
    --SpAbs;                                                                   \
  } while (0)
#define UN_INPLACE(Expr)                                                       \
  do {                                                                         \
    uint64_t A = S[SpAbs - 1];                                                 \
    (void)A;                                                                   \
    S[SpAbs - 1] = (Expr);                                                     \
  } while (0)
#define UN_RETAG(Expr, Ty)                                                     \
  do {                                                                         \
    uint64_t A = S[SpAbs - 1];                                                 \
    (void)A;                                                                   \
    S[SpAbs - 1] = (Expr);                                                     \
    if (Tg)                                                                    \
      Tg[SpAbs - 1] = uint8_t(ValType::Ty);                                    \
  } while (0)

  // Operand views.
#define AI32 int32_t(uint32_t(A))
#define BI32 int32_t(uint32_t(B))
#define AU32 uint32_t(A)
#define BU32 uint32_t(B)
#define AI64 int64_t(A)
#define BI64 int64_t(B)
#define AF32 bitsToF32(uint32_t(A))
#define BF32 bitsToF32(uint32_t(B))
#define AF64 bitsToF64(A)
#define BF64 bitsToF64(B)

  // Memory access with the pre-decoded offset (no LEB work on this tier).
#define LOAD_OP(CType, Read, Ty)                                               \
  do {                                                                         \
    uint64_t EA = uint64_t(uint32_t(TOP())) + U->A;                            \
    if (WISP_UNLIKELY(EA + sizeof(CType) > MemSize))                           \
      TRAP(TrapReason::MemOutOfBounds);                                        \
    CType V;                                                                   \
    memcpy(&V, MemData + EA, sizeof(CType));                                   \
    UN_RETAG(Read, Ty);                                                        \
  } while (0)

#define STORE_OP(CType, ValExpr)                                               \
  do {                                                                         \
    uint64_t Raw = POP();                                                      \
    (void)Raw;                                                                 \
    uint64_t EA = uint64_t(uint32_t(POP())) + U->A;                            \
    if (WISP_UNLIKELY(EA + sizeof(CType) > MemSize))                           \
      TRAP(TrapReason::MemOutOfBounds);                                        \
    CType V = (ValExpr);                                                       \
    memcpy(MemData + EA, &V, sizeof(CType));                                   \
    Inst->Memory.noteWrite(EA + sizeof(CType));                                \
  } while (0)

  // Branch glue: consume a takeBr result at handler top level.
#define TAKE_BRANCH(Target, DstBase, VC, IpFlag)                               \
  {                                                                            \
    int BrSig = takeBr((Target), (DstBase), (VC), (IpFlag));                   \
    if (WISP_UNLIKELY(BrSig)) {                                                \
      if (BrSig == 1)                                                          \
        return RunSignal::SwitchTier;                                          \
      if (BrSig == 3)                                                          \
        return RunSignal::Trapped;                                             \
      return runInterpreter(T, EntryDepth);                                    \
    }                                                                          \
  }                                                                            \
  NEXT_AT()

  // Token-threaded dispatch: the IR unit holds an index into this table of
  // handler addresses; every handler ends in its own indirect jump, which
  // branch predictors exploit far better than one shared switch jump.
  static const void *HandlerTable[] = {
#define WISP_TOP_ADDR(Name) &&H_##Name,
      WISP_SPECIAL_TOPS(WISP_TOP_ADDR)
#undef WISP_TOP_ADDR
#define WISP_OP(Name, ...) &&H_##Name,
#define WISP_OP_FC(Name, ...) &&H_##Name,
#define WISP_FUSE_BINOP(Name, Expr, Ty)                                        \
  &&H_##Name, &&H_GetGet##Name, &&H_GetConst##Name,
#define WISP_FUSE_CMPOP(Name, Cond)                                            \
  &&H_##Name, &&H_GetGet##Name, &&H_GetConst##Name, &&H_##Name##ThenBr,        \
      &&H_GetGet##Name##ThenBr,
#include "interp/handlers.inc"
  };
  static_assert(sizeof(HandlerTable) / sizeof(void *) == size_t(TOp::Count),
                "handler table out of sync with TOp");

  // A FuelGate shares its BcIp with the real header unit that follows it;
  // the probe must fire once, on the real unit, or a probed loop header
  // would pause twice per arrival.
#define DISPATCH()                                                             \
  do {                                                                         \
    ++T.ThreadedSteps;                                                         \
    if (WISP_UNLIKELY(HasProbes) && TOp(U->Op) != TOp::FuelGate &&             \
        Func->probedAt(U->BcIp)) {                                             \
      if (!probePause())                                                       \
        return runInterpreter(T, EntryDepth);                                  \
    }                                                                          \
    goto *HandlerTable[U->Op];                                                 \
  } while (0)
#define OP(Name) H_##Name:
#define NEXT_SEQ()                                                             \
  do {                                                                         \
    ++U;                                                                       \
    DISPATCH();                                                                \
  } while (0)
#define NEXT_AT() DISPATCH()

  DISPATCH();

      OP(Unreachable)
      TRAP(TrapReason::Unreachable);

      OP(Nop)
      NEXT_SEQ();

      OP(Return) {
        uint32_t NRes = uint32_t(Func->Type->Results.size());
        uint32_t Dst = Vfp;
        uint32_t Src = SpAbs - NRes;
        if (Src != Dst && NRes) {
          memmove(S + Dst, S + Src, size_t(NRes) * 8);
          if (Tg)
            memmove(Tg + Dst, Tg + Src, NRes);
        }
        T.Frames.pop_back();
        if (T.Frames.size() < EntryDepth)
          return RunSignal::Done;
        T.Frames.back().Sp = Dst + NRes;
        if (T.Frames.back().Kind == FrameKind::Jit)
          return RunSignal::SwitchTier;
        if (!restore())
          return runInterpreter(T, EntryDepth);
        NEXT_AT();
      }

      OP(Br)
      TAKE_BRANCH(U->A, U->Aux, U->ValCount, U->B);

      OP(BrIf) {
        uint32_t Cond = uint32_t(POP());
        if (Cond) {
          TAKE_BRANCH(U->A, U->Aux, U->ValCount, U->B);
        }
      }
      NEXT_SEQ();

      OP(BrTable) {
        uint32_t Idx = uint32_t(POP());
        uint32_t Sel = Idx < U->X ? Idx : U->X;
        const BrCase &C = Cases[U->A + Sel];
        TAKE_BRANCH(C.TargetUnit, C.DstBase, C.ValCount, C.IpFlag);
      }

      OP(IfFalse) {
        uint32_t Cond = uint32_t(POP());
        if (!Cond) {
          TAKE_BRANCH(U->A, U->Aux, U->ValCount, U->B);
        }
      }
      NEXT_SEQ();

      OP(Call) {
        FuncInstance *Callee = Inst->func(U->A);
        uint32_t NArgs = uint32_t(Callee->Type->Params.size());
        uint32_t ArgBase = SpAbs - NArgs;
        // Write the resume point (the next unit) back before transferring.
        // When the next unit is a loop-header fuel gate, resume at the
        // elided loop opcode's ip instead of the gate's header ip: the
        // return has not charged this loop entry yet, and an exact-match
        // resume would skip the gate (see restore()).
        F->Ip = TOp(U[1].Op) == TOp::FuelGate ? U[1].A : U[1].BcIp;
        F->Stp = U[1].Stp;
        F->Sp = SpAbs;
        if (Callee->Host) {
          if (!callHostFunc(T, Callee, ArgBase, U->BcIp))
            return RunSignal::Trapped;
          SpAbs = ArgBase + uint32_t(Callee->Type->Results.size());
          F->Sp = SpAbs;
          // The host may have attached probes (re-predecoding this body)
          // or grown memory; re-read everything.
          if (!restore())
            return runInterpreter(T, EntryDepth);
          NEXT_AT();
        }
        if (WISP_UNLIKELY(T.TierUpThreshold) && !Callee->UseJit) {
          Callee->HotCount += 8;
          if (Callee->HotCount >= T.TierUpThreshold && T.Hooks)
            T.Hooks->onFuncHot(T, Callee);
        }
        if (!pushWasmFrame(T, Callee, ArgBase))
          return RunSignal::Trapped;
        if (T.Frames.back().Kind == FrameKind::Jit)
          return RunSignal::SwitchTier;
        if (!restore())
          return runInterpreter(T, EntryDepth);
        NEXT_AT();
      }

      OP(CallIndirect) {
        uint32_t EIdx = uint32_t(POP());
        Table &Tab = Inst->Tables[U->Aux];
        if (EIdx >= Tab.Elems.size())
          TRAP(TrapReason::TableOutOfBounds);
        uint64_t Bits = Tab.Elems[EIdx];
        if (Bits == 0)
          TRAP(TrapReason::NullFuncRef);
        FuncInstance *Callee = Inst->func(uint32_t(Bits - 1));
        if (!(*Callee->Type == Inst->M->Types[U->A]))
          TRAP(TrapReason::IndirectCallTypeMismatch);
        uint32_t NArgs = uint32_t(Callee->Type->Params.size());
        uint32_t ArgBase = SpAbs - NArgs;
        F->Ip = TOp(U[1].Op) == TOp::FuelGate ? U[1].A : U[1].BcIp;
        F->Stp = U[1].Stp;
        F->Sp = ArgBase; // Args are consumed by the callee.
        if (Callee->Host) {
          if (!callHostFunc(T, Callee, ArgBase, U->BcIp))
            return RunSignal::Trapped;
          SpAbs = ArgBase + uint32_t(Callee->Type->Results.size());
          F->Sp = SpAbs;
          if (!restore())
            return runInterpreter(T, EntryDepth);
          NEXT_AT();
        }
        if (!pushWasmFrame(T, Callee, ArgBase))
          return RunSignal::Trapped;
        if (T.Frames.back().Kind == FrameKind::Jit)
          return RunSignal::SwitchTier;
        if (!restore())
          return runInterpreter(T, EntryDepth);
        NEXT_AT();
      }

      OP(Drop)
      --SpAbs;
      NEXT_SEQ();

      OP(Select) {
        uint32_t Cond = uint32_t(POP());
        if (!Cond) {
          S[SpAbs - 2] = S[SpAbs - 1];
          if (Tg)
            Tg[SpAbs - 2] = Tg[SpAbs - 1];
        }
        --SpAbs;
      }
      NEXT_SEQ();

      OP(LocalGet) {
        S[SpAbs] = S[LocalBase + U->A];
        if (Tg)
          Tg[SpAbs] = Tg[LocalBase + U->A];
        ++SpAbs;
      }
      NEXT_SEQ();

      OP(LocalSet)
      S[LocalBase + U->A] = POP();
      NEXT_SEQ();

      OP(LocalTee)
      S[LocalBase + U->A] = TOP();
      NEXT_SEQ();

      OP(GlobalGet) {
        const Global &G = Inst->Globals[U->A];
        S[SpAbs] = G.Bits;
        if (Tg)
          Tg[SpAbs] = uint8_t(G.Type);
        ++SpAbs;
      }
      NEXT_SEQ();

      OP(GlobalSet)
      Inst->Globals[U->A].Bits = POP();
      NEXT_SEQ();

      OP(MemorySize)
      PUSH(Inst->Memory.pages(), I32);
      NEXT_SEQ();

      OP(MemoryGrow) {
        uint32_t Delta = uint32_t(TOP());
        int64_t Old = Inst->Memory.grow(Delta);
        S[SpAbs - 1] = uint64_t(uint32_t(Old));
        MemData = Inst->Memory.data();
        MemSize = Inst->Memory.byteSize();
      }
      NEXT_SEQ();

      OP(Const) {
        // i32/i64/f32/f64.const, ref.null and ref.func all pre-decode to
        // one immediate-push unit (bits + tag).
        S[SpAbs] = U->B;
        if (Tg)
          Tg[SpAbs] = uint8_t(U->Aux);
        ++SpAbs;
      }
      NEXT_SEQ();

      OP(MemoryCopy) {
        uint64_t Len = uint32_t(POP());
        uint64_t Src = uint32_t(POP());
        uint64_t Dst = uint32_t(POP());
        if (Src + Len > MemSize || Dst + Len > MemSize)
          TRAP(TrapReason::MemOutOfBounds);
        memmove(MemData + Dst, MemData + Src, size_t(Len));
        Inst->Memory.noteWrite(Dst + Len);
      }
      NEXT_SEQ();

      OP(MemoryFill) {
        uint64_t Len = uint32_t(POP());
        uint32_t Val = uint32_t(POP());
        uint64_t Dst = uint32_t(POP());
        if (Dst + Len > MemSize)
          TRAP(TrapReason::MemOutOfBounds);
        memset(MemData + Dst, int(Val & 0xff), size_t(Len));
        Inst->Memory.noteWrite(Dst + Len);
      }
      NEXT_SEQ();

      OP(SetGet) {
        // Fused local.set A; local.get Aux (tee-shaped when A == Aux).
        S[LocalBase + U->A] = S[--SpAbs];
        S[SpAbs] = S[LocalBase + U->Aux];
        if (Tg)
          Tg[SpAbs] = Tg[LocalBase + U->Aux];
        ++SpAbs;
      }
      NEXT_SEQ();

      OP(FuelGate) {
        // Loop-entry fallthrough charge (taken backedges charge in takeBr
        // and resolve past this unit). Trap ip is the header ip — the same
        // coordinate every other tier reports for fuel exhaustion here.
        if (WISP_UNLIKELY(T.Governed)) {
          TrapReason R = T.governCheck();
          if (WISP_UNLIKELY(R != TrapReason::None))
            TRAP(R);
        }
      }
      NEXT_SEQ();

      // Shared simple ops and superinstructions, generated from the same
      // handler list the switch interpreter expands. Each fusible operator
      // contributes its plain form plus the fused operand/branch forms
      // from ONE expression, so the variants cannot drift.
#define WISP_OP(Name, ...)                                                     \
  OP(Name) { __VA_ARGS__; }                                                    \
  NEXT_SEQ();
#define WISP_OP_FC(Name, ...)                                                  \
  OP(Name) { __VA_ARGS__; }                                                    \
  NEXT_SEQ();
#define WISP_FUSE_BINOP(Name, Expr, Ty)                                        \
  OP(Name) { BIN_RETAG(Expr, Ty); }                                            \
  NEXT_SEQ();                                                                  \
  OP(GetGet##Name) {                                                           \
    uint64_t A = S[LocalBase + U->A];                                          \
    uint64_t B = S[LocalBase + U->Aux];                                        \
    (void)A;                                                                   \
    (void)B;                                                                   \
    S[SpAbs] = (Expr);                                                         \
    if (Tg)                                                                    \
      Tg[SpAbs] = uint8_t(ValType::Ty);                                        \
    ++SpAbs;                                                                   \
  }                                                                            \
  NEXT_SEQ();                                                                  \
  OP(GetConst##Name) {                                                         \
    uint64_t A = S[LocalBase + U->A];                                          \
    uint64_t B = U->B;                                                         \
    (void)A;                                                                   \
    (void)B;                                                                   \
    S[SpAbs] = (Expr);                                                         \
    if (Tg)                                                                    \
      Tg[SpAbs] = uint8_t(ValType::Ty);                                        \
    ++SpAbs;                                                                   \
  }                                                                            \
  NEXT_SEQ();
#define WISP_FUSE_CMPOP(Name, Cond)                                            \
  WISP_FUSE_BINOP(Name, uint64_t(Cond), I32)                                   \
  OP(Name##ThenBr) {                                                           \
    uint64_t B = S[SpAbs - 1];                                                 \
    uint64_t A = S[SpAbs - 2];                                                 \
    SpAbs -= 2;                                                                \
    (void)A;                                                                   \
    (void)B;                                                                   \
    if (Cond) {                                                                \
      TAKE_BRANCH(U->A, U->Aux, U->ValCount, U->B);                            \
    }                                                                          \
  }                                                                            \
  NEXT_SEQ();                                                                  \
  OP(GetGet##Name##ThenBr) {                                                   \
    uint64_t A = S[LocalBase + (U->X & 0xffff)];                               \
    uint64_t B = S[LocalBase + (U->X >> 16)];                                  \
    (void)A;                                                                   \
    (void)B;                                                                   \
    if (Cond) {                                                                \
      TAKE_BRANCH(U->A, U->Aux, U->ValCount, U->B);                            \
    }                                                                          \
  }                                                                            \
  NEXT_SEQ();
#include "interp/handlers.inc"
}
