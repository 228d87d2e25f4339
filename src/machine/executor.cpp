//===- machine/executor.cpp - simulated machine executor --------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Runs compiled MCode for all four compilers. Dispatch is token-threaded
// like the threaded interpreter's: the pc is a pointer into the instruction
// array, and every handler ends in its own indirect jump through a label
// table generated from machine/mops.def. Computed goto is the only dispatch
// here; like the rest of this file (aligned(64), __builtin_expect) it needs
// GCC or Clang.
//
// Frame bookkeeping is done by macros rather than by-reference lambdas, so
// the pc, the cycle count and the label table stay in registers: a lambda
// that captures the pc makes it addressable, and GCC then stores it to the
// stack before every indirect jump. Only three places turn the pc pointer
// back into an index: WRITEBACK, TRAP_IP and the jump targets.
//
//===----------------------------------------------------------------------===//

#include "machine/executor.h"

#include "interp/interpreter.h" // pushWasmFrame, callHostFunc
#include "machine/isa.h"
#include "runtime/hooks.h"
#include "runtime/numerics.h"

#include <iterator>

using namespace wisp;

#define WISP_UNLIKELY(x) __builtin_expect(!!(x), 0)

RunSignal wisp::runExecutor(Thread &T, size_t EntryDepth) {
  assert(!T.Frames.empty() && T.Frames.size() >= EntryDepth);
  assert(T.top().Kind == FrameKind::Jit && "top frame is not jit");

  Instance *Inst = T.Inst;
  uint64_t *S = T.VS.slots();
  uint8_t *Tg = T.VS.tags();

  uint64_t G[NumGpRegs];
  uint64_t FR[NumFpRegs];
  uint64_t Cyc = 0;

  Frame *F = nullptr;
  FuncInstance *Func = nullptr;
  const MCode *Code = nullptr;
  const MInst *Insts = nullptr;
  // The next instruction to run: dispatch advances Pc before the handler
  // runs, so a handler's own instruction is Pc[-1] and a call's written
  // back Pc is already its return address.
  const MInst *Pc = nullptr;
  uint32_t Vfp = 0;
  uint8_t *MemData = nullptr;
  uint64_t MemSize = 0;

#define I (Pc[-1])
#define RELOAD_MEM()                                                           \
  do {                                                                         \
    MemData = Inst->HasMemory ? Inst->Memory.data() : nullptr;                 \
    MemSize = Inst->HasMemory ? Inst->Memory.byteSize() : 0;                   \
  } while (0)
#define RESTORE()                                                              \
  do {                                                                         \
    F = &T.Frames.back();                                                      \
    Func = F->Func;                                                            \
    Code = F->Code;                                                            \
    Insts = Code->Insts.data();                                                \
    Pc = Insts + F->Pc;                                                        \
    Vfp = F->Vfp;                                                              \
    RELOAD_MEM();                                                              \
  } while (0)
#define WRITEBACK() (F->Pc = uint32_t(Pc - Insts))
  // The faulting bytecode offset: machine pc of the current instruction
  // mapped back through the compiler's line table, so JIT tiers report the
  // same trap coordinate as the interpreters. Falls back to the frame's
  // last observed Ip when the pipeline recorded no table (optimizing tier).
#define TRAP_IP() Code->ipForPc(uint32_t(Pc - Insts) - 1, F->Ip)

#define TRAP(Reason)                                                           \
  do {                                                                         \
    WRITEBACK();                                                               \
    T.JitCycles += Cyc;                                                        \
    T.setTrap(Reason, TRAP_IP());                                              \
    return RunSignal::Trapped;                                                 \
  } while (0)

#define FLOAT32(Rg) bitsToF32(uint32_t(Rg))
#define FLOAT64(Rg) bitsToF64(Rg)
#define SETF32(Dst, V) Dst = f32ToBits(V)
#define SETF64(Dst, V) Dst = f64ToBits(V)

#define CHECK_PC()                                                             \
  assert(size_t(Pc - Insts) < Code->Insts.size() && "machine pc out of bounds")

  RESTORE();

  // One label per opcode, in MOp order, plus the NumOps guard.
  static const void *const Handlers[] = {
#define WISP_MOP(Name) &&L_##Name,
#include "machine/mops.def"
      &&L_NumOps};
  static_assert(std::size(Handlers) == size_t(MOp::NumOps) + 1,
                "handler table out of sync with MOp");

#define OP(Name) L_##Name:
#define NEXT()                                                                 \
  do {                                                                         \
    CHECK_PC();                                                                \
    ++Pc;                                                                      \
    ++Cyc;                                                                     \
    goto *Handlers[size_t(I.Op)];                                              \
  } while (0)

  NEXT();

  OP(Nop)
    --Cyc; // Nops left by peephole rewriting are elided from the model.
    NEXT();

  // --- Slot traffic ---
  OP(LdSlot)
    ++Cyc;
    G[I.A] = S[Vfp + I.Imm];
    NEXT();
  OP(LdSlotF)
    ++Cyc;
    FR[I.A] = S[Vfp + I.Imm];
    NEXT();
  OP(StSlot)
    ++Cyc;
    S[Vfp + I.Imm] = G[I.A];
    NEXT();
  OP(StSlotF)
    ++Cyc;
    S[Vfp + I.Imm] = FR[I.A];
    NEXT();
  OP(StTag)
    if (Tg)
      Tg[Vfp + I.Imm] = I.A;
    NEXT();
  OP(StSp)
    F->Sp = Vfp + uint32_t(I.Imm);
    NEXT();
  OP(ZeroSlots) {
    Cyc += uint64_t(I.Imm2);
    memset(S + Vfp + I.Imm, 0, size_t(I.Imm2) * 8);
    NEXT();
  }

  // --- Moves ---
  OP(MovRR)
    G[I.A] = G[I.B];
    NEXT();
  OP(MovFF)
    FR[I.A] = FR[I.B];
    NEXT();
  OP(MovRI)
    G[I.A] = uint64_t(I.Imm);
    NEXT();
  OP(MovFI)
    FR[I.A] = uint64_t(I.Imm);
    NEXT();
  OP(RintFG32)
    G[I.A] = uint32_t(FR[I.B]);
    NEXT();
  OP(RintFG64)
    G[I.A] = FR[I.B];
    NEXT();
  OP(RintGF32)
    FR[I.A] = uint32_t(G[I.B]);
    NEXT();
  OP(RintGF64)
    FR[I.A] = G[I.B];
    NEXT();

  // --- i32 ALU ---
#define A32 uint32_t(G[I.B])
#define B32 uint32_t(G[I.C])
  OP(Add32)
    G[I.A] = uint32_t(A32 + B32);
    NEXT();
  OP(Sub32)
    G[I.A] = uint32_t(A32 - B32);
    NEXT();
  OP(Mul32)
    Cyc += 2;
    G[I.A] = uint32_t(A32 * B32);
    NEXT();
  OP(DivS32) {
    Cyc += 8;
    int32_t R;
    TrapReason Tr = divS32(int32_t(A32), int32_t(B32), &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = uint32_t(R);
    NEXT();
  }
  OP(DivU32) {
    Cyc += 8;
    uint32_t R;
    TrapReason Tr = divU32(A32, B32, &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = R;
    NEXT();
  }
  OP(RemS32) {
    Cyc += 8;
    int32_t R;
    TrapReason Tr = remS32(int32_t(A32), int32_t(B32), &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = uint32_t(R);
    NEXT();
  }
  OP(RemU32) {
    Cyc += 8;
    uint32_t R;
    TrapReason Tr = remU32(A32, B32, &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = R;
    NEXT();
  }
  OP(And32)
    G[I.A] = A32 & B32;
    NEXT();
  OP(Or32)
    G[I.A] = A32 | B32;
    NEXT();
  OP(Xor32)
    G[I.A] = A32 ^ B32;
    NEXT();
  OP(Shl32)
    G[I.A] = shl32(A32, B32);
    NEXT();
  OP(ShrS32)
    G[I.A] = uint32_t(shrS32(int32_t(A32), B32));
    NEXT();
  OP(ShrU32)
    G[I.A] = shrU32(A32, B32);
    NEXT();
  OP(Rotl32)
    G[I.A] = rotl32(A32, B32);
    NEXT();
  OP(Rotr32)
    G[I.A] = rotr32(A32, B32);
    NEXT();
  OP(AddI32)
    G[I.A] = uint32_t(A32 + uint32_t(I.Imm));
    NEXT();
  OP(MulI32)
    Cyc += 2;
    G[I.A] = uint32_t(A32 * uint32_t(I.Imm));
    NEXT();
  OP(AndI32)
    G[I.A] = A32 & uint32_t(I.Imm);
    NEXT();
  OP(OrI32)
    G[I.A] = A32 | uint32_t(I.Imm);
    NEXT();
  OP(XorI32)
    G[I.A] = A32 ^ uint32_t(I.Imm);
    NEXT();
  OP(ShlI32)
    G[I.A] = shl32(A32, uint32_t(I.Imm));
    NEXT();
  OP(ShrSI32)
    G[I.A] = uint32_t(shrS32(int32_t(A32), uint32_t(I.Imm)));
    NEXT();
  OP(ShrUI32)
    G[I.A] = shrU32(A32, uint32_t(I.Imm));
    NEXT();
  OP(Clz32)
    G[I.A] = clz32(A32);
    NEXT();
  OP(Ctz32)
    G[I.A] = ctz32(A32);
    NEXT();
  OP(Popcnt32)
    G[I.A] = popcnt32(A32);
    NEXT();
  OP(Eqz32)
    G[I.A] = A32 == 0;
    NEXT();
  OP(Ext8S32)
    G[I.A] = uint32_t(int32_t(int8_t(uint8_t(A32))));
    NEXT();
  OP(Ext16S32)
    G[I.A] = uint32_t(int32_t(int16_t(uint16_t(A32))));
    NEXT();
  OP(CmpSet32)
    G[I.A] = evalCond32(Cond(I.D), A32, B32);
    NEXT();
  OP(CmpSetI32)
    G[I.A] = evalCond32(Cond(I.D), A32, uint32_t(I.Imm));
    NEXT();

  // --- i64 ALU ---
#define A64 G[I.B]
#define B64 G[I.C]
  OP(Add64)
    G[I.A] = A64 + B64;
    NEXT();
  OP(Sub64)
    G[I.A] = A64 - B64;
    NEXT();
  OP(Mul64)
    Cyc += 2;
    G[I.A] = A64 * B64;
    NEXT();
  OP(DivS64) {
    Cyc += 10;
    int64_t R;
    TrapReason Tr = divS64(int64_t(A64), int64_t(B64), &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = uint64_t(R);
    NEXT();
  }
  OP(DivU64) {
    Cyc += 10;
    uint64_t R;
    TrapReason Tr = divU64(A64, B64, &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = R;
    NEXT();
  }
  OP(RemS64) {
    Cyc += 10;
    int64_t R;
    TrapReason Tr = remS64(int64_t(A64), int64_t(B64), &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = uint64_t(R);
    NEXT();
  }
  OP(RemU64) {
    Cyc += 10;
    uint64_t R;
    TrapReason Tr = remU64(A64, B64, &R);
    if (WISP_UNLIKELY(Tr != TrapReason::None))
      TRAP(Tr);
    G[I.A] = R;
    NEXT();
  }
  OP(And64)
    G[I.A] = A64 & B64;
    NEXT();
  OP(Or64)
    G[I.A] = A64 | B64;
    NEXT();
  OP(Xor64)
    G[I.A] = A64 ^ B64;
    NEXT();
  OP(Shl64)
    G[I.A] = shl64(A64, B64);
    NEXT();
  OP(ShrS64)
    G[I.A] = uint64_t(shrS64(int64_t(A64), B64));
    NEXT();
  OP(ShrU64)
    G[I.A] = shrU64(A64, B64);
    NEXT();
  OP(Rotl64)
    G[I.A] = rotl64(A64, B64);
    NEXT();
  OP(Rotr64)
    G[I.A] = rotr64(A64, B64);
    NEXT();
  OP(AddI64)
    G[I.A] = A64 + uint64_t(I.Imm);
    NEXT();
  OP(MulI64)
    Cyc += 2;
    G[I.A] = A64 * uint64_t(I.Imm);
    NEXT();
  OP(AndI64)
    G[I.A] = A64 & uint64_t(I.Imm);
    NEXT();
  OP(OrI64)
    G[I.A] = A64 | uint64_t(I.Imm);
    NEXT();
  OP(XorI64)
    G[I.A] = A64 ^ uint64_t(I.Imm);
    NEXT();
  OP(ShlI64)
    G[I.A] = shl64(A64, uint64_t(I.Imm));
    NEXT();
  OP(ShrSI64)
    G[I.A] = uint64_t(shrS64(int64_t(A64), uint64_t(I.Imm)));
    NEXT();
  OP(ShrUI64)
    G[I.A] = shrU64(A64, uint64_t(I.Imm));
    NEXT();
  OP(Clz64)
    G[I.A] = clz64(A64);
    NEXT();
  OP(Ctz64)
    G[I.A] = ctz64(A64);
    NEXT();
  OP(Popcnt64)
    G[I.A] = popcnt64(A64);
    NEXT();
  OP(Eqz64)
    G[I.A] = A64 == 0;
    NEXT();
  OP(Ext8S64)
    G[I.A] = uint64_t(int64_t(int8_t(uint8_t(A64))));
    NEXT();
  OP(Ext16S64)
    G[I.A] = uint64_t(int64_t(int16_t(uint16_t(A64))));
    NEXT();
  OP(Ext32S64)
    G[I.A] = uint64_t(int64_t(int32_t(uint32_t(A64))));
    NEXT();
  OP(CmpSet64)
    G[I.A] = evalCond64(Cond(I.D), A64, B64);
    NEXT();
  OP(CmpSetI64)
    G[I.A] = evalCond64(Cond(I.D), A64, uint64_t(I.Imm));
    NEXT();
  OP(Wrap64)
    G[I.A] = uint32_t(G[I.B]);
    NEXT();
  OP(ExtS3264)
    G[I.A] = uint64_t(int64_t(int32_t(uint32_t(G[I.B]))));
    NEXT();

  // --- f32 ALU ---
#define AF FLOAT32(FR[I.B])
#define BF FLOAT32(FR[I.C])
  OP(AddF32)
    Cyc += 2;
    SETF32(FR[I.A], canonNaN(AF + BF));
    NEXT();
  OP(SubF32)
    Cyc += 2;
    SETF32(FR[I.A], canonNaN(AF - BF));
    NEXT();
  OP(MulF32)
    Cyc += 3;
    SETF32(FR[I.A], canonNaN(AF * BF));
    NEXT();
  OP(DivF32)
    Cyc += 8;
    SETF32(FR[I.A], canonNaN(AF / BF));
    NEXT();
  OP(MinF32)
    Cyc += 2;
    SETF32(FR[I.A], wasmMin(AF, BF));
    NEXT();
  OP(MaxF32)
    Cyc += 2;
    SETF32(FR[I.A], wasmMax(AF, BF));
    NEXT();
  OP(CopysignF32)
    SETF32(FR[I.A], std::copysign(AF, BF));
    NEXT();
  OP(AbsF32)
    SETF32(FR[I.A], std::fabs(AF));
    NEXT();
  OP(NegF32)
    FR[I.A] = FR[I.B] ^ 0x80000000u;
    NEXT();
  OP(CeilF32)
    Cyc += 2;
    SETF32(FR[I.A], std::ceil(AF));
    NEXT();
  OP(FloorF32)
    Cyc += 2;
    SETF32(FR[I.A], std::floor(AF));
    NEXT();
  OP(TruncF32)
    Cyc += 2;
    SETF32(FR[I.A], std::trunc(AF));
    NEXT();
  OP(NearestF32)
    Cyc += 2;
    SETF32(FR[I.A], wasmNearest(AF));
    NEXT();
  OP(SqrtF32)
    Cyc += 8;
    SETF32(FR[I.A], canonNaN(std::sqrt(AF)));
    NEXT();

  // --- f64 ALU ---
#define AD FLOAT64(FR[I.B])
#define BD FLOAT64(FR[I.C])
  OP(AddF64)
    Cyc += 2;
    SETF64(FR[I.A], canonNaN(AD + BD));
    NEXT();
  OP(SubF64)
    Cyc += 2;
    SETF64(FR[I.A], canonNaN(AD - BD));
    NEXT();
  OP(MulF64)
    Cyc += 3;
    SETF64(FR[I.A], canonNaN(AD * BD));
    NEXT();
  OP(DivF64)
    Cyc += 10;
    SETF64(FR[I.A], canonNaN(AD / BD));
    NEXT();
  OP(MinF64)
    Cyc += 2;
    SETF64(FR[I.A], wasmMin(AD, BD));
    NEXT();
  OP(MaxF64)
    Cyc += 2;
    SETF64(FR[I.A], wasmMax(AD, BD));
    NEXT();
  OP(CopysignF64)
    SETF64(FR[I.A], std::copysign(AD, BD));
    NEXT();
  OP(AbsF64)
    SETF64(FR[I.A], std::fabs(AD));
    NEXT();
  OP(NegF64)
    FR[I.A] = FR[I.B] ^ 0x8000000000000000ull;
    NEXT();
  OP(CeilF64)
    Cyc += 2;
    SETF64(FR[I.A], std::ceil(AD));
    NEXT();
  OP(FloorF64)
    Cyc += 2;
    SETF64(FR[I.A], std::floor(AD));
    NEXT();
  OP(TruncF64)
    Cyc += 2;
    SETF64(FR[I.A], std::trunc(AD));
    NEXT();
  OP(NearestF64)
    Cyc += 2;
    SETF64(FR[I.A], wasmNearest(AD));
    NEXT();
  OP(SqrtF64)
    Cyc += 10;
    SETF64(FR[I.A], canonNaN(std::sqrt(AD)));
    NEXT();
  OP(CmpSetF32)
    G[I.A] = evalCondF(FCond(I.D), AF, BF);
    NEXT();
  OP(CmpSetF64)
    G[I.A] = evalCondF(FCond(I.D), AD, BD);
    NEXT();

  // --- Conversions ---
#define TRUNC_CASE(Name, View, ToType)                                         \
  OP(Name) {                                                                   \
    Cyc += 4;                                                                  \
    ToType R;                                                                  \
    TrapReason Tr = truncChecked(View, &R);                                    \
    if (WISP_UNLIKELY(Tr != TrapReason::None))                                 \
      TRAP(Tr);                                                                \
    G[I.A] = uint64_t(std::make_unsigned_t<ToType>(R));                        \
    NEXT();                                                                    \
  }
  TRUNC_CASE(TruncF32I32S, FLOAT32(FR[I.B]), int32_t)
  TRUNC_CASE(TruncF32I32U, FLOAT32(FR[I.B]), uint32_t)
  TRUNC_CASE(TruncF64I32S, FLOAT64(FR[I.B]), int32_t)
  TRUNC_CASE(TruncF64I32U, FLOAT64(FR[I.B]), uint32_t)
  TRUNC_CASE(TruncF32I64S, FLOAT32(FR[I.B]), int64_t)
  TRUNC_CASE(TruncF32I64U, FLOAT32(FR[I.B]), uint64_t)
  TRUNC_CASE(TruncF64I64S, FLOAT64(FR[I.B]), int64_t)
  TRUNC_CASE(TruncF64I64U, FLOAT64(FR[I.B]), uint64_t)
#define TRUNCSAT_CASE(Name, View, ToType)                                      \
  OP(Name)                                                                     \
    Cyc += 4;                                                                  \
    G[I.A] = uint64_t(std::make_unsigned_t<ToType>(                            \
        truncSat<decltype(View), ToType>(View)));                              \
    NEXT();
  TRUNCSAT_CASE(TruncSatF32I32S, FLOAT32(FR[I.B]), int32_t)
  TRUNCSAT_CASE(TruncSatF32I32U, FLOAT32(FR[I.B]), uint32_t)
  TRUNCSAT_CASE(TruncSatF64I32S, FLOAT64(FR[I.B]), int32_t)
  TRUNCSAT_CASE(TruncSatF64I32U, FLOAT64(FR[I.B]), uint32_t)
  TRUNCSAT_CASE(TruncSatF32I64S, FLOAT32(FR[I.B]), int64_t)
  TRUNCSAT_CASE(TruncSatF32I64U, FLOAT32(FR[I.B]), uint64_t)
  TRUNCSAT_CASE(TruncSatF64I64S, FLOAT64(FR[I.B]), int64_t)
  TRUNCSAT_CASE(TruncSatF64I64U, FLOAT64(FR[I.B]), uint64_t)
  OP(ConvI32SF32)
    Cyc += 3;
    SETF32(FR[I.A], float(int32_t(uint32_t(G[I.B]))));
    NEXT();
  OP(ConvI32UF32)
    Cyc += 3;
    SETF32(FR[I.A], float(uint32_t(G[I.B])));
    NEXT();
  OP(ConvI64SF32)
    Cyc += 3;
    SETF32(FR[I.A], float(int64_t(G[I.B])));
    NEXT();
  OP(ConvI64UF32)
    Cyc += 3;
    SETF32(FR[I.A], float(G[I.B]));
    NEXT();
  OP(ConvI32SF64)
    Cyc += 3;
    SETF64(FR[I.A], double(int32_t(uint32_t(G[I.B]))));
    NEXT();
  OP(ConvI32UF64)
    Cyc += 3;
    SETF64(FR[I.A], double(uint32_t(G[I.B])));
    NEXT();
  OP(ConvI64SF64)
    Cyc += 3;
    SETF64(FR[I.A], double(int64_t(G[I.B])));
    NEXT();
  OP(ConvI64UF64)
    Cyc += 3;
    SETF64(FR[I.A], double(G[I.B]));
    NEXT();
  OP(DemoteF64)
    Cyc += 2;
    SETF32(FR[I.A], float(FLOAT64(FR[I.B])));
    NEXT();
  OP(PromoteF32)
    Cyc += 2;
    SETF64(FR[I.A], double(FLOAT32(FR[I.B])));
    NEXT();

  // --- Memory ---
#define LOAD_CASE(Name, CType, Conv, Dst)                                      \
  OP(Name) {                                                                   \
    Cyc += 2;                                                                  \
    uint64_t EA = uint64_t(uint32_t(G[I.B])) + uint64_t(I.Imm);                \
    if (WISP_UNLIKELY(EA + sizeof(CType) > MemSize))                           \
      TRAP(TrapReason::MemOutOfBounds);                                        \
    CType V;                                                                   \
    memcpy(&V, MemData + EA, sizeof(CType));                                   \
    Dst[I.A] = Conv;                                                           \
    NEXT();                                                                    \
  }
  LOAD_CASE(LdM8S32, int8_t, uint32_t(int32_t(V)), G)
  LOAD_CASE(LdM8U32, uint8_t, V, G)
  LOAD_CASE(LdM16S32, int16_t, uint32_t(int32_t(V)), G)
  LOAD_CASE(LdM16U32, uint16_t, V, G)
  LOAD_CASE(LdM32, uint32_t, V, G)
  LOAD_CASE(LdM8S64, int8_t, uint64_t(int64_t(V)), G)
  LOAD_CASE(LdM8U64, uint8_t, V, G)
  LOAD_CASE(LdM16S64, int16_t, uint64_t(int64_t(V)), G)
  LOAD_CASE(LdM16U64, uint16_t, V, G)
  LOAD_CASE(LdM32S64, int32_t, uint64_t(int64_t(V)), G)
  LOAD_CASE(LdM32U64, uint32_t, V, G)
  LOAD_CASE(LdM64, uint64_t, V, G)
  LOAD_CASE(LdMF32, uint32_t, V, FR)
  LOAD_CASE(LdMF64, uint64_t, V, FR)
#define STORE_CASE(Name, CType, Src)                                           \
  OP(Name) {                                                                   \
    Cyc += 2;                                                                  \
    uint64_t EA = uint64_t(uint32_t(G[I.B])) + uint64_t(I.Imm);                \
    if (WISP_UNLIKELY(EA + sizeof(CType) > MemSize))                           \
      TRAP(TrapReason::MemOutOfBounds);                                        \
    CType V = CType(Src[I.A]);                                                 \
    memcpy(MemData + EA, &V, sizeof(CType));                                   \
    Inst->Memory.noteWrite(EA + sizeof(CType));                                \
    NEXT();                                                                    \
  }
  STORE_CASE(StM8, uint8_t, G)
  STORE_CASE(StM16, uint16_t, G)
  STORE_CASE(StM32, uint32_t, G)
  STORE_CASE(StM64, uint64_t, G)
  STORE_CASE(StMF32, uint32_t, FR)
  STORE_CASE(StMF64, uint64_t, FR)
  OP(MemSize)
    G[I.A] = Inst->Memory.pages();
    NEXT();
  OP(MemGrow) {
    Cyc += 20;
    int64_t Old = Inst->Memory.grow(uint32_t(G[I.B]));
    G[I.A] = uint64_t(uint32_t(Old));
    MemData = Inst->Memory.data();
    MemSize = Inst->Memory.byteSize();
    NEXT();
  }
  OP(MemCopy) {
    uint64_t Dst = uint32_t(G[I.A]);
    uint64_t Src = uint32_t(G[I.B]);
    uint64_t Len = uint32_t(G[I.C]);
    Cyc += Len / 8 + 2;
    if (WISP_UNLIKELY(Src + Len > MemSize || Dst + Len > MemSize))
      TRAP(TrapReason::MemOutOfBounds);
    memmove(MemData + Dst, MemData + Src, size_t(Len));
    Inst->Memory.noteWrite(Dst + Len);
    NEXT();
  }
  OP(MemFill) {
    uint64_t Dst = uint32_t(G[I.A]);
    uint32_t Val = uint32_t(G[I.B]);
    uint64_t Len = uint32_t(G[I.C]);
    Cyc += Len / 8 + 2;
    if (WISP_UNLIKELY(Dst + Len > MemSize))
      TRAP(TrapReason::MemOutOfBounds);
    memset(MemData + Dst, int(Val & 0xff), size_t(Len));
    Inst->Memory.noteWrite(Dst + Len);
    NEXT();
  }
  OP(GlobGet)
    ++Cyc;
    G[I.A] = Inst->Globals[size_t(I.Imm)].Bits;
    NEXT();
  OP(GlobGetF)
    ++Cyc;
    FR[I.A] = Inst->Globals[size_t(I.Imm)].Bits;
    NEXT();
  OP(GlobSet)
    ++Cyc;
    Inst->Globals[size_t(I.Imm)].Bits = G[I.A];
    NEXT();
  OP(GlobSetF)
    ++Cyc;
    Inst->Globals[size_t(I.Imm)].Bits = FR[I.A];
    NEXT();

  // --- Control ---
  OP(Jmp)
    Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(JmpIf)
    if (G[I.A] & 0xffffffffu)
      Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(JmpIfZ)
    if (!(G[I.A] & 0xffffffffu))
      Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(BrCmp32)
    if (evalCond32(Cond(I.D), uint32_t(G[I.A]), uint32_t(G[I.B])))
      Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(BrCmpI32)
    if (evalCond32(Cond(I.D), uint32_t(G[I.A]), uint32_t(I.Imm2)))
      Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(BrCmp64)
    if (evalCond64(Cond(I.D), G[I.A], G[I.B]))
      Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(BrCmpI64)
    if (evalCond64(Cond(I.D), G[I.A], uint64_t(I.Imm2)))
      Pc = Insts + uint32_t(I.Imm);
    NEXT();
  OP(BrTable) {
    Cyc += 2;
    const std::vector<uint32_t> &Table = Code->BrTables[size_t(I.Imm)];
    uint64_t Idx = G[I.A] & 0xffffffffu;
    if (Idx >= Table.size())
      Idx = Table.size() - 1;
    Pc = Insts + Table[size_t(Idx)];
    NEXT();
  }

  OP(CallDirect) {
    Cyc += 4;
    FuncInstance *Callee = Inst->func(uint32_t(I.Imm));
    uint32_t ArgBase = Vfp + uint32_t(I.Imm2);
    WRITEBACK();
    if (WISP_UNLIKELY(T.TierUpThreshold) && !Callee->UseJit &&
        !Callee->Host) {
      // Lazy/tiered compilation of callees from JIT code.
      Callee->HotCount += 8;
      if (Callee->HotCount >= T.TierUpThreshold && T.Hooks)
        T.Hooks->onFuncHot(T, Callee);
    }
    if (Callee->Host) {
      T.JitCycles += Cyc + 20;
      Cyc = 0;
      if (WISP_UNLIKELY(!callHostFunc(T, Callee, ArgBase, 0))) {
        // Attribute the host error to the call's bytecode only on the
        // trap path; the line-table search is not worth paying on every
        // successful host call.
        T.TrapIp = TRAP_IP();
        return RunSignal::Trapped;
      }
      RELOAD_MEM();
      NEXT();
    }
    if (!pushWasmFrame(T, Callee, ArgBase)) {
      T.JitCycles += Cyc;
      return RunSignal::Trapped;
    }
    if (T.Frames.back().Kind != FrameKind::Jit) {
      T.JitCycles += Cyc;
      Cyc = 0;
      return RunSignal::SwitchTier;
    }
    RESTORE();
    NEXT();
  }

  OP(CallIndirect) {
    Cyc += 6;
    Table &Tab = Inst->Tables[0];
    uint64_t EIdx = G[I.A] & 0xffffffffu;
    if (WISP_UNLIKELY(EIdx >= Tab.Elems.size()))
      TRAP(TrapReason::TableOutOfBounds);
    uint64_t Bits = Tab.Elems[size_t(EIdx)];
    if (WISP_UNLIKELY(Bits == 0))
      TRAP(TrapReason::NullFuncRef);
    FuncInstance *Callee = Inst->func(uint32_t(Bits - 1));
    if (WISP_UNLIKELY(
            !(*Callee->Type == Inst->M->Types[uint32_t(I.Imm)])))
      TRAP(TrapReason::IndirectCallTypeMismatch);
    uint32_t ArgBase = Vfp + uint32_t(I.Imm2);
    WRITEBACK();
    if (WISP_UNLIKELY(T.TierUpThreshold) && !Callee->UseJit &&
        !Callee->Host) {
      Callee->HotCount += 8;
      if (Callee->HotCount >= T.TierUpThreshold && T.Hooks)
        T.Hooks->onFuncHot(T, Callee);
    }
    if (Callee->Host) {
      T.JitCycles += Cyc + 20;
      Cyc = 0;
      if (WISP_UNLIKELY(!callHostFunc(T, Callee, ArgBase, 0))) {
        // Attribute the host error to the call's bytecode only on the
        // trap path; the line-table search is not worth paying on every
        // successful host call.
        T.TrapIp = TRAP_IP();
        return RunSignal::Trapped;
      }
      RELOAD_MEM();
      NEXT();
    }
    if (!pushWasmFrame(T, Callee, ArgBase)) {
      T.JitCycles += Cyc;
      return RunSignal::Trapped;
    }
    if (T.Frames.back().Kind != FrameKind::Jit) {
      T.JitCycles += Cyc;
      Cyc = 0;
      return RunSignal::SwitchTier;
    }
    RESTORE();
    NEXT();
  }

  OP(Ret) {
    Cyc += 2;
    uint32_t RetBase = Vfp; // Results were written at the callee's Vfp.
    uint32_t NRes = uint32_t(Func->Type->Results.size());
    T.Frames.pop_back();
    if (T.Frames.size() < EntryDepth) {
      T.JitCycles += Cyc;
      return RunSignal::Done;
    }
    if (T.Frames.back().Kind != FrameKind::Jit) {
      // Returning into an interpreter frame: the interpreter resumes
      // from its frame's Sp, so set it to the post-call height exactly
      // as the interpreter's own End/Return paths do for their callers.
      // (A JIT caller keeps height in its abstract state and ignores
      // Sp here.) Without this, an interpreter caller resumed at its
      // written-back Sp — which excludes the results — silently
      // dropping the callee's return value on mixed-tier calls.
      T.Frames.back().Sp = RetBase + NRes;
      T.JitCycles += Cyc;
      return RunSignal::SwitchTier;
    }
    RESTORE();
    NEXT();
  }

  OP(TrapOp)
    TRAP(TrapReason(I.Imm));

  // --- Instrumentation & tiering ---
  OP(ProbeFire) {
    Cyc += 250; // Runtime call, probe lookup, accessor allocation (heap).
    WRITEBACK();
    F->Ip = uint32_t(I.Imm);
    if (T.Hooks)
      T.Hooks->fireProbes(T, Func, uint32_t(I.Imm));
    NEXT();
  }
  OP(ProbeTosG) {
    Cyc += 30; // Direct call with the top-of-stack value; no accessor.
    WRITEBACK();
    F->Ip = uint32_t(I.Imm);
    if (T.Hooks)
      T.Hooks->fireProbeTos(T, Func, uint32_t(I.Imm),
                            Value{G[I.A], ValType(I.D)});
    NEXT();
  }
  OP(ProbeTosF) {
    Cyc += 30;
    WRITEBACK();
    F->Ip = uint32_t(I.Imm);
    if (T.Hooks)
      T.Hooks->fireProbeTos(T, Func, uint32_t(I.Imm),
                            Value{FR[I.A], ValType(I.D)});
    NEXT();
  }
  OP(CntInc)
    Cyc += 4;
    assert(I.Imm != 0 && "unbound CntInc patch point reached the executor");
    ++*reinterpret_cast<uint64_t *>(uintptr_t(I.Imm));
    NEXT();
  OP(DeoptCheck)
    // Tier down when explicitly requested or when this frame runs stale
    // code (the function was recompiled, e.g. with probes attached).
    if (WISP_UNLIKELY(Func->DeoptRequested || F->Code != Func->Code)) {
      // Tier down: all state is spilled here by construction; rewrite
      // the frame in place to an interpreter frame (paper Fig. 2).
      F->Kind = FrameKind::Interp;
      F->Ip = uint32_t(I.Imm);
      F->Stp = uint32_t(I.Imm2);
      F->Code = nullptr;
      T.JitCycles += Cyc;
      return RunSignal::SwitchTier;
    }
    NEXT();

  OP(FuelCheck)
    // Governance charge at a loop-header arrival (fallthrough, backedge
    // and OSR-skipped entry all agree with the interpreter tiers by
    // construction; see DESIGN.md). Traps at the bytecode header ip
    // carried in Imm rather than through the line table, so the trap pc
    // is identical across tiers for the same fuel budget.
    if (WISP_UNLIKELY(T.Governed)) {
      TrapReason R = T.governCheck();
      if (WISP_UNLIKELY(R != TrapReason::None)) {
        WRITEBACK();
        T.JitCycles += Cyc;
        T.setTrap(R, uint32_t(I.Imm));
        return RunSignal::Trapped;
      }
    }
    NEXT();

  OP(NumOps)
    assert(false && "invalid machine opcode");
    TRAP(TrapReason::Unreachable);
}
