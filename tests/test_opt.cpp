//===- tests/test_opt.cpp - optimizing-compiler code-shape tests -----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Static shape checks on what src/opt/optcompiler.cpp emits for small
// hand-built functions: loop temporaries stay in registers, local.set
// coalesces into the defining instruction, immediate compares fuse into
// the branch, and values live across a loop keep their register. Every
// test also runs the function on the optimizing engine and on wizard-int
// and compares the results, with artifact verification on.
//
//===----------------------------------------------------------------------===//

#include "engine/engine.h"
#include "engine/registry.h"
#include "opt/optcompiler.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace wisp;

namespace {

/// Compiles function 0 of \p Bytes with the optimizing pipeline.
std::unique_ptr<MCode> compileFirst(const std::vector<uint8_t> &Bytes) {
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  if (!M)
    return nullptr;
  return compileOptimizing(*M, M->Funcs[0], configByName("wasmtime").Opts);
}

/// Runs export "f" with \p Args on \p Config (artifacts verified).
Value runOn(const char *Config, const std::vector<uint8_t> &Bytes,
            const std::vector<Value> &Args) {
  EngineConfig Cfg = configByName(Config);
  Cfg.VerifyArtifacts = true;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(Bytes, &Err);
  EXPECT_NE(LM, nullptr) << Config << ": " << Err.Message;
  if (!LM)
    return Value{};
  std::vector<Value> Out;
  EXPECT_EQ(E.invoke(*LM, "f", Args, &Out), TrapReason::None) << Config;
  EXPECT_EQ(Out.size(), 1u) << Config;
  return Out.empty() ? Value{} : Out[0];
}

/// The optimizing tier must compute what wizard-int computes.
void expectAgrees(const std::vector<uint8_t> &Bytes,
                  const std::vector<Value> &Args) {
  Value Ref = runOn("wizard-int", Bytes, Args);
  Value Got = runOn("wasmtime", Bytes, Args);
  EXPECT_EQ(Ref, Got) << "expected " << Ref.toString() << " got "
                      << Got.toString();
}

size_t countOp(const MCode &Code, MOp Op) {
  return size_t(std::count_if(Code.Insts.begin(), Code.Insts.end(),
                              [Op](const MInst &I) { return I.Op == Op; }));
}

bool isBranch(MOp Op) {
  return Op == MOp::Jmp || Op == MOp::JmpIf || Op == MOp::JmpIfZ ||
         Op == MOp::BrCmp32 || Op == MOp::BrCmpI32 || Op == MOp::BrCmp64 ||
         Op == MOp::BrCmpI64;
}

/// The [header, backedge] pc range of the single loop in \p Code: the
/// backedge is the one branch whose target is not after it.
std::pair<uint32_t, uint32_t> loopRange(const MCode &Code) {
  for (uint32_t Pc = 0; Pc < Code.Insts.size(); ++Pc) {
    const MInst &I = Code.Insts[Pc];
    if (isBranch(I.Op) && I.Imm <= int64_t(Pc))
      return {uint32_t(I.Imm), Pc};
  }
  ADD_FAILURE() << "no backedge in the compiled loop";
  return {0, 0};
}

bool isSlotAccess(MOp Op) {
  return Op == MOp::LdSlot || Op == MOp::StSlot || Op == MOp::LdSlotF ||
         Op == MOp::StSlotF;
}

/// f(n) = a loop of n rounds over `acc`, each round a chain of 14
/// single-use i32 temporaries. Loop-carried locals: n, i, acc.
std::vector<uint8_t> temporariesLoop() {
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  uint32_t I = F.addLocal(ValType::I32);
  uint32_t Acc = F.addLocal(ValType::I32);
  F.localGet(0);
  F.localSet(Acc);
  F.loop();
  F.localGet(Acc);
  F.i32Const(3);
  F.op(Opcode::I32Mul);
  F.localGet(I);
  F.op(Opcode::I32Xor);
  F.i32Const(7);
  F.op(Opcode::I32Add);
  F.i32Const(5);
  F.op(Opcode::I32Rotl);
  F.localGet(0);
  F.op(Opcode::I32Sub);
  F.i32Const(0x0f0f0f0f);
  F.op(Opcode::I32Or);
  F.localGet(I);
  F.op(Opcode::I32Add);
  F.i32Const(11);
  F.op(Opcode::I32ShrU);
  F.localGet(Acc);
  F.op(Opcode::I32Xor);
  F.i32Const(0x5bd1e995);
  F.op(Opcode::I32Mul);
  F.i32Const(0x7fffffff);
  F.op(Opcode::I32And);
  F.i32Const(2);
  F.op(Opcode::I32Shl);
  F.localGet(I);
  F.op(Opcode::I32Sub);
  F.i32Const(13);
  F.op(Opcode::I32ShrS);
  F.localSet(Acc);
  F.localGet(I);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.localSet(I);
  F.localGet(I);
  F.localGet(0);
  F.op(Opcode::I32LtS);
  F.brIf(0);
  F.end();
  F.localGet(Acc);
  MB.exportFunc("f", 0);
  return MB.build();
}

TEST(OptShape, LoopTemporariesStayInRegisters) {
  std::vector<uint8_t> Bytes = temporariesLoop();
  std::unique_ptr<MCode> Code = compileFirst(Bytes);
  ASSERT_TRUE(Code);
  auto [Head, Back] = loopRange(*Code);
  for (uint32_t Pc = Head; Pc <= Back; ++Pc)
    EXPECT_FALSE(isSlotAccess(Code->Insts[Pc].Op))
        << "slot access at pc " << Pc << " inside the loop ["
        << Head << ", " << Back << "]";
  for (int32_t N : {1, 10, 1000})
    expectAgrees(Bytes, {Value::makeI32(N)});
}

TEST(OptShape, LocalSetOfAddEmitsNoMove) {
  // f(a, b) = (a + b) * (a + b) through a local. The explicit return
  // keeps the function-end result merge (a move of its own) out of it.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  uint32_t C = F.addLocal(ValType::I32);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  F.localSet(C);
  F.localGet(C);
  F.localGet(C);
  F.op(Opcode::I32Mul);
  F.ret();
  MB.exportFunc("f", 0);
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<MCode> Code = compileFirst(Bytes);
  ASSERT_TRUE(Code);
  EXPECT_EQ(countOp(*Code, MOp::MovRR), 0u);
  EXPECT_EQ(countOp(*Code, MOp::Add32), 1u);
  expectAgrees(Bytes, {Value::makeI32(19), Value::makeI32(23)});
  expectAgrees(Bytes, {Value::makeI32(-70000), Value::makeI32(3)});
}

TEST(OptShape, ImmediateCompareFusesIntoBranch) {
  // f(n) counts i up to max(n, 100) with `i < 100` as the loop condition.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  F.loop();
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.localSet(0);
  F.localGet(0);
  F.i32Const(100);
  F.op(Opcode::I32LtS);
  F.brIf(0);
  F.end();
  F.localGet(0);
  MB.exportFunc("f", 0);
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<MCode> Code = compileFirst(Bytes);
  ASSERT_TRUE(Code);
  EXPECT_EQ(countOp(*Code, MOp::BrCmpI32), 1u);
  EXPECT_EQ(countOp(*Code, MOp::CmpSetI32), 0u);
  EXPECT_EQ(countOp(*Code, MOp::Nop), 0u);
  for (int32_t N : {0, 99, 100, 5000, -3})
    expectAgrees(Bytes, {Value::makeI32(N)});
}

TEST(OptShape, ValueLiveAcrossLoopKeepsItsRegister) {
  // f(n) = n * 5 (computed before the loop, used after it) + the result
  // of a temporaries-heavy loop that runs n rounds.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  uint32_t I = F.addLocal(ValType::I32);
  uint32_t Acc = F.addLocal(ValType::I32);
  F.localGet(0);
  F.i32Const(5);
  F.op(Opcode::I32Mul); // Stays on the operand stack across the loop.
  F.loop();
  F.localGet(Acc);
  F.localGet(I);
  F.op(Opcode::I32Xor);
  F.i32Const(0x9e3779b9);
  F.op(Opcode::I32Mul);
  F.i32Const(7);
  F.op(Opcode::I32Rotl);
  F.localGet(0);
  F.op(Opcode::I32Add);
  F.localSet(Acc);
  F.localGet(I);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.localTee(I);
  F.localGet(0);
  F.op(Opcode::I32LtS);
  F.brIf(0);
  F.end();
  F.localGet(Acc);
  F.op(Opcode::I32Add);
  MB.exportFunc("f", 0);
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<MCode> Code = compileFirst(Bytes);
  ASSERT_TRUE(Code);
  auto [Head, Back] = loopRange(*Code);
  // The n * 5 product is the one MulI32 before the header.
  int Def = -1;
  for (uint32_t Pc = 0; Pc < Head; ++Pc)
    if (Code->Insts[Pc].Op == MOp::MulI32)
      Def = int(Pc);
  ASSERT_GE(Def, 0) << "n * 5 not computed into a register before the loop";
  Reg Kept = Code->Insts[size_t(Def)].A;
  // The loop is all-integer: every instruction in it other than a branch
  // or a slot store writes G[A], so none may name the kept register.
  for (uint32_t Pc = Head; Pc <= Back; ++Pc) {
    const MInst &In = Code->Insts[Pc];
    if (isBranch(In.Op) || In.Op == MOp::StSlot || In.Op == MOp::FuelCheck)
      continue;
    EXPECT_NE(In.A, Kept) << "pc " << Pc << " overwrites the live-in value";
  }
  // After the loop the product is read from that same register.
  bool ReadAfter = false;
  for (size_t Pc = Back + 1; Pc < Code->Insts.size(); ++Pc) {
    const MInst &In = Code->Insts[Pc];
    ReadAfter |= In.Op == MOp::Add32 && (In.B == Kept || In.C == Kept);
  }
  EXPECT_TRUE(ReadAfter);
  for (int32_t N : {1, 2, 300})
    expectAgrees(Bytes, {Value::makeI32(N)});
}

// --- Coalescing guards ------------------------------------------------------

TEST(OptCoalesce, DuplicatedStackValueKeepsItsDefinition) {
  // The second a + b is a value-numbering hit: the sum sits on the operand
  // stack twice, so the local.set must copy rather than rename it.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  uint32_t C = F.addLocal(ValType::I32);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  F.localSet(C);
  F.localGet(C);
  F.op(Opcode::I32Add);
  MB.exportFunc("f", 0);
  expectAgrees(MB.build(), {Value::makeI32(40), Value::makeI32(2)});
}

TEST(OptCoalesce, LocalOnTheStackKeepsItsOldValue) {
  // local.get c is on the stack when c is reassigned: f(a, b, c) =
  // c - (a + b) must read the old c.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32, ValType::I32, ValType::I32},
                           {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  F.localGet(2);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  F.localSet(2);
  F.localGet(2);
  F.op(Opcode::I32Sub);
  MB.exportFunc("f", 0);
  expectAgrees(MB.build(),
               {Value::makeI32(5), Value::makeI32(6), Value::makeI32(100)});
}

TEST(OptCoalesce, ValueNumberingForgetsTheRenamedTemporary) {
  // a * b is set into c, then c is changed; a later a * b must not reuse
  // the renamed definition (it now names c).
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  uint32_t C = F.addLocal(ValType::I32);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Mul);
  F.localSet(C);
  F.localGet(C);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.localSet(C);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Mul);
  F.localGet(C);
  F.op(Opcode::I32Sub);
  MB.exportFunc("f", 0);
  expectAgrees(MB.build(), {Value::makeI32(6), Value::makeI32(7)});
}

TEST(OptConst, ConstantsDifferingInTopBitsStayDistinct) {
  // Block-local constant numbering once keyed on Bits * 4, which wraps for
  // 64-bit constants: 2.0 (0x4000000000000000) reused the 0.0 register.
  for (ValType T : {ValType::F64, ValType::I64}) {
    ModuleBuilder MB;
    uint32_t Ty = MB.addType({}, {T});
    FuncBuilder &F = MB.addFunc(Ty);
    if (T == ValType::F64) {
      F.f64Const(0.0);
      F.op(Opcode::Drop);
      F.f64Const(2.0);
    } else {
      F.i64Const(1);
      F.op(Opcode::Drop);
      F.i64Const(int64_t(0x4000000000000001ull));
    }
    MB.exportFunc("f", 0);
    std::vector<uint8_t> Bytes = MB.build();
    Value Got = runOn("wasmtime", Bytes, {});
    EXPECT_EQ(Got.Bits, 0x4000000000000000ull + (T == ValType::I64));
    expectAgrees(Bytes, {});
  }
}

} // namespace
