//===- tests/test_machine.cpp - assembler and executor tests ---------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include "engine/run.h"
#include "interp/interpreter.h"
#include "interp/threaded.h"
#include "machine/assembler.h"
#include "machine/executor.h"

#include <gtest/gtest.h>

using namespace wisp;

namespace {

/// Fixture that installs hand-assembled machine code for a one-function
/// module so the executor can be driven without a compiler.
class MachineFixture {
public:
  MachineFixture(std::vector<ValType> Params, std::vector<ValType> Rets,
                 uint32_t ExtraSlots = 8) {
    ModuleBuilder MB;
    uint32_t Ty = MB.addType(Params, Rets);
    FuncBuilder &F = MB.addFunc(Ty);
    F.unreachable(); // Body unused; machine code replaces it.
    MB.exportFunc("f", MB.funcIndex(F));
    M = buildAndValidate(MB);
    WasmError Err;
    Inst = instantiate(*M, Hosts, nullptr, &Err);
    EXPECT_TRUE(Inst != nullptr);
    T.Inst = Inst.get();
    Code.FuncIndex = 0;
    Code.FrameSlots = uint32_t(Params.size()) + ExtraSlots;
    FuncInstance *FI = Inst->func(0);
    FI->Code = &Code;
    FI->UseJit = true;
  }

  InvokeResult run(const std::vector<Value> &Args) {
    InvokeResult R;
    std::vector<Value> Out;
    R.Trap = invoke(T, Inst->func(0), Args, &Out);
    R.Results = std::move(Out);
    return R;
  }

  std::unique_ptr<Module> M;
  std::unique_ptr<Instance> Inst;
  HostRegistry Hosts;
  MCode Code;
  Thread T;
};

TEST(Machine, MovAndArith) {
  MachineFixture Fx({ValType::I32, ValType::I32}, {ValType::I32});
  Assembler A(Fx.Code);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);  // g0 = arg0
  A.emit(MOp::LdSlot, 1, 0, 0, 0, 1);  // g1 = arg1
  A.emit(MOp::Add32, 2, 0, 1);         // g2 = g0 + g1
  A.emit(MOp::MulI32, 2, 2, 0, 0, 10); // g2 *= 10
  A.emit(MOp::StSlot, 2, 0, 0, 0, 0);  // result slot 0
  A.emit(MOp::StTag, uint8_t(ValType::I32), 0, 0, 0, 0);
  A.emit(MOp::Ret);
  EXPECT_EQ(Fx.run({Value::makeI32(3), Value::makeI32(4)}).one(),
            Value::makeI32(70));
  EXPECT_GT(Fx.T.JitCycles, 0u);
}

TEST(Machine, LabelsAndLoops) {
  // Sum 1..n with a backward branch.
  MachineFixture Fx({ValType::I32}, {ValType::I32});
  Assembler A(Fx.Code);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0); // g0 = n
  A.emit(MOp::MovRI, 1, 0, 0, 0, 0);  // g1 = sum
  Label Head = A.newLabel(), Done = A.newLabel();
  A.bind(Head);
  A.brCmpI32(Cond::Eq, 0, 0, Done);
  A.emit(MOp::Add32, 1, 1, 0);
  A.emit(MOp::AddI32, 0, 0, 0, 0, -1);
  A.jmp(Head);
  A.bind(Done);
  A.emit(MOp::StSlot, 1, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  EXPECT_EQ(Fx.run({Value::makeI32(100)}).one(), Value::makeI32(5050));
}

TEST(Machine, ForwardLabelPatching) {
  MachineFixture Fx({ValType::I32}, {ValType::I32});
  Assembler A(Fx.Code);
  Label L1 = A.newLabel();
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);
  A.jmpIf(0, L1);
  A.emit(MOp::MovRI, 1, 0, 0, 0, 11);
  Label Out = A.newLabel();
  A.jmp(Out);
  A.bind(L1);
  A.emit(MOp::MovRI, 1, 0, 0, 0, 22);
  A.bind(Out);
  A.emit(MOp::StSlot, 1, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  EXPECT_EQ(Fx.run({Value::makeI32(1)}).one(), Value::makeI32(22));
  EXPECT_EQ(Fx.run({Value::makeI32(0)}).one(), Value::makeI32(11));
}

TEST(Machine, BrTableDispatch) {
  MachineFixture Fx({ValType::I32}, {ValType::I32});
  Assembler A(Fx.Code);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);
  Label C0 = A.newLabel(), C1 = A.newLabel(), Def = A.newLabel(),
        Out = A.newLabel();
  A.brTable(0, {C0, C1, Def});
  A.bind(C0);
  A.emit(MOp::MovRI, 1, 0, 0, 0, 100);
  A.jmp(Out);
  A.bind(C1);
  A.emit(MOp::MovRI, 1, 0, 0, 0, 101);
  A.jmp(Out);
  A.bind(Def);
  A.emit(MOp::MovRI, 1, 0, 0, 0, 999);
  A.bind(Out);
  A.emit(MOp::StSlot, 1, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  EXPECT_EQ(Fx.run({Value::makeI32(0)}).one(), Value::makeI32(100));
  EXPECT_EQ(Fx.run({Value::makeI32(1)}).one(), Value::makeI32(101));
  EXPECT_EQ(Fx.run({Value::makeI32(7)}).one(), Value::makeI32(999));
}

TEST(Machine, FloatOps) {
  MachineFixture Fx({ValType::F64, ValType::F64}, {ValType::F64});
  Assembler A(Fx.Code);
  A.emit(MOp::LdSlotF, 0, 0, 0, 0, 0);
  A.emit(MOp::LdSlotF, 1, 0, 0, 0, 1);
  A.emit(MOp::MulF64, 2, 0, 1);
  A.emit(MOp::SqrtF64, 2, 2);
  A.emit(MOp::StSlotF, 2, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  EXPECT_EQ(Fx.run({Value::makeF64(2.0), Value::makeF64(8.0)}).one(),
            Value::makeF64(4.0));
}

TEST(Machine, DivTrap) {
  MachineFixture Fx({ValType::I32, ValType::I32}, {ValType::I32});
  Assembler A(Fx.Code);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);
  A.emit(MOp::LdSlot, 1, 0, 0, 0, 1);
  A.emit(MOp::DivS32, 2, 0, 1);
  A.emit(MOp::StSlot, 2, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  EXPECT_EQ(Fx.run({Value::makeI32(10), Value::makeI32(0)}).Trap,
            TrapReason::DivByZero);
  EXPECT_EQ(Fx.run({Value::makeI32(10), Value::makeI32(3)}).one(),
            Value::makeI32(3));
}

TEST(Machine, MemoryAccessAndBounds) {
  ModuleBuilder MB;
  MB.addMemory(1);
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  F.unreachable();
  MB.exportFunc("f", MB.funcIndex(F));
  auto M = buildAndValidate(MB);
  HostRegistry Hosts;
  WasmError Err;
  auto Inst = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr);
  Thread T;
  T.Inst = Inst.get();
  MCode Code;
  Code.FrameSlots = 8;
  Assembler A(Code);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);     // g0 = addr
  A.emit(MOp::MovRI, 1, 0, 0, 0, 0x1234);
  A.emit(MOp::StM32, 1, 0, 0, 0, 4);      // mem[addr+4] = g1
  A.emit(MOp::LdM16U32, 2, 0, 0, 0, 4);   // g2 = mem16[addr+4]
  A.emit(MOp::StSlot, 2, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  FuncInstance *FI = Inst->func(0);
  FI->Code = &Code;
  FI->UseJit = true;
  std::vector<Value> Out;
  EXPECT_EQ(invoke(T, FI, {Value::makeI32(16)}, &Out), TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(0x1234));
  EXPECT_EQ(invoke(T, FI, {Value::makeI32(65535)}, &Out),
            TrapReason::MemOutOfBounds);
}

TEST(Machine, CntIncIntrinsic) {
  uint64_t Counter = 0;
  MachineFixture Fx({}, {ValType::I32});
  Assembler A(Fx.Code);
  A.emit(MOp::CntInc, 0, 0, 0, 0, int64_t(uintptr_t(&Counter)));
  A.emit(MOp::CntInc, 0, 0, 0, 0, int64_t(uintptr_t(&Counter)));
  A.emit(MOp::MovRI, 0, 0, 0, 0, 0);
  A.emit(MOp::StSlot, 0, 0, 0, 0, 0);
  A.emit(MOp::StTag, uint8_t(ValType::I32), 0, 0, 0, 0);
  A.emit(MOp::Ret);
  Fx.run({});
  EXPECT_EQ(Counter, 2u);
}

TEST(Machine, ListingIsPrintable) {
  MCode Code;
  Assembler A(Code);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);
  A.emit(MOp::AddI32, 0, 0, 0, 0, 7);
  A.emit(MOp::Ret);
  std::string L = Code.toString();
  EXPECT_NE(L.find("LdSlot"), std::string::npos);
  EXPECT_NE(L.find("AddI32"), std::string::npos);
  EXPECT_NE(L.find("imm=7"), std::string::npos);
}

// --- Code layout pin of the dispatch loop --------------------------------

TEST(DispatchLayout, PinnedDispatchLoopsAre64ByteAligned) {
  // A dispatch loop's speed swings by up to 20-30% with its offset within
  // a 64-byte fetch block; the declarations pin these (see executor.h and
  // interpreter.h).
  auto Exec = reinterpret_cast<uintptr_t>(&runExecutor);
  EXPECT_EQ(Exec % 64, 0u) << std::hex << Exec;
  auto Threaded = reinterpret_cast<uintptr_t>(&runThreadedInterpreter);
  EXPECT_EQ(Threaded % 64, 0u) << std::hex << Threaded;
  auto Interp = reinterpret_cast<uintptr_t>(&runInterpreter);
  EXPECT_EQ(Interp % 64, 16u) << std::hex << Interp;
}

} // namespace
