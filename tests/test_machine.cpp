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

#include <set>

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

TEST(Machine, OpcodeNamesComeFromTheOneList) {
  // MOp and mopName expand the same list (machine/mops.def), so every
  // opcode has its own name, in encoding order.
  std::set<std::string> Names;
  for (size_t Op = 0; Op < size_t(MOp::NumOps); ++Op)
    EXPECT_TRUE(Names.insert(mopName(MOp(Op))).second) << Op;
  EXPECT_STREQ(mopName(MOp::Nop), "Nop");
  EXPECT_STREQ(mopName(MOp::FuelCheck), "FuelCheck");
  EXPECT_STREQ(mopName(MOp::NumOps), "NumOps");
  EXPECT_STREQ(mopName(MOp(uint16_t(MOp::NumOps) + 1)), "<bad mop>");
}

// --- Pointer-pc conversions ----------------------------------------------
//
// The executor walks a pointer into the instruction array and turns it back
// into an index only to write a frame's Pc, to map a trap through the line
// table, and to resolve a jump target. Each test drives one of them.

bool hasOp(const MCode &Code, MOp Op) {
  for (const MInst &I : Code.Insts)
    if (I.Op == Op)
      return true;
  return false;
}

TEST(MachinePc, TrapAfterTakenJumpsReportsTheInterpreterIp) {
  // f(n): count n down to 0 in a loop closed by a fused compare+branch
  // (BrCmpI32, taken n-1 times), leave two blocks with a br (Jmp), then
  // divide by the counter, which is now 0.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  F.block();
  F.block();
  F.loop();
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Sub);
  F.localSet(0);
  F.localGet(0);
  F.i32Const(0);
  F.op(Opcode::I32GtS);
  F.brIf(0);
  F.end();
  F.br(1);
  F.end();
  F.i32Const(99);
  F.localSet(0);
  F.end();
  F.i32Const(10);
  F.localGet(0);
  F.op(Opcode::I32DivS);
  MB.exportFunc("f", MB.funcIndex(F));

  InterpFixture Fx(MB);
  ASSERT_TRUE(Fx.ok());
  EXPECT_EQ(Fx.call("f", {Value::makeI32(5)}).Trap, TrapReason::DivByZero);
  uint32_t InterpIp = Fx.T.TrapIp;

  Fx.jitAll(CompilerOptions::allopt());
  ASSERT_EQ(Fx.Codes.size(), 1u);
  EXPECT_TRUE(hasOp(*Fx.Codes[0], MOp::BrCmpI32)) << Fx.Codes[0]->toString();
  EXPECT_TRUE(hasOp(*Fx.Codes[0], MOp::Jmp)) << Fx.Codes[0]->toString();
  EXPECT_EQ(Fx.callJit("f", {Value::makeI32(5)}).Trap, TrapReason::DivByZero);
  EXPECT_EQ(Fx.T.TrapIp, InterpIp);
  EXPECT_GT(Fx.T.JitCycles, 0u);
}

TEST(MachinePc, CallDirectReturnResumesAfterTheCall) {
  // Two hand-assembled functions: f(x) = g(x) + 100, g(x) = 3x. Every
  // instruction after the call must run exactly once: resuming at the
  // call recurses until the stack overflows, skipping one loses the
  // callee's result.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  MB.addFunc(Ty).unreachable(); // Bodies unused; machine code replaces them.
  MB.addFunc(Ty).unreachable();
  MB.exportFunc("f", 0);
  InterpFixture Fx(MB);
  ASSERT_TRUE(Fx.ok());
  MCode Caller, Callee;
  Caller.FrameSlots = Callee.FrameSlots = 8;
  Assembler A(Caller);
  A.emit(MOp::LdSlot, 0, 0, 0, 0, 0);           // g0 = x
  A.emit(MOp::StSlot, 0, 0, 0, 0, 2);           // argument at vfp+2
  A.emit(MOp::CallDirect, 0, 0, 0, 0, 1, 2);    // g(x) -> slot 2
  A.emit(MOp::LdSlot, 1, 0, 0, 0, 2);           // g1 = g(x)
  A.emit(MOp::AddI32, 1, 1, 0, 0, 100);         // g1 += 100
  A.emit(MOp::StSlot, 1, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  Assembler B(Callee);
  B.emit(MOp::LdSlot, 0, 0, 0, 0, 0);
  B.emit(MOp::MulI32, 0, 0, 0, 0, 3);
  B.emit(MOp::StSlot, 0, 0, 0, 0, 0);
  B.emit(MOp::Ret);
  MCode *Codes[] = {&Caller, &Callee};
  for (uint32_t I = 0; I < 2; ++I) {
    Fx.Inst->func(I)->Code = Codes[I];
    Fx.Inst->func(I)->UseJit = true;
  }
  // Fuel (one unit per frame push) turns a resume that re-runs the call
  // into a trap instead of an endless loop.
  Fx.T.armGovernance(true, 100);
  EXPECT_EQ(Fx.callJit("f", {Value::makeI32(5)}).one(), Value::makeI32(115));
  // Modeled cycles are exact: caller 2+2+5+2+1+2+3, callee 2+3+2+3.
  EXPECT_EQ(Fx.T.JitCycles, 27u);
  EXPECT_EQ(Fx.callJit("f", {Value::makeI32(-7)}).one(), Value::makeI32(79));
}

TEST(MachinePc, DeoptCheckTierDownRewritesTheFrame) {
  // A requested tier-down at a checkpoint turns the running frame into an
  // interpreter frame at the checkpoint's bytecode coordinates and stops
  // the executor there, with the cycles run so far charged.
  MachineFixture Fx({}, {ValType::I32});
  Assembler A(Fx.Code);
  A.emit(MOp::MovRI, 0, 0, 0, 0, 1);
  A.emit(MOp::DeoptCheck, 0, 0, 0, 0, 0x2a, 3);
  A.emit(MOp::TrapOp, 0, 0, 0, 0, int64_t(TrapReason::Unreachable));
  FuncInstance *FI = Fx.Inst->func(0);
  FI->DeoptRequested = true;
  Fx.T.Frames.clear();
  ASSERT_TRUE(pushWasmFrame(Fx.T, FI, 0));
  EXPECT_EQ(runExecutor(Fx.T, 1), RunSignal::SwitchTier);
  ASSERT_EQ(Fx.T.Frames.size(), 1u);
  const Frame &F = Fx.T.Frames.back();
  EXPECT_EQ(F.Kind, FrameKind::Interp);
  EXPECT_EQ(F.Ip, 0x2au);
  EXPECT_EQ(F.Stp, 3u);
  EXPECT_EQ(F.Code, nullptr);
  EXPECT_EQ(Fx.T.JitCycles, 2u);
  EXPECT_FALSE(Fx.T.trapped());
}

TEST(MachinePc, DeoptedCalleeReturnsToTheCallerAfterTheCall) {
  // f(x) = g(x) + 100 on the SPC with deopt checkpoints; g tiers down at
  // its entry checkpoint, finishes in the interpreter and returns into
  // f's machine frame, which resumes from the pc written back at the call.
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &G = MB.addFunc(Ty);
  G.localGet(0);
  G.i32Const(3);
  G.op(Opcode::I32Mul);
  FuncBuilder &F = MB.addFunc(Ty);
  F.localGet(0);
  F.call(MB.funcIndex(G));
  F.i32Const(100);
  F.op(Opcode::I32Add);
  MB.exportFunc("f", MB.funcIndex(F));
  InterpFixture Fx(MB);
  ASSERT_TRUE(Fx.ok());
  CompilerOptions Opts = CompilerOptions::allopt();
  Opts.EmitDeoptChecks = true;
  Fx.jitAll(Opts);
  ASSERT_TRUE(hasOp(*Fx.Codes[0], MOp::DeoptCheck));
  Fx.Inst->func(MB.funcIndex(G))->DeoptRequested = true;
  Fx.T.armGovernance(true, 100); // As above: a re-run call traps.
  EXPECT_EQ(Fx.callJit("f", {Value::makeI32(5)}).one(), Value::makeI32(115));
  EXPECT_GT(Fx.T.InterpSteps, 0u); // g ran interpreted...
  EXPECT_GT(Fx.T.JitCycles, 0u);   // ...f on the machine, before and after.
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
