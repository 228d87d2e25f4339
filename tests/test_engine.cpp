//===- tests/test_engine.cpp - engine facade, tiering and GC tests ---------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include "engine/engine.h"
#include "fuzz/randwasm.h"

#include <gtest/gtest.h>

using namespace wisp;

namespace {

std::vector<uint8_t> loopSumModule() {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  uint32_t Sum = F.addLocal(ValType::I32);
  F.block();
  F.localGet(0);
  F.op(Opcode::I32Eqz);
  F.brIf(0);
  F.loop();
  F.localGet(Sum);
  F.localGet(0);
  F.op(Opcode::I32Add);
  F.localSet(Sum);
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Sub);
  F.localTee(0);
  F.brIf(0);
  F.end();
  F.end();
  F.localGet(Sum);
  MB.exportFunc("run", MB.funcIndex(F));
  return MB.build();
}

TEST(Engine, InterpMode) {
  EngineConfig Cfg;
  Cfg.Name = "test-int";
  Cfg.Mode = ExecMode::Interp;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(loopSumModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  EXPECT_TRUE(LM->Codes.empty());
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {Value::makeI32(100)}, &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(5050));
  EXPECT_GT(E.thread().InterpSteps, 0u);
}

TEST(Engine, JitModeCompilesEverythingAtLoad) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(loopSumModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  EXPECT_EQ(LM->Codes.size(), 1u);
  EXPECT_GT(LM->Stats.CodeInsts, 0u);
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {Value::makeI32(100)}, &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(5050));
  EXPECT_GT(E.thread().JitCycles, 0u);
}

TEST(Engine, JitLazyCompilesOnFirstCall) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::JitLazy;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(loopSumModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  EXPECT_TRUE(LM->Codes.empty()); // Nothing compiled at load.
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {Value::makeI32(10)}, &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(55));
  EXPECT_EQ(LM->Codes.size(), 1u); // Compiled during the first invoke.
}

TEST(Engine, TieredOsrEntersJitMidLoop) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Tiered;
  Cfg.TierUpThreshold = 50;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(loopSumModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  // A single long-running invocation must tier up via OSR mid-loop.
  ASSERT_EQ(E.invoke(*LM, "run", {Value::makeI32(100000)}, &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(705082704)); // Sum mod 2^32.
  EXPECT_EQ(LM->Codes.size(), 1u);              // OSR-compiled.
  EXPECT_GT(E.thread().JitCycles, 0u);          // Ran in JIT after OSR.
  EXPECT_GT(E.thread().InterpSteps, 0u);        // Started interpreted.
}

TEST(Engine, TieredHotFunctionCompiledOnEntryCount) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Tiered;
  Cfg.TierUpThreshold = 64;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(loopSumModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  for (int I = 0; I < 50 && LM->Codes.empty(); ++I)
    E.invoke(*LM, "run", {Value::makeI32(3)}, &Out);
  // Short runs only: entry counters must eventually trigger compilation.
  EXPECT_FALSE(LM->Codes.empty());
  E.invoke(*LM, "run", {Value::makeI32(10)}, &Out);
  EXPECT_EQ(Out[0], Value::makeI32(55));
}

TEST(Engine, TierDownDeoptsRunningFrame) {
  // A function that calls a host hook mid-loop; the hook requests tier-down
  // and the frame must continue in the interpreter with identical results.
  ModuleBuilder MB;
  uint32_t HostT = MB.addType({}, {});
  uint32_t Imp = MB.importFunc("t", "poke", HostT);
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  uint32_t Sum = F.addLocal(ValType::I32);
  F.block();
  F.localGet(0);
  F.op(Opcode::I32Eqz);
  F.brIf(0);
  F.loop();
  F.call(Imp);
  F.localGet(Sum);
  F.localGet(0);
  F.op(Opcode::I32Add);
  F.localSet(Sum);
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Sub);
  F.localTee(0);
  F.brIf(0);
  F.end();
  F.end();
  F.localGet(Sum);
  MB.exportFunc("run", MB.funcIndex(F));

  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Cfg.Opts.EmitDeoptChecks = true;
  Engine E(Cfg);
  int Calls = 0;
  Engine *EP = &E;
  LoadedModule *LMP = nullptr;
  E.hosts().add("t", "poke", FuncType{{}, {}},
                [&Calls, EP, &LMP](Instance &, const Value *, Value *) {
                  if (++Calls == 5)
                    EP->requestTierDown(*LMP, 1);
                  return TrapReason::None;
                });
  WasmError Err;
  auto LM = E.load(MB.build(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  LMP = LM.get();
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {Value::makeI32(20)}, &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(210));
  EXPECT_EQ(Calls, 20);
  // After tier-down the interpreter must have executed some steps.
  EXPECT_GT(E.thread().InterpSteps, 0u);
}

// --- GC root scanning across tag strategies (paper §IV.C) ---

std::vector<uint8_t> gcModule() {
  ModuleBuilder MB;
  uint32_t AllocT = MB.addType({ValType::I64}, {ValType::ExternRef});
  uint32_t CollectT = MB.addType({}, {ValType::I32});
  uint32_t PayloadT = MB.addType({ValType::ExternRef}, {ValType::I64});
  uint32_t Alloc = MB.importFunc("wisp", "alloc", AllocT);
  uint32_t Collect = MB.importFunc("wisp", "collect", CollectT);
  uint32_t Payload = MB.importFunc("wisp", "payload", PayloadT);
  // run(): a = alloc(11); b = alloc(22); drop b; collect();
  //        return payload(a) + collected_count
  uint32_t T = MB.addType({}, {ValType::I64});
  FuncBuilder &F = MB.addFunc(T);
  uint32_t A = F.addLocal(ValType::ExternRef);
  F.i64Const(11);
  F.call(Alloc);
  F.localSet(A);
  F.i64Const(22);
  F.call(Alloc);
  F.drop(); // b is garbage (its ref is gone from the stack).
  F.call(Collect);
  F.op(Opcode::I64ExtendI32U);
  F.localGet(A);
  F.call(Payload);
  F.op(Opcode::I64Add);
  MB.exportFunc("run", MB.funcIndex(F));
  return MB.build();
}

class GcTagModes : public ::testing::TestWithParam<TagMode> {};

TEST_P(GcTagModes, LiveRootsSurviveCollection) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Cfg.Opts.Tags = GetParam();
  Engine E(Cfg);
  installGcHostFuncs(E);
  WasmError Err;
  auto LM = E.load(gcModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {}, &Out), TrapReason::None);
  // payload(a)=11 must survive. Precise modes also collect the dropped
  // object (result 12); conservative stale-tag scans may retain it
  // (result 11). Either is sound for a non-moving collector.
  EXPECT_TRUE(Out[0].asI64() == 11 || Out[0].asI64() == 12)
      << Out[0].toString();
}

INSTANTIATE_TEST_SUITE_P(Modes, GcTagModes,
                         ::testing::Values(TagMode::Eager, TagMode::OnDemand,
                                           TagMode::Lazy, TagMode::StackMap));

TEST(EngineGc, PreciseCollectionWithOnDemandTags) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Cfg.Opts.Tags = TagMode::OnDemand;
  Engine E(Cfg);
  installGcHostFuncs(E);
  WasmError Err;
  auto LM = E.load(gcModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {}, &Out), TrapReason::None);
  // 11 (payload of a) + 1 (one object collected).
  EXPECT_EQ(Out[0], Value::makeI64(12));
}

TEST(EngineGc, InterpreterTagsFindRoots) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Interp;
  Engine E(Cfg);
  installGcHostFuncs(E);
  WasmError Err;
  auto LM = E.load(gcModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {}, &Out), TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI64(12));
}

TEST(EngineGc, TransitiveMarkingThroughLinks) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Cfg.Opts.Tags = TagMode::OnDemand;
  Engine E(Cfg);
  installGcHostFuncs(E);
  ModuleBuilder MB;
  uint32_t AllocT = MB.addType({ValType::I64}, {ValType::ExternRef});
  uint32_t CollectT = MB.addType({}, {ValType::I32});
  uint32_t LinkT = MB.addType({ValType::ExternRef, ValType::ExternRef}, {});
  uint32_t Alloc = MB.importFunc("wisp", "alloc", AllocT);
  uint32_t Collect = MB.importFunc("wisp", "collect", CollectT);
  uint32_t Link = MB.importFunc("wisp", "link", LinkT);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  uint32_t A = F.addLocal(ValType::ExternRef);
  // a = alloc(1); b = alloc(2); link(a, b); drop b ref; collect.
  F.i64Const(1);
  F.call(Alloc);
  F.localSet(A);
  F.localGet(A);
  F.i64Const(2);
  F.call(Alloc);
  F.call(Link);
  F.call(Collect);
  MB.exportFunc("run", MB.funcIndex(F));
  WasmError Err;
  auto LM = E.load(MB.build(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM, "run", {}, &Out), TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(0)); // b reachable through a: nothing freed.
  EXPECT_EQ(E.heap().liveCount(), 2u);
}

// --- Differential tests over the other compiler pipelines ---

struct PipelineCase {
  const char *Name;
  CompilerKind Kind;
};

class PipelineDifferential
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PipelineDifferential, MatchesInterpreter) {
  static const PipelineCase Cases[] = {
      {"twopass", CompilerKind::TwoPass},
      {"copypatch", CompilerKind::CopyPatch},
      {"optimizing", CompilerKind::Optimizing},
  };
  const PipelineCase &PC = Cases[std::get<0>(GetParam())];
  uint64_t Seed = std::get<1>(GetParam());
  RandWasm Gen(Seed);
  FuzzModule FM = Gen.build();
  std::vector<uint8_t> Bytes = FM.toBytes();
  std::vector<Value> Args = {Value::makeI32(int32_t(Seed * 13)),
                             Value::makeI32(int32_t(Seed % 31)),
                             Value::makeF64(double(Seed % 771) / 7.0),
                             Value::makeF64(2.5)};

  EngineConfig RefCfg;
  RefCfg.Mode = ExecMode::Interp;
  Engine RefE(RefCfg);
  WasmError Err;
  auto RefLM = RefE.load(Bytes, &Err);
  ASSERT_NE(RefLM, nullptr) << Err.Message;
  std::vector<Value> RefOut;
  TrapReason RefTrap = RefE.invoke(*RefLM, "f", Args, &RefOut);

  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Cfg.Compiler = PC.Kind;
  Cfg.Opts.Tags = TagMode::None;
  Engine E(Cfg);
  auto LM = E.load(Bytes, &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  TrapReason Trap = E.invoke(*LM, "f", Args, &Out);
  ASSERT_EQ(RefTrap, Trap) << PC.Name << " seed " << Seed;
  if (RefTrap == TrapReason::None) {
    ASSERT_EQ(RefOut.size(), Out.size());
    for (size_t I = 0; I < Out.size(); ++I)
      ASSERT_EQ(RefOut[I], Out[I])
          << PC.Name << " seed " << Seed
          << " interp=" << RefOut[I].toString()
          << " jit=" << Out[I].toString();
    // Memory must match as well.
    ASSERT_EQ(memcmp(RefLM->Inst->Memory.data(), LM->Inst->Memory.data(),
                     RefLM->Inst->Memory.byteSize()),
              0)
        << PC.Name << " seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineDifferential,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Range(uint64_t(1), uint64_t(60))));

// Runs \p Export on every JIT pipeline and checks the single i32 result.
static void expectAllPipelines(const std::vector<uint8_t> &Bytes,
                               const char *Export,
                               const std::vector<Value> &Args,
                               int32_t Expected) {
  for (CompilerKind Kind :
       {CompilerKind::SinglePass, CompilerKind::TwoPass,
        CompilerKind::CopyPatch, CompilerKind::Optimizing}) {
    EngineConfig Cfg;
    Cfg.Mode = ExecMode::Jit;
    Cfg.Compiler = Kind;
    Cfg.Opts.Tags = TagMode::None;
    Engine E(Cfg);
    WasmError Err;
    auto LM = E.load(Bytes, &Err);
    ASSERT_NE(LM, nullptr) << Err.Message;
    std::vector<Value> Out;
    ASSERT_EQ(E.invoke(*LM, Export, Args, &Out), TrapReason::None)
        << "kind " << int(Kind);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out[0], Value::makeI32(Expected)) << "kind " << int(Kind);
  }
}

// Regression: a local.set must not clobber stack entries pushed by an
// earlier local.get of the same local. gcd's loop body reads b, computes
// a % b, then overwrites both locals while the old b is still on the
// stack; the optimizing pipeline used to alias the stack entry to the
// local's vreg and return a % b instead of b.
TEST(PipelineLocals, SetDoesNotClobberAliasedStackEntries) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.loop();
  F.localGet(1);
  F.op(Opcode::I32Eqz);
  F.brIf(1);
  F.localGet(1); // Old b stays on the stack across both local.sets.
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32RemU);
  F.localSet(1); // b = a % b
  F.localSet(0); // a = old b
  F.br(0);
  F.end();
  F.end();
  F.localGet(0);
  MB.exportFunc("gcd", MB.funcIndex(F));
  expectAllPipelines(MB.build(), "gcd",
                     {Value::makeI32(3528), Value::makeI32(3780)}, 252);
}

// Regression: an aliased entry pushed *before* a loop must keep its
// pre-loop value even though the local is reassigned on every iteration
// (a rescue emitted at the set site would re-execute per iteration).
TEST(PipelineLocals, AliasPushedBeforeLoopSurvivesIteration) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0); // Pre-loop value; stays on the stack across the loop.
  F.loop();
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.localSet(0);
  F.localGet(0);
  F.i32Const(10);
  F.op(Opcode::I32LtU);
  F.brIf(0);
  F.end();
  MB.exportFunc("f", MB.funcIndex(F));
  expectAllPipelines(MB.build(), "f", {Value::makeI32(3)}, 3);
}

// Regression: an aliased entry pushed before an if must keep its value on
// both arms; the rescue must dominate the join (set only happens in the
// then-arm).
TEST(PipelineLocals, AliasPushedBeforeIfSurvivesBothArms) {
  for (int32_t Cond : {0, 1}) {
    ModuleBuilder MB;
    uint32_t T = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
    FuncBuilder &F = MB.addFunc(T);
    F.localGet(0); // Old value; read again after the if.
    F.localGet(1);
    F.ifOp();
    F.i32Const(99);
    F.localSet(0);
    F.elseOp();
    F.end();
    MB.exportFunc("f", MB.funcIndex(F));
    expectAllPipelines(MB.build(), "f",
                       {Value::makeI32(7), Value::makeI32(Cond)}, 7);
  }
}

// --- Value stack backing: lazily zeroed pages, never a stale lane ------

TEST(ValueStackBacking, FreshThreadReadsZeroAfterAnotherEngineWrote) {
  uint32_t Cap = 0;
  {
    // An engine runs (pushing frames and operands), then its own stack's
    // first and last slots are dirtied before it goes away.
    EngineConfig Cfg;
    Engine E(Cfg);
    WasmError Err;
    auto LM = E.load(loopSumModule(), &Err);
    ASSERT_NE(LM, nullptr) << Err.Message;
    std::vector<Value> Out;
    ASSERT_EQ(E.invoke(*LM, "run", {Value::makeI32(100)}, &Out),
              TrapReason::None);
    ValueStack &VS = E.thread().VS;
    Cap = VS.capacity();
    ASSERT_GT(Cap, 1u);
    VS.setSlot(0, ~uint64_t(0));
    VS.setSlot(Cap - 1, ~uint64_t(0));
    VS.setTag(0, ValType::F64);
    VS.setTag(Cap - 1, ValType::F64);
  }
  Thread T(Cap, /*WithTags=*/true);
  EXPECT_EQ(T.VS.capacity(), Cap);
  EXPECT_EQ(T.VS.slot(0), 0u);
  EXPECT_EQ(T.VS.slot(Cap - 1), 0u);
  // Unwritten tags keep reading as I32, which probes rely on.
  EXPECT_EQ(T.VS.tag(0), ValType::I32);
  EXPECT_EQ(T.VS.tag(Cap - 1), ValType::I32);
}

TEST(ValueStackBacking, MemoryFaultInjectorLeavesStacksAlone) {
  // The injector models linear-memory exhaustion only: an armed countdown
  // must neither fail a stack mapping nor be consumed by one.
  setMemoryFaultCountdown(0);
  {
    Thread T;
    T.VS.setSlot(T.VS.capacity() - 1, 7);
    EXPECT_EQ(T.VS.slot(T.VS.capacity() - 1), 7u);
  }
  LinearMemory Mem;
  Limits L;
  L.Min = 1;
  EXPECT_FALSE(Mem.init(L)); // The countdown was still armed.
  setMemoryFaultCountdown(-1);
  EXPECT_TRUE(Mem.init(L));
}

} // namespace
