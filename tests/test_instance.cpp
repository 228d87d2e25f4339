//===- tests/test_instance.cpp - instantiation, images and pooling --------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
// Instantiation correctness: init-expr ordering rules, imported-global
// linking, the 65536-page architectural memory limit, segment edge cases,
// and the instance-image / instance-pool fast paths (which must be
// observably identical to plain instantiate()).
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include "cache/compilecache.h"
#include "engine/engine.h"
#include "instr/monitors.h"

#include <gtest/gtest.h>

using namespace wisp;

namespace {

// --- Init-expr ordering (spec: constant expressions may only reference
// --- already-defined, immutable globals) -------------------------------

TEST(InitExpr, ForwardGlobalGetRejectedAtDecode) {
  // Global 0's initializer names global 1, which is defined later: the
  // spec's "only earlier globals" rule. Before the fix this decoded fine
  // and evalInit read 0 from the not-yet-initialized slot.
  ModuleBuilder MB;
  InitExpr Fwd;
  Fwd.K = InitExpr::GlobalGet;
  Fwd.Index = 1;
  MB.addGlobal(ValType::I32, false, Fwd);
  MB.addGlobal(ValType::I32, false, ModuleBuilder::constInit(ValType::I32, 7));
  expectDecodeError(MB.build());
}

TEST(InitExpr, SelfGlobalGetRejectedAtDecode) {
  ModuleBuilder MB;
  InitExpr SelfRef;
  SelfRef.K = InitExpr::GlobalGet;
  SelfRef.Index = 0;
  MB.addGlobal(ValType::I32, false, SelfRef);
  expectDecodeError(MB.build());
}

TEST(InitExpr, MutableGlobalGetRejectedAtDecode) {
  // Referencing an *earlier* global is fine, but only if it is immutable.
  ModuleBuilder MB;
  MB.addGlobal(ValType::I32, true, ModuleBuilder::constInit(ValType::I32, 7));
  InitExpr Ref;
  Ref.K = InitExpr::GlobalGet;
  Ref.Index = 0;
  MB.addGlobal(ValType::I32, false, Ref);
  expectDecodeError(MB.build());
}

TEST(InitExpr, ValidatorAlsoRejectsForwardReference) {
  // Defense in depth: a Module that somehow bypassed the decoder's check
  // (hand-built here) is still rejected by the validator, whose boundary
  // for global I's initializer is exactly I.
  Module M;
  GlobalDecl G;
  G.Type = ValType::I32;
  G.Init.K = InitExpr::GlobalGet;
  G.Init.Index = 0; // Self-reference: index not below the boundary (0).
  M.Globals.push_back(G);
  WasmError Err;
  EXPECT_FALSE(validateModule(M, &Err));
}

TEST(InitExpr, ChainedBackwardReferencesEvaluateInOrder) {
  // g0 = 7, g1 = g0, g2 = g1: evaluation must walk the definition order so
  // every read sees an already-initialized slot.
  ModuleBuilder MB;
  MB.addGlobal(ValType::I32, false, ModuleBuilder::constInit(ValType::I32, 7));
  InitExpr Ref0;
  Ref0.K = InitExpr::GlobalGet;
  Ref0.Index = 0;
  MB.addGlobal(ValType::I32, false, Ref0);
  InitExpr Ref1;
  Ref1.K = InitExpr::GlobalGet;
  Ref1.Index = 1;
  MB.addGlobal(ValType::I32, true, Ref1);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  HostRegistry Hosts;
  auto Inst = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  ASSERT_EQ(Inst->Globals.size(), 3u);
  EXPECT_EQ(Inst->Globals[0].Bits, 7u);
  EXPECT_EQ(Inst->Globals[1].Bits, 7u);
  EXPECT_EQ(Inst->Globals[2].Bits, 7u);
}

// --- Imported globals (spec: unresolved imports are link errors) --------

TEST(ImportedGlobal, UnresolvedImportIsLinkError) {
  // Before the fix an unresolved imported global silently read as 0.
  ModuleBuilder MB;
  MB.importGlobal("env", "answer", ValType::I32, false);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  HostRegistry Empty;
  EXPECT_EQ(instantiate(*M, Empty, nullptr, &Err), nullptr);
  EXPECT_NE(Err.Message.find("env.answer"), std::string::npos) << Err.Message;
}

TEST(ImportedGlobal, BindsHostValueAndFeedsLaterInitializers) {
  ModuleBuilder MB;
  uint32_t G0 = MB.importGlobal("env", "answer", ValType::I32, false);
  InitExpr Ref;
  Ref.K = InitExpr::GlobalGet;
  Ref.Index = G0;
  MB.addGlobal(ValType::I32, false, Ref);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  HostRegistry Hosts;
  Hosts.addGlobal("env", "answer", ValType::I32, 42);
  WasmError Err;
  auto Inst = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  EXPECT_EQ(Inst->Globals[0].Bits, 42u);
  EXPECT_EQ(Inst->Globals[1].Bits, 42u);
}

TEST(ImportedGlobal, TypeMismatchIsLinkError) {
  ModuleBuilder MB;
  MB.importGlobal("env", "answer", ValType::I32, false);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  HostRegistry Hosts;
  Hosts.addGlobal("env", "answer", ValType::I64, 42);
  WasmError Err;
  EXPECT_EQ(instantiate(*M, Hosts, nullptr, &Err), nullptr);
  EXPECT_NE(Err.Message.find("mismatch"), std::string::npos) << Err.Message;
}

TEST(ImportedGlobal, HostValueOffsetsDataSegment) {
  // A data segment whose offset is global.get of an imported global: the
  // bytes must land where the *host* says, not at 0.
  ModuleBuilder MB;
  uint32_t G0 = MB.importGlobal("env", "base", ValType::I32, false);
  MB.addMemory(1);
  InitExpr Off;
  Off.K = InitExpr::GlobalGet;
  Off.Index = G0;
  MB.addData(Off, {0xAA, 0xBB});
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  HostRegistry Hosts;
  Hosts.addGlobal("env", "base", ValType::I32, 100);
  WasmError Err;
  auto Inst = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  EXPECT_EQ(Inst->Memory.data()[100], 0xAA);
  EXPECT_EQ(Inst->Memory.data()[101], 0xBB);
  EXPECT_EQ(Inst->Memory.data()[0], 0x00);
}

// --- Architectural memory limit (65536 pages) ---------------------------

TEST(MemoryLimits, MinimumAboveArchLimitRejectedAtDecode) {
  ModuleBuilder MB;
  MB.addMemory(MaxMemoryPages + 1);
  expectDecodeError(MB.build());
}

TEST(MemoryLimits, MaximumAboveArchLimitRejectedAtDecode) {
  ModuleBuilder MB;
  MB.addMemory(1, MaxMemoryPages + 1);
  expectDecodeError(MB.build());
}

TEST(MemoryLimits, ExactArchLimitAccepted) {
  ModuleBuilder MB;
  MB.addMemory(0, MaxMemoryPages);
  EXPECT_NE(buildAndValidate(MB), nullptr);
}

// A module exporting "grow": (delta i32) -> old page count or -1.
std::vector<uint8_t> growModule(uint32_t MinPages,
                                std::optional<uint32_t> MaxPages) {
  ModuleBuilder MB;
  MB.addMemory(MinPages, MaxPages);
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.memoryGrow();
  MB.exportFunc("grow", MB.funcIndex(F));
  return MB.build();
}

// memory.grow boundary behavior must agree across the interpreter, the
// threaded interpreter and the single-pass JIT.
TEST(MemoryLimits, GrowBoundariesAgreeAcrossTiers) {
  struct TierCfg {
    const char *Name;
    ExecMode Mode;
    bool Threaded;
  };
  const TierCfg Tiers[] = {{"int", ExecMode::Interp, false},
                           {"threaded", ExecMode::Interp, true},
                           {"spc", ExecMode::Jit, false}};
  for (const TierCfg &TC : Tiers) {
    EngineConfig Cfg;
    Cfg.Name = std::string("grow-") + TC.Name;
    Cfg.Mode = TC.Mode;
    Cfg.ThreadedDispatch = TC.Threaded;
    Engine E(Cfg);
    WasmError Err;
    auto LM = E.load(growModule(1, 3), &Err);
    ASSERT_NE(LM, nullptr) << TC.Name << ": " << Err.Message;
    std::vector<Value> Out;
    // Grow to exactly the declared max: ok, returns the old size.
    ASSERT_EQ(E.invoke(*LM, "grow", {Value::makeI32(2)}, &Out),
              TrapReason::None);
    EXPECT_EQ(Out[0], Value::makeI32(1)) << TC.Name;
    // Past the max: fails with -1, size unchanged.
    ASSERT_EQ(E.invoke(*LM, "grow", {Value::makeI32(1)}, &Out),
              TrapReason::None);
    EXPECT_EQ(Out[0], Value::makeI32(-1)) << TC.Name;
    // By zero at the max: ok, returns the current size.
    ASSERT_EQ(E.invoke(*LM, "grow", {Value::makeI32(0)}, &Out),
              TrapReason::None);
    EXPECT_EQ(Out[0], Value::makeI32(3)) << TC.Name;
  }
}

TEST(MemoryLimits, GrowWithoutDeclaredMaxCapsAtArchLimit) {
  EngineConfig Cfg;
  Cfg.Name = "grow-nomax";
  Cfg.Mode = ExecMode::Interp;
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(growModule(1, std::nullopt), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  std::vector<Value> Out;
  // 1 + 65536 pages would exceed the architectural limit; must fail
  // without allocating.
  ASSERT_EQ(E.invoke(*LM, "grow", {Value::makeI32(int32_t(MaxMemoryPages))},
                     &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(-1));
  ASSERT_EQ(E.invoke(*LM, "grow", {Value::makeI32(0)}, &Out),
            TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(1));
}

// --- Segment edge cases -------------------------------------------------

TEST(Segments, DataWithoutMemoryRejectedAtDecode) {
  ModuleBuilder MB;
  MB.addData(0, {1, 2, 3});
  expectDecodeError(MB.build());
}

TEST(Segments, ElemWithoutTableRejectedAtDecode) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  MB.addFunc(T);
  MB.addElem(0, {0});
  expectDecodeError(MB.build());
}

TEST(Segments, ValidatorAlsoRejectsSegmentsWithoutTargets) {
  // Defense in depth behind the decoder: hand-built modules with a
  // segment but no memory/table fail validation too.
  {
    Module M;
    DataSegment D;
    M.Datas.push_back(D);
    WasmError Err;
    EXPECT_FALSE(validateModule(M, &Err));
  }
  {
    Module M;
    ElemSegment E;
    M.Elems.push_back(E);
    WasmError Err;
    EXPECT_FALSE(validateModule(M, &Err));
  }
}

TEST(Segments, ZeroLengthAtExactBoundaryInstantiates) {
  // Zero-length segments whose offset equals the memory/table size are
  // in bounds per spec (end == size).
  ModuleBuilder MB;
  MB.addMemory(1);
  MB.addTable(2);
  uint32_t T = MB.addType({}, {});
  MB.addFunc(T);
  MB.addData(WasmPageSize, {});
  MB.addElem(2, {});
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  HostRegistry Hosts;
  EXPECT_NE(instantiate(*M, Hosts, nullptr, &Err), nullptr) << Err.Message;
}

TEST(Segments, ElemEndingAtExactTableBoundaryInstantiates) {
  ModuleBuilder MB;
  MB.addTable(2);
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  (void)F;
  MB.addElem(1, {0}); // Occupies [1, 2): last valid slot.
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  HostRegistry Hosts;
  auto Inst = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  EXPECT_EQ(Inst->Tables[0].Elems[0], 0u); // Null.
  EXPECT_EQ(Inst->Tables[0].Elems[1], 1u); // Func 0 (id = index + 1).
}

TEST(Segments, OutOfBoundsRejectedAtLinkOnBothPaths) {
  ModuleBuilder MB;
  MB.addMemory(1);
  MB.addData(WasmPageSize - 1, {1, 2}); // Ends one byte past the memory.
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  HostRegistry Hosts;
  EXPECT_EQ(instantiate(*M, Hosts, nullptr, &Err), nullptr);
  // The image builder must refuse too (the engine then falls back to
  // instantiate(), which reports the same link error).
  EXPECT_EQ(buildInstanceImage(*M, nullptr), nullptr);
}

// --- Instance images ----------------------------------------------------

// A module exercising every imaged dimension: memory + data segments,
// table + element segment, chained globals.
ModuleBuilder imageRichModule() {
  ModuleBuilder MB;
  MB.addMemory(1, 4);
  MB.addTable(3);
  MB.addGlobal(ValType::I32, false, ModuleBuilder::constInit(ValType::I32, 7));
  InitExpr Ref;
  Ref.K = InitExpr::GlobalGet;
  Ref.Index = 0;
  MB.addGlobal(ValType::I64, true,
               ModuleBuilder::constInit(ValType::I64, 0x1122334455667788ull));
  MB.addGlobal(ValType::I32, true, Ref);
  uint32_t T = MB.addType({}, {});
  MB.addFunc(T);
  MB.addData(0, {'h', 'i'});
  MB.addData(200, {9, 8, 7});
  MB.addElem(1, {0, 0});
  return MB;
}

TEST(InstanceImage, MatchesPlainInstantiate) {
  std::unique_ptr<Module> M = buildAndValidate(imageRichModule());
  ASSERT_NE(M, nullptr);
  WasmError Err;
  auto Img = buildInstanceImage(*M, &Err);
  ASSERT_NE(Img, nullptr) << Err.Message;
  HostRegistry Hosts;
  auto Plain = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Plain, nullptr) << Err.Message;
  auto Fast = instantiateFromImage(*M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Fast, nullptr) << Err.Message;
  ASSERT_EQ(Fast->Memory.byteSize(), Plain->Memory.byteSize());
  EXPECT_EQ(memcmp(Fast->Memory.data(), Plain->Memory.data(),
                   Plain->Memory.byteSize()),
            0);
  ASSERT_EQ(Fast->Globals.size(), Plain->Globals.size());
  for (size_t I = 0; I < Plain->Globals.size(); ++I) {
    EXPECT_EQ(Fast->Globals[I].Bits, Plain->Globals[I].Bits) << I;
    EXPECT_EQ(Fast->Globals[I].Type, Plain->Globals[I].Type) << I;
    EXPECT_EQ(Fast->Globals[I].Mutable, Plain->Globals[I].Mutable) << I;
  }
  ASSERT_EQ(Fast->Tables.size(), Plain->Tables.size());
  for (size_t I = 0; I < Plain->Tables.size(); ++I)
    EXPECT_EQ(Fast->Tables[I].Elems, Plain->Tables[I].Elems) << I;
  ASSERT_EQ(Fast->Funcs.size(), Plain->Funcs.size());
}

TEST(InstanceImage, ModulesImportingGlobalsAreNotImageable) {
  // Their initial state depends on the link environment, so the image
  // (shared across all instantiations) cannot represent it.
  ModuleBuilder MB;
  MB.importGlobal("env", "g", ValType::I32, false);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(buildInstanceImage(*M, nullptr), nullptr);
}

TEST(InstanceImage, ReimageRestoresInitialState) {
  std::unique_ptr<Module> M = buildAndValidate(imageRichModule());
  ASSERT_NE(M, nullptr);
  WasmError Err;
  auto Img = buildInstanceImage(*M, &Err);
  ASSERT_NE(Img, nullptr) << Err.Message;
  HostRegistry Hosts;
  auto Inst = instantiateFromImage(*M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  // Dirty the instance the way execution would: stores (with the
  // noteWrite the store paths perform), global mutation, memory growth,
  // table mutation, and tier-state changes.
  memset(Inst->Memory.data(), 0xCC, 300);
  Inst->Memory.noteWrite(300);
  EXPECT_EQ(Inst->Memory.dirtyHi(), 300u);
  EXPECT_GE(Inst->Memory.grow(2), 0);
  Inst->Globals[1].Bits = 0xDEAD;
  Inst->Globals[2].Bits = 0xBEEF;
  Inst->Tables[0].Elems[0] = 1;
  Inst->Funcs[0].UseJit = true;
  Inst->Funcs[0].HotCount = 99;
  Inst->Funcs[0].DeoptRequested = true;
  auto Re = reimageInstance(std::move(Inst), *M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Re, nullptr) << Err.Message;
  // Identical to a fresh instantiation in every observable.
  auto Fresh = instantiate(*M, Hosts, nullptr, &Err);
  ASSERT_NE(Fresh, nullptr) << Err.Message;
  ASSERT_EQ(Re->Memory.byteSize(), Fresh->Memory.byteSize());
  EXPECT_EQ(
      memcmp(Re->Memory.data(), Fresh->Memory.data(), Fresh->Memory.byteSize()),
      0);
  EXPECT_EQ(Re->Memory.dirtyHi(), 0u);
  for (size_t I = 0; I < Fresh->Globals.size(); ++I)
    EXPECT_EQ(Re->Globals[I].Bits, Fresh->Globals[I].Bits) << I;
  EXPECT_EQ(Re->Tables[0].Elems, Fresh->Tables[0].Elems);
  EXPECT_FALSE(Re->Funcs[0].UseJit);
  EXPECT_FALSE(Re->Funcs[0].DeoptRequested);
  EXPECT_EQ(Re->Funcs[0].HotCount, 0u);
  EXPECT_EQ(Re->Funcs[0].Code, nullptr);
}

TEST(InstanceImage, ReimageWritesBeyondDirtyMarkStillRepaired) {
  // A host that writes memory directly must call noteWrite; but growth
  // followed by stores into the grown region must also round-trip: the
  // grown pages are dropped entirely by the shrink.
  ModuleBuilder MB;
  MB.addMemory(1, 4);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  auto Img = buildInstanceImage(*M, &Err);
  ASSERT_NE(Img, nullptr) << Err.Message;
  HostRegistry Hosts;
  auto Inst = instantiateFromImage(*M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  ASSERT_GE(Inst->Memory.grow(1), 0);
  // Store only into the grown page (end offset past page 0).
  uint64_t Off = uint64_t(WasmPageSize) + 17;
  Inst->Memory.data()[Off] = 0x5A;
  Inst->Memory.noteWrite(Off + 1);
  auto Re = reimageInstance(std::move(Inst), *M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Re, nullptr) << Err.Message;
  EXPECT_EQ(Re->Memory.pages(), 1u);
  for (size_t I = 0; I < Re->Memory.byteSize(); ++I)
    ASSERT_EQ(Re->Memory.data()[I], 0) << I;
}

TEST(InstanceImage, GrowPastRetainedCapacityReadsZero) {
  // A reimage shrink keeps the grown capacity, stale bytes included; a
  // later grow beyond that capacity (which remaps the buffer) must still
  // hand the module zero pages.
  ModuleBuilder MB;
  MB.addMemory(1, 8);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  auto Img = buildInstanceImage(*M, &Err);
  ASSERT_NE(Img, nullptr) << Err.Message;
  HostRegistry Hosts;
  auto Inst = instantiateFromImage(*M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  ASSERT_GE(Inst->Memory.grow(2), 0); // Capacity: 3 pages.
  uint64_t Off = 2 * uint64_t(WasmPageSize) + 17;
  Inst->Memory.data()[Off] = 0x5A;
  Inst->Memory.noteWrite(Off + 1);
  auto Re = reimageInstance(std::move(Inst), *M, *Img, Hosts, nullptr, &Err);
  ASSERT_NE(Re, nullptr) << Err.Message;
  ASSERT_EQ(Re->Memory.pages(), 1u);
  ASSERT_GE(Re->Memory.grow(3), 0); // 4 pages: past the retained 3.
  for (size_t I = 0; I < Re->Memory.byteSize(); ++I)
    ASSERT_EQ(Re->Memory.data()[I], 0) << I;
}

TEST(InstanceImage, FailedReimageNeverEscapes) {
  // Re-binding imports against a registry that no longer provides them
  // must fail — and consume the instance rather than hand back a
  // half-reset one.
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  MB.importFunc("env", "f", T);
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  WasmError Err;
  auto Img = buildInstanceImage(*M, &Err);
  ASSERT_NE(Img, nullptr) << Err.Message;
  HostRegistry Full;
  Full.add("env", "f", FuncType{},
           [](Instance &, const Value *, Value *) { return TrapReason::None; });
  auto Inst = instantiateFromImage(*M, *Img, Full, nullptr, &Err);
  ASSERT_NE(Inst, nullptr) << Err.Message;
  HostRegistry Empty;
  EXPECT_EQ(reimageInstance(std::move(Inst), *M, *Img, Empty, nullptr, &Err),
            nullptr);
  EXPECT_FALSE(Err.Message.empty());
}

// --- Engine-level pooling ----------------------------------------------

// A module whose export mutates everything restorable: bumps a global,
// stores to memory, and returns the (pre-bump) global value.
std::vector<uint8_t> statefulModule() {
  ModuleBuilder MB;
  MB.addMemory(1);
  MB.addGlobal(ValType::I32, true, ModuleBuilder::constInit(ValType::I32, 7));
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.globalGet(0);
  F.globalGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.globalSet(0);
  F.i32Const(64);
  F.i32Const(0x11);
  F.store(Opcode::I32Store8, 0);
  MB.exportFunc("bump", MB.funcIndex(F));
  MB.addData(64, {0});
  return MB.build();
}

TEST(InstancePoolTest, RecycledLoadIsFreshAndCounted) {
  EngineConfig Cfg;
  Cfg.Name = "pool-test";
  Cfg.Mode = ExecMode::Interp;
  Cfg.UseCompileCache = true; // Same Module object across loads keys the pool.
  CompileCache Cache;
  Engine E(Cfg, &Cache);
  ASSERT_NE(E.pool(), nullptr);
  WasmError Err;
  auto LM1 = E.load(statefulModule(), &Err);
  ASSERT_NE(LM1, nullptr) << Err.Message;
  EXPECT_EQ(LM1->Stats.PoolHits, 0u);
  EXPECT_EQ(LM1->Stats.PoolMisses, 1u);
  std::vector<Value> Out;
  ASSERT_EQ(E.invoke(*LM1, "bump", {}, &Out), TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(7));
  EXPECT_TRUE(E.recycle(std::move(LM1)));
  EXPECT_EQ(E.pool()->size(), 1u);
  auto LM2 = E.load(statefulModule(), &Err);
  ASSERT_NE(LM2, nullptr) << Err.Message;
  EXPECT_EQ(LM2->Stats.PoolHits, 1u);
  EXPECT_EQ(LM2->Stats.PoolMisses, 0u);
  // The recycled instance must be indistinguishable from a fresh one:
  // the global bump and the store from the first life are gone.
  ASSERT_EQ(E.invoke(*LM2, "bump", {}, &Out), TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(7));
}

TEST(InstancePoolTest, DisabledConfigNeverPoolsOrImages) {
  EngineConfig Cfg;
  Cfg.Name = "pool-off";
  Cfg.Mode = ExecMode::Interp;
  Cfg.PoolInstances = false;
  Engine E(Cfg);
  EXPECT_EQ(E.pool(), nullptr);
  WasmError Err;
  auto LM = E.load(statefulModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  EXPECT_EQ(LM->Image, nullptr);
  EXPECT_EQ(LM->Stats.PoolHits, 0u);
  EXPECT_EQ(LM->Stats.PoolMisses, 0u);
  EXPECT_FALSE(E.recycle(std::move(LM)));
}

TEST(InstancePoolTest, SharedPoolRecyclesAcrossEngines) {
  // The batch runner's shape: one pool + one cache outlive a sequence of
  // short-lived engines; instances retired by one engine are re-imaged by
  // the next (imports re-bound — the retiring engine's registry is gone).
  CompileCache Cache;
  InstancePool Pool;
  EngineConfig Cfg;
  Cfg.Name = "pool-shared";
  Cfg.Mode = ExecMode::Interp;
  Cfg.UseCompileCache = true;
  WasmError Err;
  {
    Engine E1(Cfg, &Cache, &Pool);
    auto LM = E1.load(statefulModule(), &Err);
    ASSERT_NE(LM, nullptr) << Err.Message;
    std::vector<Value> Out;
    ASSERT_EQ(E1.invoke(*LM, "bump", {}, &Out), TrapReason::None);
    EXPECT_TRUE(E1.recycle(std::move(LM)));
  } // E1 (and its host registry) destroyed; the pooled instance survives.
  Engine E2(Cfg, &Cache, &Pool);
  auto LM = E2.load(statefulModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  EXPECT_EQ(LM->Stats.PoolHits, 1u);
  std::vector<Value> Out;
  ASSERT_EQ(E2.invoke(*LM, "bump", {}, &Out), TrapReason::None);
  EXPECT_EQ(Out[0], Value::makeI32(7));
  EXPECT_EQ(Pool.totals().Hits, 1u);
  EXPECT_EQ(Pool.totals().Returned, 1u);
}

TEST(InstancePoolTest, ProbedInstancesAreNotRecycled) {
  // Probe side state must not leak into an un-instrumented load.
  EngineConfig Cfg;
  Cfg.Name = "pool-probed";
  Cfg.Mode = ExecMode::Interp;
  Cfg.UseCompileCache = true;
  CompileCache Cache;
  Engine E(Cfg, &Cache);
  WasmError Err;
  auto LM = E.load(statefulModule(), &Err);
  ASSERT_NE(LM, nullptr) << Err.Message;
  // Coverage probes attach at function entries, so any module gains at
  // least one probe site.
  CoverageMonitor Coverage;
  Coverage.attach(*LM->Inst, E.probes());
  E.reinstrument(*LM);
  EXPECT_FALSE(E.recycle(std::move(LM)));
  ASSERT_NE(E.pool(), nullptr);
  EXPECT_EQ(E.pool()->size(), 0u);
}

TEST(InstancePoolTest, PoolCapDropsExcessInstances) {
  CompileCache Cache;
  InstancePool Pool;
  EngineConfig Cfg;
  Cfg.Name = "pool-cap";
  Cfg.Mode = ExecMode::Interp;
  Cfg.UseCompileCache = true;
  WasmError Err;
  // Retire more instances of one module than the per-module cap.
  std::vector<std::unique_ptr<LoadedModule>> Live;
  Engine E(Cfg, &Cache, &Pool);
  for (size_t I = 0; I < InstancePool::MaxPerModule + 2; ++I) {
    auto LM = E.load(statefulModule(), &Err);
    ASSERT_NE(LM, nullptr) << Err.Message;
    Live.push_back(std::move(LM));
  }
  for (auto &LM : Live)
    E.recycle(std::move(LM));
  Live.clear();
  EXPECT_EQ(Pool.size(), InstancePool::MaxPerModule);
  EXPECT_EQ(Pool.totals().Dropped, 2u);
}

// --- Call-depth limits ---------------------------------------------------

// depth(n): if n == 0 return 0; return depth(n-1) + 1. Recursion depth is
// exactly n + 1 frames (including the exported frame).
std::vector<uint8_t> deepRecursionModule() {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.op(Opcode::I32Eqz);
  F.ifOp(BlockType::oneResult(ValType::I32));
  F.i32Const(0);
  F.elseOp();
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Sub);
  F.call(MB.funcIndex(F));
  F.i32Const(1);
  F.op(Opcode::I32Add);
  F.end();
  MB.exportFunc("depth", MB.funcIndex(F));
  return MB.build();
}

// even(n)/odd(n) by mutual recursion; even(n) alternates between the two
// bodies all the way down.
std::vector<uint8_t> mutualRecursionModule() {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &Even = MB.addFunc(T);
  FuncBuilder &Odd = MB.addFunc(T);
  Even.localGet(0);
  Even.op(Opcode::I32Eqz);
  Even.ifOp(BlockType::oneResult(ValType::I32));
  Even.i32Const(1);
  Even.elseOp();
  Even.localGet(0);
  Even.i32Const(1);
  Even.op(Opcode::I32Sub);
  Even.call(MB.funcIndex(Odd));
  Even.end();
  Odd.localGet(0);
  Odd.op(Opcode::I32Eqz);
  Odd.ifOp(BlockType::oneResult(ValType::I32));
  Odd.i32Const(0);
  Odd.elseOp();
  Odd.localGet(0);
  Odd.i32Const(1);
  Odd.op(Opcode::I32Sub);
  Odd.call(MB.funcIndex(Even));
  Odd.end();
  MB.exportFunc("even", MB.funcIndex(Even));
  return MB.build();
}

// The uniform call-depth limit: every tier traps StackOverflow once the
// configured frame budget is hit, and completes normally just under it.
TEST(CallDepth, UniformLimitAcrossTiers) {
  static const char *const Tiers[] = {"int",     "threaded", "spc",
                                      "copypatch", "twopass", "opt"};
  for (const char *Tier : Tiers) {
    EngineConfig Cfg;
    Cfg.Name = std::string("depth-") + Tier;
    Cfg.MaxCallDepth = 64;
    if (std::string(Tier) == "int") {
      Cfg.Mode = ExecMode::Interp;
    } else if (std::string(Tier) == "threaded") {
      Cfg.Mode = ExecMode::Interp;
      Cfg.ThreadedDispatch = true;
    } else {
      Cfg.Mode = ExecMode::Jit;
      Cfg.Opts.Tags = TagMode::None;
      Cfg.Compiler = std::string(Tier) == "spc" ? CompilerKind::SinglePass
                     : std::string(Tier) == "copypatch"
                         ? CompilerKind::CopyPatch
                     : std::string(Tier) == "twopass" ? CompilerKind::TwoPass
                                                      : CompilerKind::Optimizing;
    }
    Engine E(Cfg);
    WasmError Err;
    auto LM = E.load(deepRecursionModule(), &Err);
    ASSERT_NE(LM, nullptr) << Tier << ": " << Err.Message;
    std::vector<Value> Out;
    // 10 frames: well under the limit.
    ASSERT_EQ(E.invoke(*LM, "depth", {Value::makeI32(9)}, &Out),
              TrapReason::None)
        << Tier;
    EXPECT_EQ(Out[0], Value::makeI32(9)) << Tier;
    // 1000 frames: over the limit on every tier, and the engine survives.
    EXPECT_EQ(E.invoke(*LM, "depth", {Value::makeI32(999)}, &Out),
              TrapReason::StackOverflow)
        << Tier;
    ASSERT_EQ(E.invoke(*LM, "depth", {Value::makeI32(3)}, &Out),
              TrapReason::None)
        << Tier;
    EXPECT_EQ(Out[0], Value::makeI32(3)) << Tier;

    auto LM2 = E.load(mutualRecursionModule(), &Err);
    ASSERT_NE(LM2, nullptr) << Tier << ": " << Err.Message;
    ASSERT_EQ(E.invoke(*LM2, "even", {Value::makeI32(8)}, &Out),
              TrapReason::None)
        << Tier;
    EXPECT_EQ(Out[0], Value::makeI32(1)) << Tier;
    EXPECT_EQ(E.invoke(*LM2, "even", {Value::makeI32(999)}, &Out),
              TrapReason::StackOverflow)
        << Tier;
  }
}

} // namespace
