//===- tests/test_fuzz.cpp - fuzz subsystem tests --------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Covers the differential-fuzzing subsystem: generator validity and
// determinism, the six-tier differ, replay argument derivation, and the
// greedy shrinker (a planted divergence must survive minimization and the
// result must be at most 25% of the original module size), and hostile
// input: deterministic byte mutants of the committed .wasm seeds must be
// rejected with a diagnostic or load, analyze and verify cleanly.
//
//===----------------------------------------------------------------------===//

#include "analysis/analysis.h"
#include "engine/registry.h"
#include "fuzz/differ.h"
#include "fuzz/randwasm.h"
#include "fuzz/shrink.h"
#include "interp/predecode.h"
#include "support/leb128.h"
#include "testutil.h"
#include "verify/verifier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace wisp;

namespace {

TEST(FuzzGen, ModulesDecodeAndValidate) {
  for (const char *Name : {"default", "control", "memory"}) {
    FuzzProfile P;
    ASSERT_TRUE(fuzzProfileByName(Name, &P));
    for (uint64_t Seed = 0; Seed < 25; ++Seed) {
      RandWasm Gen(Seed, P);
      FuzzModule M = Gen.build();
      std::vector<uint8_t> Bytes = M.toBytes();
      WasmError Err;
      std::unique_ptr<Module> Mod = decodeModule(Bytes, &Err);
      ASSERT_NE(Mod, nullptr)
          << Name << " seed " << Seed << ": " << Err.Message;
      ASSERT_TRUE(validateModule(*Mod, &Err))
          << Name << " seed " << Seed << ": " << Err.Message << " @"
          << Err.Offset;
      // The exported main must exist with the fixed fuzzing signature.
      const Export *E = Mod->findExport("f", ExternKind::Func);
      ASSERT_NE(E, nullptr);
      EXPECT_EQ(Mod->funcType(E->Index).Params.size(), 4u);
    }
  }
}

TEST(FuzzGen, DeterministicPerSeed) {
  for (uint64_t Seed : {0ull, 7ull, 123456789ull}) {
    FuzzModule A = RandWasm(Seed).build();
    FuzzModule B = RandWasm(Seed).build();
    EXPECT_EQ(A.toBytes(), B.toBytes()) << "seed " << Seed;
    EXPECT_EQ(A.listing(), B.listing()) << "seed " << Seed;
  }
  // Different seeds almost surely differ.
  EXPECT_NE(RandWasm(1).build().toBytes(), RandWasm(2).build().toBytes());
}

TEST(FuzzGen, UnknownProfileRejected) {
  FuzzProfile P;
  EXPECT_FALSE(fuzzProfileByName("bogus", &P));
  EXPECT_TRUE(fuzzProfileByName("memory", &P));
  EXPECT_STREQ(P.Name, "memory");
}

TEST(FuzzGen, ListingMentionsStructure) {
  FuzzModule M = RandWasm(3).build();
  std::string L = M.listing();
  EXPECT_NE(L.find("(module"), std::string::npos);
  EXPECT_NE(L.find("(export \"f\")"), std::string::npos);
  EXPECT_NE(L.find("(table"), std::string::npos);
  EXPECT_GT(M.nodeCount(), 0u);
}

TEST(FuzzGen, BakedArgsAddReproExport) {
  FuzzModule M = RandWasm(9).build();
  std::vector<Value> Args = argsForSeed(9, M.main().Params);
  std::vector<uint8_t> Bytes = M.toBytes(&Args);
  WasmError Err;
  std::unique_ptr<Module> Mod = decodeModule(Bytes, &Err);
  ASSERT_NE(Mod, nullptr) << Err.Message;
  ASSERT_TRUE(validateModule(*Mod, &Err)) << Err.Message;
  const Export *Repro = Mod->findExport("repro", ExternKind::Func);
  ASSERT_NE(Repro, nullptr);
  EXPECT_TRUE(Mod->funcType(Repro->Index).Params.empty());
  // The zero-arg wrapper must agree with calling main directly, on every
  // tier.
  DiffReport Direct = runAllTiers(Bytes, "f", Args);
  DiffReport Wrapped = runAllTiers(Bytes, "repro", {});
  ASSERT_FALSE(Direct.Diverged) << Direct.Detail;
  ASSERT_FALSE(Wrapped.Diverged) << Wrapped.Detail;
  ASSERT_EQ(Direct.Runs[0].Results.size(), Wrapped.Runs[0].Results.size());
  for (size_t I = 0; I < Direct.Runs[0].Results.size(); ++I)
    EXPECT_EQ(Direct.Runs[0].Results[I], Wrapped.Runs[0].Results[I]);
}

// --- Differ ---------------------------------------------------------------

TEST(FuzzDiffer, TiersAgreeOnSeededSweep) {
  // A compact in-process differential sweep; the 200-seed fuzz_smoke ctest
  // runs the same check through the wisp-fuzz binary.
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    FuzzProfile P;
    static const char *Rotation[] = {"default", "control", "memory", "exits"};
    ASSERT_TRUE(fuzzProfileByName(Rotation[Seed % 4], &P));
    FuzzModule M = RandWasm(Seed, P).build();
    DiffReport Report =
        runAllTiers(M.toBytes(), "f", argsForSeed(Seed, M.main().Params));
    EXPECT_FALSE(Report.Diverged)
        << "seed " << Seed << ": " << Report.Detail;
  }
}

TEST(FuzzDiffer, ReportsAllTiersAndMonitorConfigs) {
  FuzzModule M = RandWasm(11).build();
  DiffReport Report =
      runAllTiers(M.toBytes(), "f", argsForSeed(11, M.main().Params));
  // Eight execution tiers (incl. the tiered/OSR configurations) plus the
  // two compile-cache cold/warm configurations (spc+cache,
  // threaded+cache) plus the two persistent-cache disk-cold/disk-warm
  // configurations (spc+disk, threaded+disk) plus the two instance-pool
  // fresh/pooled configurations (spc+pool, threaded+pool) plus the two
  // instrumented interpreter configurations (int+mon, threaded+mon).
  ASSERT_EQ(differTierNames().size(), 8u);
  ASSERT_EQ(Report.Runs.size(), differTierNames().size() + 8);
  EXPECT_EQ(Report.Runs[0].Tier, "int");
  EXPECT_EQ(Report.Runs[6].Tier, "tiered");
  EXPECT_EQ(Report.Runs[7].Tier, "tiered-threaded");
  EXPECT_EQ(Report.Runs[8].Tier, "spc+cache");
  EXPECT_EQ(Report.Runs[9].Tier, "threaded+cache");
  // The cache runs are the warm pass of a cold/warm pair: they hit the
  // private cache (module + every body) and passed the self-comparison.
  EXPECT_GE(Report.Runs[8].CacheHits, 2u);
  EXPECT_GE(Report.Runs[9].CacheHits, 2u);
  EXPECT_TRUE(Report.Runs[8].SelfCheck.empty()) << Report.Runs[8].SelfCheck;
  EXPECT_TRUE(Report.Runs[9].SelfCheck.empty()) << Report.Runs[9].SelfCheck;
  // The disk runs are the warm pass of a disk-cold/disk-warm pair on a
  // fresh in-process cache: every compiled body (or pre-decoded IR body)
  // was served from the on-disk store through deserialize + re-verify.
  EXPECT_EQ(Report.Runs[10].Tier, "spc+disk");
  EXPECT_EQ(Report.Runs[11].Tier, "threaded+disk");
  EXPECT_GE(Report.Runs[10].DiskHits, 1u);
  EXPECT_GE(Report.Runs[11].DiskHits, 1u);
  EXPECT_TRUE(Report.Runs[10].SelfCheck.empty()) << Report.Runs[10].SelfCheck;
  EXPECT_TRUE(Report.Runs[11].SelfCheck.empty()) << Report.Runs[11].SelfCheck;
  // The pool runs are the pooled pass of a fresh/pooled pair: generator
  // modules are imageable (no imported globals) and leave no live heap
  // objects, so the fresh instance was recycled and the pooled load must
  // have re-imaged it.
  EXPECT_EQ(Report.Runs[12].Tier, "spc+pool");
  EXPECT_EQ(Report.Runs[13].Tier, "threaded+pool");
  EXPECT_GE(Report.Runs[12].PoolHits, 1u);
  EXPECT_GE(Report.Runs[13].PoolHits, 1u);
  EXPECT_TRUE(Report.Runs[12].SelfCheck.empty()) << Report.Runs[12].SelfCheck;
  EXPECT_TRUE(Report.Runs[13].SelfCheck.empty()) << Report.Runs[13].SelfCheck;
  EXPECT_EQ(Report.Runs[Report.Runs.size() - 2].Tier, "int+mon");
  EXPECT_EQ(Report.Runs.back().Tier, "threaded+mon");
  EXPECT_TRUE(Report.Runs.back().Instrumented);
  for (const TierRun &Run : Report.Runs)
    EXPECT_TRUE(Run.LoadOk) << Run.Tier << ": " << Run.LoadError;
}

TEST(FuzzDiffer, TrapSitesAgreeAcrossTiers) {
  // A module whose only trap is a div-by-zero at a known instruction: all
  // tiers must report the same trap at the same bytecode offset (the
  // single-pass JIT pipelines map machine pcs back through the MCode line
  // table; the optimizing tier is exempt and reports TrapPcKnown=false).
  ModuleBuilder MB;
  uint32_t TI = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(TI);
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Add); // Some work before the trap site.
  F.localGet(0);
  F.op(Opcode::I32DivU); // Traps when p0 == 0.
  MB.exportFunc("f", 0);
  DiffReport Report = runAllTiers(MB.build(), "f", {Value::makeI32(0)});
  EXPECT_FALSE(Report.Diverged) << Report.Detail;
  ASSERT_EQ(Report.Runs[0].Trap, TrapReason::DivByZero);
  ASSERT_TRUE(Report.Runs[0].TrapPcKnown);
  uint32_t RefIp = Report.Runs[0].TrapIp;
  EXPECT_GT(RefIp, 0u);
  for (const TierRun &Run : Report.Runs) {
    ASSERT_EQ(Run.Trap, TrapReason::DivByZero) << Run.Tier;
    if (Run.Tier == "opt") {
      EXPECT_FALSE(Run.TrapPcKnown);
      continue;
    }
    EXPECT_TRUE(Run.TrapPcKnown) << Run.Tier;
    EXPECT_EQ(Run.TrapIp, RefIp) << Run.Tier;
  }
}

TEST(FuzzDiffer, CompareDetectsEachMismatchKind) {
  TierRun Ref;
  Ref.Tier = "int";
  Ref.LoadOk = true;
  Ref.Results = {Value::makeI32(1)};
  Ref.Memory = {0, 0, 0, 0};
  Ref.GlobalBits = {7};

  TierRun Same = Ref;
  Same.Tier = "spc";
  EXPECT_EQ(compareTierRuns(Ref, Same), "");

  TierRun BadTrap = Same;
  BadTrap.Trap = TrapReason::DivByZero;
  EXPECT_NE(compareTierRuns(Ref, BadTrap).find("trap mismatch"),
            std::string::npos);

  TierRun BadResult = Same;
  BadResult.Results = {Value::makeI32(2)};
  EXPECT_NE(compareTierRuns(Ref, BadResult).find("result 0 mismatch"),
            std::string::npos);

  TierRun BadMemory = Same;
  BadMemory.Memory[2] = 9;
  EXPECT_NE(compareTierRuns(Ref, BadMemory).find("memory mismatch at 0x2"),
            std::string::npos);

  TierRun BadSize = Same;
  BadSize.Memory.resize(8, 0);
  EXPECT_NE(compareTierRuns(Ref, BadSize).find("memory size mismatch"),
            std::string::npos);

  TierRun BadGlobal = Same;
  BadGlobal.GlobalBits = {8};
  EXPECT_NE(compareTierRuns(Ref, BadGlobal).find("global 0 mismatch"),
            std::string::npos);

  TierRun BadLoad = Same;
  BadLoad.LoadOk = false;
  BadLoad.LoadError = "boom";
  EXPECT_NE(compareTierRuns(Ref, BadLoad).find("load"), std::string::npos);

  // Trap-site agreement: same trap kind at different bytecode offsets is a
  // divergence when both tiers know their trap pc...
  TierRun RefTrap = Ref;
  RefTrap.Trap = TrapReason::MemOutOfBounds;
  RefTrap.Results.clear();
  RefTrap.TrapIp = 0x40;
  RefTrap.TrapPcKnown = true;
  TierRun SiteTrap = RefTrap;
  SiteTrap.Tier = "spc";
  EXPECT_EQ(compareTierRuns(RefTrap, SiteTrap), "");
  SiteTrap.TrapIp = 0x48;
  EXPECT_NE(compareTierRuns(RefTrap, SiteTrap).find("trap-site mismatch"),
            std::string::npos);
  // ...but not when one side (the optimizing tier) cannot attribute it.
  SiteTrap.TrapPcKnown = false;
  EXPECT_EQ(compareTierRuns(RefTrap, SiteTrap), "");
}

TEST(FuzzDiffer, ReplayTuplesIncludeGcdPair) {
  // The corpus gcd reproducer needs its original failing inputs.
  auto Tuples = replayArgTuples({ValType::I32, ValType::I32});
  ASSERT_EQ(Tuples.size(), 4u);
  bool Found = false;
  for (const auto &Args : Tuples)
    Found = Found || (Args[0] == Value::makeI32(3528) &&
                      Args[1] == Value::makeI32(3780));
  EXPECT_TRUE(Found);
  // Deterministic across calls.
  auto Again = replayArgTuples({ValType::I32, ValType::I32});
  for (size_t I = 0; I < Tuples.size(); ++I)
    for (size_t J = 0; J < Tuples[I].size(); ++J)
      EXPECT_EQ(Tuples[I][J], Again[I][J]);
}

TEST(FuzzDiffer, ArgsForSeedDeterministicAndTyped) {
  std::vector<ValType> Params = {ValType::I32, ValType::I64, ValType::F32,
                                 ValType::F64};
  std::vector<Value> A = argsForSeed(42, Params);
  std::vector<Value> B = argsForSeed(42, Params);
  ASSERT_EQ(A.size(), Params.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Type, Params[I]);
    EXPECT_EQ(A[I], B[I]);
  }
}

// --- Shrinker -------------------------------------------------------------

/// True if the module still contains the planted marker statement
/// (global.set of MarkerBits into global MarkerIdx).
bool hasMarker(const std::vector<FuzzStmt> &Body, uint32_t MarkerIdx,
               uint64_t MarkerBits) {
  for (const FuzzStmt &S : Body) {
    if (S.K == FuzzStmt::GlobalSet && S.Index == MarkerIdx &&
        !S.E.empty() && S.E[0].K == FuzzExpr::Const &&
        S.E[0].Bits == MarkerBits)
      return true;
    for (const auto &Sub : S.Bodies)
      if (hasMarker(Sub, MarkerIdx, MarkerBits))
        return true;
  }
  return false;
}

TEST(FuzzShrink, PlantedDivergenceMinimizesToQuarterSize) {
  // A big module so there is plenty to strip.
  FuzzProfile P;
  ASSERT_TRUE(fuzzProfileByName("control", &P));
  P.MinStmts = 10;
  P.MaxStmts = 14;
  P.ExprDepth = 4;
  FuzzModule M = RandWasm(2024, P).build();

  // Plant the "divergence": a recognizable global.set the oracle tracks,
  // standing in for the construct that triggers a real miscompile.
  const uint64_t MarkerBits = 0x5EED;
  M.Globals.push_back({ValType::I32, 0});
  uint32_t MarkerIdx = uint32_t(M.Globals.size()) - 1;
  FuzzStmt Marker;
  Marker.K = FuzzStmt::GlobalSet;
  Marker.Index = MarkerIdx;
  Marker.E.push_back(FuzzExpr::constant(ValType::I32, MarkerBits));
  FuzzFunc &Main = M.Funcs.back();
  Main.Body.insert(Main.Body.begin() + Main.Body.size() / 2, Marker);

  FuzzOracle Oracle = [&](const FuzzModule &Cand) {
    return hasMarker(Cand.main().Body, MarkerIdx, MarkerBits);
  };
  ASSERT_TRUE(Oracle(M));
  size_t OrigBytes = M.toBytes().size();

  ShrinkStats Stats;
  FuzzModule Min = shrinkModule(M, Oracle, &Stats);

  // The minimized module still "diverges" ...
  EXPECT_TRUE(Oracle(Min));
  // ... still serializes to a valid module ...
  WasmError Err;
  std::unique_ptr<Module> Mod = decodeModule(Min.toBytes(), &Err);
  ASSERT_NE(Mod, nullptr) << Err.Message;
  EXPECT_TRUE(validateModule(*Mod, &Err)) << Err.Message;
  // ... and is at most 25% of the original size.
  size_t MinBytes = Min.toBytes().size();
  EXPECT_LE(MinBytes * 4, OrigBytes)
      << OrigBytes << " -> " << MinBytes << " bytes";
  EXPECT_LT(Stats.NodesAfter, Stats.NodesBefore);
  EXPECT_EQ(Stats.BytesAfter, MinBytes);
  EXPECT_GT(Stats.Accepted, 0u);
}

TEST(FuzzShrink, DropsUnusedHelpers) {
  FuzzModule M = RandWasm(5).build();
  size_t FuncsBefore = M.Funcs.size();
  ASSERT_GT(FuncsBefore, 1u);
  // Oracle only cares that the module still has an exported main.
  FuzzOracle Oracle = [](const FuzzModule &Cand) {
    return !Cand.Funcs.empty();
  };
  FuzzModule Min = shrinkModule(M, Oracle);
  // Everything except main should be strippable under this oracle.
  EXPECT_EQ(Min.Funcs.size(), 1u);
  WasmError Err;
  std::unique_ptr<Module> Mod = decodeModule(Min.toBytes(), &Err);
  ASSERT_NE(Mod, nullptr) << Err.Message;
  EXPECT_TRUE(validateModule(*Mod, &Err)) << Err.Message;
}

TEST(FuzzShrink, RespectsAttemptBudget) {
  FuzzModule M = RandWasm(6).build();
  FuzzOracle Oracle = [](const FuzzModule &) { return true; };
  ShrinkStats Stats;
  shrinkModule(M, Oracle, &Stats, /*MaxAttempts=*/5);
  EXPECT_LE(Stats.Attempts, 5u);
}

// --- Regressions: miscompiles found by this fuzzer ------------------------

/// Runs the exported "f" through all six tiers and expects agreement.
void expectTierAgreement(const std::vector<uint8_t> &Bytes,
                         const std::vector<Value> &Args) {
  DiffReport Report = runAllTiers(Bytes, "f", Args);
  EXPECT_FALSE(Report.Diverged) << Report.Detail;
}

// spc stale compare fusion: a compare consumed by a codeless local.set
// rebind must not fuse into a later branch at the same stack height.
TEST(FuzzRegression, StaleCompareFusionDoesNotHijackBranch) {
  ModuleBuilder MB;
  MB.addMemory(1, 4);
  uint32_t HT = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &H = MB.addFunc(HT);
  H.i32Const(1);
  H.memoryGrow();
  H.drop();
  H.i32Const(1);
  uint32_t MT = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(MT);
  uint32_t Scratch = F.addLocal(ValType::I32);
  F.i32Const(74171716);
  F.ifOp(BlockType::oneResult(ValType::I32));
  F.i32Const(1);
  F.elseOp();
  F.i32Const(1);
  F.end();
  F.localGet(Scratch);
  F.op(Opcode::I32GeS);
  F.localSet(1);
  F.localGet(Scratch);
  F.ifOp(BlockType::oneResult(ValType::I32));
  F.i32Const(5);
  F.elseOp();
  F.i32Const(1);
  F.call(0);
  F.end();
  F.memorySize();
  F.op(Opcode::I32Add);
  MB.exportFunc("f", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  expectTierAgreement(Bytes, {Value::makeI32(0), Value::makeI32(1)});
  // And pin the actual semantics: else arm runs the helper (1), which
  // grows memory to 2 pages -> 1 + 2 = 3.
  DiffReport Report =
      runAllTiers(Bytes, "f", {Value::makeI32(0), Value::makeI32(1)});
  ASSERT_FALSE(Report.Runs.empty());
  ASSERT_EQ(Report.Runs[0].Results.size(), 1u);
  EXPECT_EQ(Report.Runs[0].Results[0], Value::makeI32(3));
}

// NaN-bit determinism: arithmetic NaNs must canonicalize to the positive
// quiet NaN in every tier. Without canonicalization, `f64.add` with a NaN
// operand propagates whichever operand the host compiler evaluated first,
// and the interpreter and JIT executor disagreed on even the NaN sign.
TEST(FuzzRegression, ArithmeticNaNsAreCanonicalAcrossTiers) {
  ModuleBuilder MB;
  uint32_t MT = MB.addType({ValType::I32}, {ValType::F64});
  FuncBuilder &F = MB.addFunc(MT);
  // a = sqrt(-886)            (libm returns a *negative* NaN on x86)
  // b = max(sqrt(-886), 0)    (wasmMax yields the positive quiet NaN)
  // a + b                     (propagation order is compiler-dependent)
  F.f64Const(-886.0);
  F.op(Opcode::F64Sqrt);
  F.f64Const(-886.0);
  F.op(Opcode::F64Sqrt);
  F.f64Const(0.0);
  F.op(Opcode::F64Max);
  F.op(Opcode::F64Add);
  MB.exportFunc("f", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  expectTierAgreement(Bytes, {Value::makeI32(0)});
  DiffReport Report = runAllTiers(Bytes, "f", {Value::makeI32(0)});
  ASSERT_FALSE(Report.Runs.empty());
  ASSERT_EQ(Report.Runs[0].Results.size(), 1u);
  // Every tier must produce the canonical positive quiet NaN.
  EXPECT_EQ(Report.Runs[0].Results[0].Bits, 0x7ff8000000000000ull);
}

// spc select with constant-folded false condition and a memory-only b
// operand: the repushed result slot used to alias a's stale spill.
TEST(FuzzRegression, SelectFoldedCondKeepsMemoryOperand) {
  ModuleBuilder MB;
  uint32_t HT = MB.addType({ValType::I32}, {ValType::F64});
  FuncBuilder &H = MB.addFunc(HT);
  H.f64Const(-330.0625);
  uint32_t MT = MB.addType({ValType::I32}, {ValType::F64});
  FuncBuilder &F = MB.addFunc(MT);
  uint32_t Zero = F.addLocal(ValType::I32);
  F.f64Const(4.9406564584124654e-324);
  F.i32Const(1);
  F.call(0);
  F.localGet(Zero);
  F.select();
  MB.exportFunc("f", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  expectTierAgreement(Bytes, {Value::makeI32(0)});
  DiffReport Report = runAllTiers(Bytes, "f", {Value::makeI32(0)});
  ASSERT_FALSE(Report.Runs.empty());
  ASSERT_EQ(Report.Runs[0].Results.size(), 1u);
  EXPECT_EQ(Report.Runs[0].Results[0], Value::makeF64(-330.0625));
}

// --- Hostile input: deterministic mutants of the committed seeds ---------

/// A module split at its section boundaries, with the code section split
/// into bodies, so a body can be mutated and the sizes re-encoded.
struct SplitModule {
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> Sections;
  std::vector<std::vector<uint8_t>> Bodies; ///< Code section entries.

  /// Splits \p B; false when it is not well-formed enough to split.
  bool parse(const std::vector<uint8_t> &B) {
    size_t P = 8;
    auto Leb = [&](uint32_t *V) {
      LebResult R = readULEB128(B.data() + P, B.data() + B.size(), 32);
      if (!R.Ok)
        return false;
      P += R.Length;
      *V = uint32_t(R.Value);
      return true;
    };
    while (P < B.size()) {
      uint8_t Id = B[P++];
      uint32_t Size = 0;
      if (!Leb(&Size) || Size > B.size() - P)
        return false;
      size_t End = P + Size;
      if (Id == 10) {
        uint32_t N = 0;
        if (!Leb(&N))
          return false;
        for (uint32_t I = 0; I < N; ++I) {
          uint32_t Len = 0;
          if (!Leb(&Len) || Len > End - P)
            return false;
          Bodies.emplace_back(B.begin() + P, B.begin() + P + Len);
          P += Len;
        }
      }
      Sections.emplace_back(Id, std::vector<uint8_t>(B.begin() + P,
                                                     B.begin() + End));
      P = End;
    }
    return B.size() >= 8 && !Bodies.empty();
  }

  std::vector<uint8_t> join() const {
    std::vector<uint8_t> Out = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
    for (const auto &[Id, Content] : Sections) {
      std::vector<uint8_t> C = Content;
      if (Id == 10) {
        C.clear();
        writeULEB128(C, Bodies.size());
        for (const std::vector<uint8_t> &Body : Bodies) {
          writeULEB128(C, Body.size());
          C.insert(C.end(), Body.begin(), Body.end());
        }
      }
      Out.push_back(Id);
      writeULEB128(Out, C.size());
      Out.insert(Out.end(), C.begin(), C.end());
    }
    return Out;
  }
};

/// Replaces the LEB128 at \p Pos with the padded 5-byte encoding of
/// \p Count: a vector or br_table count claiming more than the input holds.
void inflateLeb(std::vector<uint8_t> &B, size_t Pos, uint32_t Count) {
  size_t End = Pos;
  while (End < B.size() && End - Pos < 4 && (B[End] & 0x80))
    ++End;
  End = std::min(End + 1, B.size());
  const uint8_t Enc[5] = {uint8_t(Count | 0x80), uint8_t((Count >> 7) | 0x80),
                          uint8_t((Count >> 14) | 0x80),
                          uint8_t((Count >> 21) | 0x80),
                          uint8_t(Count >> 28)};
  B.erase(B.begin() + Pos, B.begin() + End);
  B.insert(B.begin() + Pos, Enc, Enc + 5);
}

/// One mutation of \p B: byte set, bit flip, byte insert, byte delete, or
/// LEB-count inflation at a random offset.
void mutateBytes(std::vector<uint8_t> &B, Rng &R) {
  static const uint32_t HugeCounts[] = {0xffffffffu, 0x7fffffffu,
                                        0x10000000u, 0x00100000u};
  unsigned Kind = unsigned(R.below(5));
  if (B.empty() && Kind != 2)
    return;
  // An insert may append; every other kind needs an existing byte.
  size_t Pos = size_t(R.below(Kind == 2 ? B.size() + 1 : B.size()));
  switch (Kind) {
  case 0:
    B[Pos] = uint8_t(R.next());
    break;
  case 1:
    B[Pos] ^= uint8_t(1u << R.below(8));
    break;
  case 2:
    B.insert(B.begin() + Pos, uint8_t(R.next()));
    break;
  case 3:
    B.erase(B.begin() + Pos);
    break;
  default:
    inflateLeb(B, Pos, HugeCounts[R.below(4)]);
    break;
  }
}

/// The mutant set of one seed: the seed itself, its br_table counts
/// inflated (sizes re-encoded, so the count reaches the validator), and
/// \p Count random mutants, half to the raw module bytes (the decoder's
/// surface) and half to one function body with the sizes re-encoded (the
/// validator's and analyzer's surface).
std::vector<std::vector<uint8_t>> mutantsOf(const std::vector<uint8_t> &Seed,
                                            uint64_t RngSeed, unsigned Count) {
  std::vector<std::vector<uint8_t>> Out = {Seed};
  SplitModule S;
  bool Split = S.parse(Seed);
  if (Split)
    for (size_t F = 0; F < S.Bodies.size(); ++F)
      for (size_t P = 0; P + 1 < S.Bodies[F].size(); ++P)
        if (S.Bodies[F][P] == uint8_t(Opcode::BrTable)) {
          SplitModule T = S;
          inflateLeb(T.Bodies[F], P + 1, 0xffffffffu);
          Out.push_back(T.join());
        }
  Rng R(RngSeed);
  for (unsigned I = 0; I < Count; ++I) {
    if (!Split || I % 2 == 0) {
      std::vector<uint8_t> B = Seed;
      mutateBytes(B, R);
      Out.push_back(std::move(B));
      continue;
    }
    SplitModule T = S;
    mutateBytes(T.Bodies[R.below(T.Bodies.size())], R);
    Out.push_back(T.join());
  }
  return Out;
}

/// The hostile-input oracle. A rejection carries a diagnostic; an
/// accepted module analyzes, and every function's single-pass machine
/// code and threaded IR verify with zero findings. A crash, abort or
/// sanitizer report fails the whole binary.
void checkHostile(const std::vector<uint8_t> &Bytes, const std::string &What) {
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(Bytes, &Err);
  if (!M) {
    EXPECT_FALSE(Err.Message.empty()) << What << ": silent decode reject";
    return;
  }
  if (!validateModule(*M, &Err)) {
    EXPECT_FALSE(Err.Message.empty()) << What << ": silent validate reject";
    return;
  }
  ModuleAnalysis A = analyzeModule(*M);
  ASSERT_EQ(A.Funcs.size(), M->Funcs.size()) << What;
  static const CompilerOptions Spc = configByName("wizard-spc").Opts;
  for (const FuncDecl &F : M->Funcs) {
    if (F.Imported)
      continue;
    std::unique_ptr<MCode> Code = compileFunction(*M, F, Spc);
    ASSERT_NE(Code, nullptr) << What << ": func " << F.Index;
    VerifyReport MR = verifyMachineCode(
        *M, F, *Code,
        VerifyScope::baseline().withFacts(A.Funcs[F.Index].StackBound));
    EXPECT_TRUE(MR.ok()) << What << ": " << MR.text();
    std::unique_ptr<ThreadedCode> TC =
        predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
    ASSERT_NE(TC, nullptr) << What << ": func " << F.Index;
    VerifyReport TR = verifyThreadedCode(*M, F, *TC);
    EXPECT_TRUE(TR.ok()) << What << ": " << TR.text();
  }
}

TEST(HostileInput, MutantsRejectWithDiagnosticOrVerifyClean) {
  std::vector<std::filesystem::path> Seeds;
  for (const char *Dir : {"/corpus", "/data"})
    for (const auto &E :
         std::filesystem::directory_iterator(std::string(WISP_TESTS_DIR) + Dir))
      if (E.path().extension() == ".wasm")
        Seeds.push_back(E.path());
  std::sort(Seeds.begin(), Seeds.end());
  ASSERT_GE(Seeds.size(), 10u);
  size_t Mutants = 0;
  for (size_t I = 0; I < Seeds.size(); ++I) {
    std::ifstream In(Seeds[I], std::ios::binary);
    std::vector<uint8_t> Seed((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
    ASSERT_FALSE(Seed.empty()) << Seeds[I];
    std::vector<std::vector<uint8_t>> Set = mutantsOf(Seed, 0x5eed + I, 10000);
    for (size_t K = 0; K < Set.size(); ++K)
      checkHostile(Set[K], Seeds[I].filename().string() + " mutant " +
                               std::to_string(K));
    Mutants += Set.size();
    if (HasFatalFailure())
      return;
  }
  EXPECT_GE(Mutants, Seeds.size() * 10000);
}

} // namespace
