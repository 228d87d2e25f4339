//===- tests/test_verify.cpp - static artifact verifier tests -------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Two halves, mirroring the verifier's contract:
//
//  - Negatives: compile a known-good body, hand-corrupt one facet of the
//    artifact (a branch target, a slot base, the line table, the frame
//    reservation, threaded-IR branch metadata, fusion over a probed pc)
//    and assert that exactly the matching invariant fires with a precise
//    diagnostic.
//  - Positives: every fig. 7 suite module must verify clean through all
//    four compiler pipelines and the threaded-IR pre-decoder.
//
//===----------------------------------------------------------------------===//

#include "verify/verifier.h"

#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "engine/engine.h"
#include "interp/predecode.h"
#include "opt/optcompiler.h"
#include "suites/suites.h"
#include "testutil.h"

#include <gtest/gtest.h>

using namespace wisp;

namespace {

/// A body that exercises every invariant family: a loop with forward and
/// backward branches, a potentially-trapping memory load, a direct call,
/// and live locals.
///
///   f(n) = sum over i=n..1 of mem32[i & 3], accumulated via add(acc, v)
std::unique_ptr<Module> buildRichModule() {
  ModuleBuilder MB;
  MB.addMemory(1);
  uint32_t TAdd = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &Add = MB.addFunc(TAdd);
  Add.localGet(0);
  Add.localGet(1);
  Add.op(Opcode::I32Add);
  uint32_t TMain = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &Main = MB.addFunc(TMain);
  uint32_t Acc = Main.addLocal(ValType::I32);
  Main.block();
  Main.loop();
  Main.localGet(0);
  Main.op(Opcode::I32Eqz);
  Main.brIf(1);
  Main.localGet(Acc);
  Main.localGet(0);
  Main.i32Const(3);
  Main.op(Opcode::I32And);
  Main.load(Opcode::I32Load, 0, 2);
  Main.call(MB.funcIndex(Add));
  Main.localSet(Acc);
  Main.localGet(0);
  Main.i32Const(1);
  Main.op(Opcode::I32Sub);
  Main.localSet(0);
  Main.br(0);
  Main.end();
  Main.end();
  Main.localGet(Acc);
  MB.exportFunc("f", MB.funcIndex(Main));
  return buildAndValidate(MB);
}

/// The module's "interesting" function (the loop body above).
const FuncDecl &mainFunc(const Module &M) { return M.Funcs[1]; }

bool hasCheck(const VerifyReport &R, const std::string &Check) {
  for (const VerifyFinding &F : R.Findings)
    if (F.Check == Check)
      return true;
  return false;
}

const VerifyFinding *findCheck(const VerifyReport &R,
                               const std::string &Check) {
  for (const VerifyFinding &F : R.Findings)
    if (F.Check == Check)
      return &F;
  return nullptr;
}

} // namespace

// --- Positive: the uncorrupted artifact is clean on every pipeline ------

TEST(Verify, CleanOnAllPipelines) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  CompilerOptions Opts = CompilerOptions::allopt();
  for (const FuncDecl &F : M->Funcs) {
    VerifyScope Base = VerifyScope::baseline();
    auto Spc = compileFunction(*M, F, Opts);
    ASSERT_TRUE(Spc);
    EXPECT_TRUE(verifyMachineCode(*M, F, *Spc, Base).ok())
        << verifyMachineCode(*M, F, *Spc, Base).text();
    auto Two = compileTwoPass(*M, F, Opts);
    ASSERT_TRUE(Two);
    EXPECT_TRUE(verifyMachineCode(*M, F, *Two, Base).ok())
        << verifyMachineCode(*M, F, *Two, Base).text();
    auto Cp = compileCopyPatch(*M, F, Opts);
    ASSERT_TRUE(Cp);
    EXPECT_TRUE(verifyMachineCode(*M, F, *Cp, Base).ok())
        << verifyMachineCode(*M, F, *Cp, Base).text();
    auto Opt = compileOptimizing(*M, F, Opts);
    ASSERT_TRUE(Opt);
    VerifyScope OptScope = VerifyScope::optimizing();
    EXPECT_TRUE(verifyMachineCode(*M, F, *Opt, OptScope).ok())
        << verifyMachineCode(*M, F, *Opt, OptScope).text();
    auto TC = predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
    ASSERT_TRUE(TC);
    EXPECT_TRUE(verifyThreadedCode(*M, F, *TC).ok())
        << verifyThreadedCode(*M, F, *TC).text();
  }
}

// --- Negatives: hand-corrupted machine code ----------------------------

TEST(Verify, PatchedBranchTargetFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  uint32_t Patched = UINT32_MAX;
  for (uint32_t I = 0; I < Code->Insts.size(); ++I) {
    MOp Op = Code->Insts[I].Op;
    if (Op == MOp::Jmp || Op == MOp::JmpIf || Op == MOp::JmpIfZ ||
        Op == MOp::BrCmp32 || Op == MOp::BrCmpI32 || Op == MOp::BrCmp64 ||
        Op == MOp::BrCmpI64) {
      Code->Insts[I].Imm = int64_t(Code->Insts.size()) + 7;
      Patched = I;
      break;
    }
  }
  ASSERT_NE(Patched, UINT32_MAX) << "body compiled without any branch";
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  const VerifyFinding *Find = findCheck(R, "branch-target");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Patched);
  EXPECT_FALSE(Find->Detail.empty());
}

TEST(Verify, WrongSlotBaseFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  uint32_t Patched = UINT32_MAX;
  for (uint32_t I = 0; I < Code->Insts.size(); ++I) {
    MOp Op = Code->Insts[I].Op;
    if (Op == MOp::StSlot || Op == MOp::LdSlot) {
      Code->Insts[I].Imm = int64_t(Code->FrameSlots) + 3;
      Patched = I;
      break;
    }
  }
  ASSERT_NE(Patched, UINT32_MAX) << "body compiled without slot traffic";
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  const VerifyFinding *Find = findCheck(R, "slot-bounds");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Patched);
  EXPECT_NE(Find->Detail.find("frame"), std::string::npos) << Find->Detail;
}

TEST(Verify, DroppedLineTableEntryFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  // Locate the trapping load and drop exactly the line-table entry that
  // covers it: its trap would now be attributed to the wrong opcode.
  uint32_t LoadPc = UINT32_MAX;
  for (uint32_t I = 0; I < Code->Insts.size(); ++I)
    if (Code->Insts[I].Op == MOp::LdM32) {
      LoadPc = I;
      break;
    }
  ASSERT_NE(LoadPc, UINT32_MAX) << "no memory load emitted";
  bool Dropped = false;
  for (size_t I = Code->LineTable.size(); I-- > 0;) {
    if (Code->LineTable[I].Pc <= LoadPc) {
      Code->LineTable.erase(Code->LineTable.begin() + long(I));
      Dropped = true;
      break;
    }
  }
  ASSERT_TRUE(Dropped);
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  // The load is now covered by the previous entry (a non-trapping opcode)
  // or by nothing at all; either way it is a trap-coverage violation.
  EXPECT_TRUE(hasCheck(R, "trap-coverage")) << R.text();
}

TEST(Verify, OversizedFrameSlotFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  // Shrink the prologue's frame reservation below the locals: every slot
  // the body touches is now out of bounds, and the frame itself is
  // malformed.
  Code->FrameSlots = F.numLocalSlots() - 1;
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasCheck(R, "frame-size")) << R.text();
  EXPECT_TRUE(hasCheck(R, "slot-bounds")) << R.text();
}

TEST(Verify, ScrambledLineTableOrderFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  ASSERT_GE(Code->LineTable.size(), 2u);
  std::swap(Code->LineTable.front(), Code->LineTable.back());
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_TRUE(hasCheck(R, "line-table")) << R.text();
}

TEST(Verify, EmptiedBodyFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  Code->Insts.clear();
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_TRUE(hasCheck(R, "empty-code")) << R.text();
}

TEST(Verify, CorruptedCallIndexFires) {
  // A corrupted CallDirect immediate must be reported as a call-index
  // finding — and must NOT be dereferenced by the call-shape pass (which
  // would read M.Funcs out of bounds on exactly the artifacts the verifier
  // exists to reject).
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  uint32_t CallPc = UINT32_MAX;
  for (uint32_t I = 0; I < Code->Insts.size(); ++I)
    if (Code->Insts[I].Op == MOp::CallDirect) {
      CallPc = I;
      break;
    }
  ASSERT_NE(CallPc, UINT32_MAX) << "body compiled without a direct call";
  int64_t Saved = Code->Insts[CallPc].Imm;
  Code->Insts[CallPc].Imm = int64_t(M->Funcs.size()) + 5;
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  const VerifyFinding *Find = findCheck(R, "call-index");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, CallPc);
  EXPECT_NE(Find->Detail.find("outside"), std::string::npos) << Find->Detail;
  // A negative index takes the same guarded path.
  Code->Insts[CallPc].Imm = -3;
  VerifyReport R2 = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_TRUE(hasCheck(R2, "call-index")) << R2.text();
  // Restoring the callee restores a clean report.
  Code->Insts[CallPc].Imm = Saved;
  EXPECT_TRUE(verifyMachineCode(*M, F, *Code, VerifyScope::baseline()).ok());
}

TEST(Verify, CorruptedOsrEntryFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  CompilerOptions Opts = CompilerOptions::allopt();
  Opts.EmitOsrEntries = true;
  Opts.EmitDeoptChecks = true;
  auto Code = compileFunction(*M, F, Opts);
  ASSERT_TRUE(Code);
  ASSERT_FALSE(Code->OsrEntries.empty()) << "loop body has an OSR entry";
  ASSERT_TRUE(verifyMachineCode(*M, F, *Code, VerifyScope::baseline()).ok());
  // Point the OSR entry's bytecode ip between opcode boundaries: a tier-up
  // transfer would resume mid-opcode.
  Code->OsrEntries[0].Ip += 1;
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_TRUE(hasCheck(R, "osr-entry")) << R.text();
}

TEST(Verify, CorruptedDeoptStackPositionFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  CompilerOptions Opts = CompilerOptions::allopt();
  Opts.EmitOsrEntries = true;
  Opts.EmitDeoptChecks = true;
  auto Code = compileFunction(*M, F, Opts);
  ASSERT_TRUE(Code);
  uint32_t Patched = UINT32_MAX;
  for (uint32_t I = 0; I < Code->Insts.size(); ++I)
    if (Code->Insts[I].Op == MOp::DeoptCheck) {
      Code->Insts[I].Imm2 += 1; // Resume with a side-table position skew.
      Patched = I;
      break;
    }
  ASSERT_NE(Patched, UINT32_MAX);
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  const VerifyFinding *Find = findCheck(R, "deopt-site");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Patched);
}

// --- Negatives: hand-corrupted threaded IR ------------------------------

TEST(Verify, ThreadedPatchedBranchTargetFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto TC = predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
  ASSERT_TRUE(TC);
  ASSERT_TRUE(verifyThreadedCode(*M, F, *TC).ok())
      << verifyThreadedCode(*M, F, *TC).text();
  uint32_t Patched = UINT32_MAX;
  for (uint32_t I = 0; I < TC->Units.size(); ++I) {
    TOp Op = TOp(TC->Units[I].Op);
    if (Op == TOp::Br || Op == TOp::BrIf) {
      TC->Units[I].A += 1; // Pre-resolved target now lands one unit off.
      Patched = I;
      break;
    }
  }
  ASSERT_NE(Patched, UINT32_MAX) << "no unfused branch unit";
  VerifyReport R = verifyThreadedCode(*M, F, *TC);
  const VerifyFinding *Find = findCheck(R, "threaded-branch");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Patched);
}

TEST(Verify, ThreadedWrongSlotBaseFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto TC = predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
  ASSERT_TRUE(TC);
  uint32_t Patched = UINT32_MAX;
  for (uint32_t I = 0; I < TC->Units.size(); ++I) {
    TOp Op = TOp(TC->Units[I].Op);
    if (Op == TOp::Br || Op == TOp::BrIf) {
      TC->Units[I].Aux += 1; // Merge values would land one slot high.
      Patched = I;
      break;
    }
  }
  ASSERT_NE(Patched, UINT32_MAX) << "no unfused branch unit";
  VerifyReport R = verifyThreadedCode(*M, F, *TC);
  const VerifyFinding *Find = findCheck(R, "threaded-slot-base");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Patched);
}

TEST(Verify, FusionAcrossProbedPcFires) {
  // Pre-decode WITHOUT probe knowledge, then verify against an oracle that
  // claims a probe inside the fused span: exactly the stale-IR hazard the
  // re-predecode path exists to prevent.
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  MB.exportFunc("f", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  const FuncDecl &D = M->Funcs[0];
  auto TC = predecodeFunction(*M, D, nullptr, /*EnableFusion=*/true);
  ASSERT_TRUE(TC);
  ASSERT_FALSE(TC->FusedSpans.empty()) << "get-get-add did not fuse";
  ASSERT_TRUE(verifyThreadedCode(*M, D, *TC).ok());
  // The second local.get: an interior opcode boundary of the fused span.
  uint32_t ProbedIp = TC->FusedSpans[0].first + 2;
  VerifyReport R = verifyThreadedCode(
      *M, D, *TC, [&](uint32_t Ip) { return Ip == ProbedIp; });
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasCheck(R, "threaded-fusion") || hasCheck(R, "threaded-probe"))
      << R.text();
  // Re-pre-decoding with the probe oracle (as Engine::addProbe does) must
  // produce IR that verifies clean against the same oracle.
  FuncInstance FI;
  FI.Decl = &D;
  FI.setProbeBit(ProbedIp);
  auto TC2 = predecodeFunction(*M, D, &FI, /*EnableFusion=*/true);
  ASSERT_TRUE(TC2);
  EXPECT_TRUE(verifyThreadedCode(*M, D, *TC2,
                                 [&](uint32_t Ip) { return Ip == ProbedIp; })
                  .ok());
}

// --- Positive sweep: every fig. 7 suite module on every pipeline --------

TEST(Verify, Fig7SuitesCleanOnEveryTier) {
  for (const LineItem &Item : allSuites(1)) {
    WasmError Err;
    std::unique_ptr<Module> M = decodeModule(Item.Bytes, &Err);
    ASSERT_TRUE(M) << Item.Suite << "/" << Item.Name << ": " << Err.Message;
    ASSERT_TRUE(validateModule(*M, &Err))
        << Item.Suite << "/" << Item.Name << ": " << Err.Message;
    CompilerOptions Opts = CompilerOptions::allopt();
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      std::string Where = Item.Suite + "/" + Item.Name + " func " +
                          std::to_string(F.Index);
      VerifyScope Base = VerifyScope::baseline();
      auto Spc = compileFunction(*M, F, Opts);
      ASSERT_TRUE(Spc) << Where;
      EXPECT_TRUE(verifyMachineCode(*M, F, *Spc, Base).ok())
          << Where << "\n" << verifyMachineCode(*M, F, *Spc, Base).text();
      auto Two = compileTwoPass(*M, F, Opts);
      ASSERT_TRUE(Two) << Where;
      EXPECT_TRUE(verifyMachineCode(*M, F, *Two, Base).ok())
          << Where << "\n" << verifyMachineCode(*M, F, *Two, Base).text();
      auto Cp = compileCopyPatch(*M, F, Opts);
      ASSERT_TRUE(Cp) << Where;
      EXPECT_TRUE(verifyMachineCode(*M, F, *Cp, Base).ok())
          << Where << "\n" << verifyMachineCode(*M, F, *Cp, Base).text();
      auto Opt = compileOptimizing(*M, F, Opts);
      ASSERT_TRUE(Opt) << Where;
      VerifyScope OptScope = VerifyScope::optimizing();
      EXPECT_TRUE(verifyMachineCode(*M, F, *Opt, OptScope).ok())
          << Where << "\n" << verifyMachineCode(*M, F, *Opt, OptScope).text();
      auto TC = predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
      ASSERT_TRUE(TC) << Where;
      EXPECT_TRUE(verifyThreadedCode(*M, F, *TC).ok())
          << Where << "\n" << verifyThreadedCode(*M, F, *TC).text();
    }
  }
}

// --- Engine integration: rejection surfaces, acceptance is invisible ----

TEST(Verify, EngineVerifiesEagerLoadsClean) {
  EngineConfig Cfg;
  Cfg.Mode = ExecMode::Jit;
  Cfg.VerifyArtifacts = true;
  Cfg.UseCompileCache = false;
  Engine E(Cfg);
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Add);
  MB.exportFunc("inc", MB.funcIndex(F));
  WasmError Err;
  std::unique_ptr<LoadedModule> LM = E.load(MB.build(), &Err);
  ASSERT_TRUE(LM) << Err.Message;
  EXPECT_TRUE(E.verifyError().empty()) << E.verifyError();
  std::vector<Value> Out;
  EXPECT_EQ(E.invoke(*LM, "inc", {Value::makeI32(41)}, &Out),
            TrapReason::None);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], Value::makeI32(42));
}

// --- Patch-point table: the relocatable-artifact contract ---------------

namespace {

/// Classifies every site as a pure counter, so OptimizeProbes intrinsifies
/// each one into a relocatable CntInc + CounterCell patch entry.
class CounterEverywhereOracle : public ProbeSiteOracle {
public:
  ProbeSiteKind classify(uint32_t, uint32_t) const override {
    return ProbeSiteKind::Counter;
  }
  uint64_t *counterAddr(uint32_t, uint32_t) const override { return nullptr; }
};

/// Compiles the rich module's main body with a counter probe on every
/// opcode: the result carries at least one unbound CntInc covered by the
/// patch table.
std::unique_ptr<MCode> compileCounterBody(const Module &M) {
  CounterEverywhereOracle Probes;
  auto Code =
      compileFunction(M, mainFunc(M), CompilerOptions::allopt(), &Probes);
  EXPECT_TRUE(Code);
  if (Code) {
    EXPECT_FALSE(Code->Patches.empty());
    for (const PatchPoint &P : Code->Patches)
      EXPECT_EQ(Code->Insts[P.Pc].Imm, 0) << "emitter baked an address";
  }
  return Code;
}

} // namespace

TEST(Verify, RelocatableCounterBodyIsClean) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_TRUE(R.ok()) << R.text();
}

TEST(Verify, BakedCounterAddressFires) {
  // The attack the relocation refactor closes off: a (deserialized,
  // adversarial) artifact smuggling an absolute cell address in CntInc's
  // immediate. The executor would increment through it blindly; the
  // verifier must reject the artifact before it can ever execute.
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  Code->Insts[Code->Patches.front().Pc].Imm = 0x7FFF0000DEADBEEFll;
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  const VerifyFinding *Find = findCheck(R, "patch-point");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Code->Patches.front().Pc);
}

TEST(Verify, UncoveredCntIncFires) {
  // A CntInc with no covering table entry would execute with its unbound
  // zero operand — the bind step could never reach it.
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  uint32_t Orphaned = Code->Patches.back().Pc;
  Code->Patches.pop_back();
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  const VerifyFinding *Find = findCheck(R, "patch-point");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_EQ(Find->Pc, Orphaned);
}

TEST(Verify, PatchPointBeyondCodeEndFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  Code->Patches.push_back(
      {PatchKind::CounterCell, uint32_t(Code->Insts.size()) + 7, 0});
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_TRUE(hasCheck(R, "patch-point")) << R.text();
}

TEST(Verify, PatchPointOnNonCntIncFires) {
  // Retargeting a valid entry at an arbitrary instruction must fire twice
  // over: the target is not a CntInc, and the real CntInc is uncovered.
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  PatchPoint &P = Code->Patches.front();
  uint32_t NonCnt = UINT32_MAX;
  for (uint32_t I = 0; I < Code->Insts.size(); ++I)
    if (Code->Insts[I].Op != MOp::CntInc) {
      NonCnt = I;
      break;
    }
  ASSERT_NE(NonCnt, UINT32_MAX);
  P.Pc = NonCnt;
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasCheck(R, "patch-point")) << R.text();
}

TEST(Verify, DuplicatePatchPointFires) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  Code->Patches.push_back(Code->Patches.front());
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  const VerifyFinding *Find = findCheck(R, "patch-point");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_NE(Find->Detail.find("duplicate"), std::string::npos) << R.text();
}

TEST(Verify, PatchPointNonBoundaryOperandFires) {
  // The operand names the probed bytecode offset the engine uses to look
  // up the counter cell; an off-boundary (or 32-bit-overflowing) value
  // could never have come from a real probe site.
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  auto Code = compileCounterBody(*M);
  ASSERT_TRUE(Code);
  Code->Patches.front().Operand = ~uint64_t(0);
  VerifyReport R =
      verifyMachineCode(*M, mainFunc(*M), *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasCheck(R, "patch-point")) << R.text();
}

TEST(Verify, BackwardLineTablePcFires) {
  // Companion to MCode::noteLine's debug assert: a line entry whose Pc
  // runs backward (the emitter rewound the code stream, or a deserialized
  // artifact was tampered with) erases trap attribution and must be
  // rejected by the release-build verifier too.
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  auto Code = compileFunction(*M, F, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  ASSERT_GE(Code->LineTable.size(), 2u);
  Code->LineTable.push_back({0, Code->LineTable.front().Ip});
  VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
  EXPECT_FALSE(R.ok());
  const VerifyFinding *Find = findCheck(R, "line-table");
  ASSERT_NE(Find, nullptr) << R.text();
  EXPECT_NE(Find->Detail.find("ascending"), std::string::npos) << R.text();
}

// --- Offsets the site index must reject ----------------------------------

namespace {

/// Classifies every site as a generic probe, so every opcode gets a
/// ProbeFire naming its bytecode offset.
class GenericEverywhereOracle : public ProbeSiteOracle {
public:
  ProbeSiteKind classify(uint32_t, uint32_t) const override {
    return ProbeSiteKind::Generic;
  }
  uint64_t *counterAddr(uint32_t, uint32_t) const override { return nullptr; }
};

/// Offsets that are not opcode boundaries of \p F: one byte before the
/// body, the body's end, and the byte inside a local.get's index
/// immediate.
std::vector<uint32_t> offBoundaryOffsets(const Module &M, const FuncDecl &F) {
  std::vector<uint32_t> Offs = {F.BodyStart - 1, F.BodyEnd};
  auto Code = compileFunction(M, F, CompilerOptions::allopt());
  for (const LineEntry &E : Code->LineTable)
    if (M.Bytes[E.Ip] == uint8_t(Opcode::LocalGet)) {
      Offs.push_back(E.Ip + 1);
      break;
    }
  EXPECT_EQ(Offs.size(), 3u) << "no local.get in the line table";
  return Offs;
}

} // namespace

TEST(Verify, LineEntryOffBoundaryEdgesFire) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  for (uint32_t Ip : offBoundaryOffsets(*M, F)) {
    auto Code = compileFunction(*M, F, CompilerOptions::allopt());
    ASSERT_TRUE(Code);
    LineEntry &E = Code->LineTable[Code->LineTable.size() / 2];
    E.Ip = Ip;
    VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
    const VerifyFinding *Find = findCheck(R, "line-table");
    ASSERT_NE(Find, nullptr) << "ip " << Ip << "\n" << R.text();
    EXPECT_EQ(Find->Pc, E.Pc);
    EXPECT_EQ(Find->Detail,
              "line entry maps pc " + std::to_string(E.Pc) +
                  " to non-boundary bytecode offset " + std::to_string(Ip));
  }
}

TEST(Verify, OsrEntryOffBoundaryEdgesFire) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  CompilerOptions Opts = CompilerOptions::allopt();
  Opts.EmitOsrEntries = true;
  for (uint32_t Ip : offBoundaryOffsets(*M, F)) {
    auto Code = compileFunction(*M, F, Opts);
    ASSERT_TRUE(Code);
    ASSERT_FALSE(Code->OsrEntries.empty());
    Code->OsrEntries[0].Ip = Ip;
    VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
    const VerifyFinding *Find = findCheck(R, "osr-entry");
    ASSERT_NE(Find, nullptr) << "ip " << Ip << "\n" << R.text();
    EXPECT_EQ(Find->Pc, Code->OsrEntries[0].Pc);
    EXPECT_EQ(Find->Detail, "OSR entry ip " + std::to_string(Ip) +
                                " is not an opcode boundary");
  }
}

TEST(Verify, ProbeFireOffBoundaryEdgesFire) {
  std::unique_ptr<Module> M = buildRichModule();
  ASSERT_TRUE(M);
  const FuncDecl &F = mainFunc(*M);
  GenericEverywhereOracle Probes;
  for (uint32_t Ip : offBoundaryOffsets(*M, F)) {
    auto Code = compileFunction(*M, F, CompilerOptions::allopt(), &Probes);
    ASSERT_TRUE(Code);
    ASSERT_TRUE(
        verifyMachineCode(*M, F, *Code, VerifyScope::baseline()).ok());
    uint32_t FirePc = UINT32_MAX;
    for (uint32_t Pc = 0; Pc < Code->Insts.size(); ++Pc)
      if (Code->Insts[Pc].Op == MOp::ProbeFire) {
        FirePc = Pc;
        break;
      }
    ASSERT_NE(FirePc, UINT32_MAX) << "no ProbeFire emitted";
    Code->Insts[FirePc].Imm = Ip;
    VerifyReport R = verifyMachineCode(*M, F, *Code, VerifyScope::baseline());
    const VerifyFinding *Find = findCheck(R, "probe-site");
    ASSERT_NE(Find, nullptr) << "ip " << Ip << "\n" << R.text();
    EXPECT_EQ(Find->Pc, FirePc);
    EXPECT_EQ(Find->Detail, "ProbeFire at non-boundary bytecode offset " +
                                std::to_string(Ip));
    // The probe-shape pass skips what checkInst already reported.
    EXPECT_FALSE(hasCheck(R, "probe-shape")) << R.text();
  }
}
