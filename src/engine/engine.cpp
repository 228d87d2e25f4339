//===- engine/engine.cpp - the wisp engine facade ---------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "engine/engine.h"

#include "analysis/analysis.h"
#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "cache/diskcache.h"
#include "interp/interpreter.h"
#include "opt/optcompiler.h"
#include "runtime/watchdog.h"
#include "support/clock.h"
#include "support/format.h"
#include "verify/verifier.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <cstdlib>

using namespace wisp;

Engine::Engine(EngineConfig CfgIn, CompileCache *CacheIn, InstancePool *PoolIn)
    : Cfg(std::move(CfgIn)) {
  Cache = Cfg.UseCompileCache ? (CacheIn ? CacheIn : &CompileCache::process())
                              : nullptr;
  // The persistent second level sits behind the in-process cache (it is
  // consulted from inside the cache's miss path), so it requires one. A
  // directory that cannot be opened degrades to uncached operation —
  // never a load failure.
  if (Cache && Cfg.UseDiskCache) {
    std::string Dir = Cfg.DiskCacheDir;
    if (Dir.empty())
      if (const char *Env = getenv("WISP_CACHE_DIR"))
        Dir = Env;
    if (!Dir.empty())
      Disk = DiskCache::open(Dir);
  }
  if (Cfg.PoolInstances) {
    if (PoolIn) {
      Pool = PoolIn;
    } else {
      OwnedPool = std::make_unique<InstancePool>();
      Pool = OwnedPool.get();
    }
  }
  // Governance: any per-invocation limit forces fuel-check emission into
  // every compiled tier (pure-JIT configurations would otherwise never
  // observe a deadline or cancellation inside a loop) and threaded-IR fuel
  // gates; invoke() arms the per-job state.
  if (Cfg.governed())
    Cfg.Opts.EmitFuelChecks = true;
  T = std::make_unique<Thread>(Cfg.StackSlots, Cfg.wantsTagLane());
  T->Hooks = this;
  if (Cfg.MaxCallDepth)
    T->MaxFrames = Cfg.MaxCallDepth;
  T->Interruptible = Cfg.DeadlineMs > 0 || Cfg.Interruptible;
  T->UseThreaded = Cfg.ThreadedDispatch &&
                   (Cfg.Mode == ExecMode::Interp || Cfg.Mode == ExecMode::Tiered);
  if (Cfg.Mode == ExecMode::Tiered)
    T->TierUpThreshold = Cfg.TierUpThreshold;
  else if (Cfg.Mode == ExecMode::JitLazy)
    T->TierUpThreshold = 1; // Compile on first call.
  // Copy-and-patch generates its templates at engine startup (the paper
  // observes exactly this cost in WasmNow's SQ region).
  if (Cfg.Compiler == CompilerKind::CopyPatch)
    warmCopyPatchTemplates();
}

Engine::~Engine() = default;

InstancePool::Entry InstancePool::take(const Module *M) {
  auto It = Map.find(M);
  if (It == Map.end() || It->second.empty()) {
    ++T.Misses;
    return {};
  }
  Entry E = std::move(It->second.back());
  It->second.pop_back();
  --Count;
  ++T.Hits;
  return E;
}

void InstancePool::put(std::shared_ptr<const Module> M,
                       std::shared_ptr<const InstanceImage> Image,
                       std::unique_ptr<Instance> Inst) {
  assert(M && Image && Inst && "pooling requires module, image, instance");
  std::vector<Entry> &V = Map[M.get()];
  if (V.size() >= MaxPerModule) {
    ++T.Dropped;
    return; // Inst destroyed here; memory stays bounded.
  }
  V.push_back(Entry{std::move(M), std::move(Image), std::move(Inst)});
  ++Count;
  ++T.Returned;
}

bool Engine::recycle(std::unique_ptr<LoadedModule> LM) {
  if (!LM)
    return false;
  if (Current == LM.get())
    Current = nullptr;
  // Pool invariants: only imaged instances can be re-imaged; a probed
  // engine's instances may carry instrumentation side effects that must
  // not leak into an un-instrumented load; live GC objects may reference
  // the instance (externrefs escape through results and probes), so a
  // non-empty heap pins its instances out of the pool.
  if (!Pool || !LM->Image || !LM->Inst)
    return false;
  if (Probes.anyProbes())
    return false;
  if (Heap.liveCount() > 0)
    return false;
  Pool->put(LM->M, LM->Image, std::move(LM->Inst));
  return true;
}

std::unique_ptr<MCode> Engine::compileRaw(const Module &M, const FuncDecl &F,
                                          const CompilerOptions &Opts,
                                          CompilerKind Kind) {
  const ProbeSiteOracle *Oracle = Probes.anyProbes() ? &Probes : nullptr;
  switch (Kind) {
  case CompilerKind::SinglePass:
    return compileFunction(M, F, Opts, Oracle);
  case CompilerKind::TwoPass:
    return compileTwoPass(M, F, Opts, Oracle);
  case CompilerKind::CopyPatch:
    return compileCopyPatch(M, F, Opts, Oracle);
  case CompilerKind::Optimizing:
    return compileOptimizing(M, F, Opts, Oracle);
  }
  return nullptr;
}

namespace {

/// Applies an artifact's patch-point table against the engine's probe
/// registry, resolving every engine-absolute operand the emitters left
/// symbolic (machine/isa.h PatchKind). Runs after verification — the
/// verifier checks the *relocatable* form, including that every CntInc is
/// still unbound — and before the artifact is shared or installed. Probed
/// bodies are the only ones with patch points, and they bypass the compile
/// cache, so a bound artifact is always private to this engine.
void bindPatchPoints(MCode &Code, const ProbeRegistry &Probes) {
  for (const PatchPoint &P : Code.Patches) {
    switch (P.Kind) {
    case PatchKind::CounterCell:
      Code.Insts[P.Pc].Imm = int64_t(
          uintptr_t(Probes.counterAddr(Code.FuncIndex, uint32_t(P.Operand))));
      break;
    }
  }
}

} // namespace

bool Engine::verifyMCodeArtifact(const Module &M, const FuncDecl &F,
                                 const MCode &Code, CompilerKind Kind) {
  if (!Cfg.VerifyArtifacts)
    return true;
  VerifyScope Scope = Kind == CompilerKind::Optimizing
                          ? VerifyScope::optimizing()
                          : VerifyScope::baseline();
  // Tighten with per-function analyzer facts: the reachable-only operand-
  // stack bound upgrades the frame-size floor and adds argument-window
  // bounds on every tier — the optimizing one included, which previously
  // got purely structural checks.
  Scope = Scope.withFacts(analyzeFunction(M, F).StackBound);
  VerifyReport R = verifyMachineCode(M, F, Code, Scope);
  if (R.ok())
    return true;
  VerifyError = R.text();
  return false;
}

bool Engine::verifyThreadedArtifact(const Module &M, const FuncDecl &F,
                                    const ThreadedCode &TC,
                                    const FuncInstance *Func) {
  if (!Cfg.VerifyArtifacts)
    return true;
  VerifyReport R = verifyThreadedCode(
      M, F, TC, [Func](uint32_t Ip) { return Func->probedAt(Ip); });
  if (R.ok())
    return true;
  VerifyError = R.text();
  return false;
}

const MCode *Engine::compileShared(LoadedModule &LM, const FuncDecl &F,
                                   const CompilerOptions &Opts,
                                   CompilerKind Kind) {
  // Verification happens inside the builder, i.e. exactly once per cache
  // insert: a rejected artifact comes back null and is never cached (the
  // cache never stores failures), and cache hits pay nothing. That is
  // sound because VerifyArtifacts is part of the cache key — a verify-on
  // engine can only hit entries that were verified at insert time.
  bool BuiltHere = false;
  auto Build = [&]() -> std::shared_ptr<const MCode> {
    BuiltHere = true;
    std::unique_ptr<MCode> Built = compileRaw(*LM.M, F, Opts, Kind);
    if (Built && !verifyMCodeArtifact(*LM.M, F, *Built, Kind))
      return nullptr;
    // Bind after verification (which checks the relocatable form) and
    // before sharing. On the cached path the table is empty — probed
    // bodies bypass the cache — so cached artifacts stay relocatable.
    if (Built)
      bindPatchPoints(*Built, Probes);
    return std::shared_ptr<const MCode>(std::move(Built));
  };
  std::shared_ptr<const MCode> C;
  if (cacheUsable()) {
    if (!LM.ContextDigest)
      LM.ContextDigest = moduleContextDigest(*LM.M);
    CacheKey K = codeCacheKey(LM.ContextDigest, *LM.M, F, Kind, Opts,
                              Cfg.VerifyArtifacts);
    // The persistent second level: the process cache consults it on a
    // miss, before building, and offers fresh builds back for publication.
    // Disk bytes crossed a process boundary, so they are re-verified here
    // on every load — unconditionally, even when Cfg.VerifyArtifacts is
    // off (the header checksum proves integrity, not provenance). A
    // rejected file is deleted and the caller falls through to a clean
    // rebuild; it is never served.
    std::function<std::shared_ptr<const MCode>(uint64_t *)> DiskLoad;
    std::function<void(const MCode &, uint64_t)> DiskStore;
    if (Disk) {
      DiskLoad = [&, K](uint64_t *BuildNs) -> std::shared_ptr<const MCode> {
        std::vector<uint8_t> Payload;
        if (!Disk->load(K, DiskArtifactKind::Code, &Payload, BuildNs,
                        &DiskNote))
          return nullptr;
        std::shared_ptr<MCode> Code = deserializeMCode(Payload);
        if (!Code) {
          Disk->removeRejected(K, DiskArtifactKind::Code);
          DiskNote = "disk artifact rejected (deserialization): " +
                     Disk->path(K, DiskArtifactKind::Code);
          return nullptr;
        }
        VerifyScope Scope = Kind == CompilerKind::Optimizing
                                ? VerifyScope::optimizing()
                                : VerifyScope::baseline();
        Scope = Scope.withFacts(analyzeFunction(*LM.M, F).StackBound);
        VerifyReport R = verifyMachineCode(*LM.M, F, *Code, Scope);
        if (!R.ok()) {
          Disk->removeRejected(K, DiskArtifactKind::Code);
          DiskNote = "disk artifact rejected (verifier): " +
                     Disk->path(K, DiskArtifactKind::Code) + "\n" + R.text();
          return nullptr;
        }
        // The admitted artifact is relocatable by verifier rule (every
        // CntInc unbound); bind it like a fresh build. cacheUsable ⇒ no
        // probes ⇒ the table is empty today, but the ordering is load →
        // verify → bind either way.
        bindPatchPoints(*Code, Probes);
        return Code;
      };
      DiskStore = [&, K](const MCode &Code, uint64_t BuildNs) {
        Disk->store(K, DiskArtifactKind::Code, serializeMCode(Code), BuildNs);
      };
    }
    C = Cache->getOrCompile(K, Build, &LM.Stats, DiskLoad, DiskStore);
    // A waiter served a failed in-flight build got null without running the
    // builder, so this engine's VerifyError is still empty. Compilation and
    // verification are deterministic: rebuild locally to reproduce the
    // diagnostic (rejections are rare, so this costs nothing in steady
    // state; the cache never stores failures either way).
    if (!C && !BuiltHere)
      C = Build();
  } else {
    C = Build();
  }
  if (!C)
    return nullptr;
  LM.Codes.push_back(C);
  return C.get();
}

std::unique_ptr<LoadedModule> Engine::load(std::vector<uint8_t> Bytes,
                                           WasmError *Err) {
  auto LM = std::make_unique<LoadedModule>();
  LM->Stats.ModuleBytes = Bytes.size();
  uint64_t T0 = nowNs();

  // Whole-module artifact: a content-identical module decodes and
  // validates once per process (validation is configuration-independent —
  // the wasm3-style Validate=false configs still build side tables through
  // the same pass). Failures are never cached: when this thread ran the
  // builder, Err already carries the diagnostic; a waiter served a failed
  // in-flight build falls back below (its Bytes are untouched — only the
  // builder consumes them) and reproduces it.
  auto DecodeAndValidate = [&]() -> std::shared_ptr<const Module> {
    uint64_t D0 = nowNs();
    std::unique_ptr<Module> M = decodeModule(std::move(Bytes), Err);
    if (!M)
      return nullptr;
    uint64_t D1 = nowNs();
    LM->Stats.DecodeNs = D1 - D0;
    if (!validateModule(*M, Err))
      return nullptr;
    LM->Stats.ValidateNs = nowNs() - D1;
    return std::shared_ptr<const Module>(std::move(M));
  };
  bool BuiltHere = false;
  if (Cache) {
    LM->M = Cache->getOrBuildModule(
        moduleCacheKey(Bytes),
        [&] {
          BuiltHere = true;
          return DecodeAndValidate();
        },
        &LM->Stats);
    if (!LM->M && BuiltHere)
      return nullptr;
  }
  if (!LM->M)
    LM->M = DecodeAndValidate();
  if (!LM->M)
    return nullptr;
  LM->Stats.CodeBytes = LM->M->codeBytes();

  // Resource governance: reject modules whose declared minimum footprint
  // already exceeds this engine's per-job caps — before any allocation,
  // and identically on every instantiation path (fresh, image, pooled).
  if (Cfg.MaxMemoryPages && !LM->M->Memories.empty() &&
      LM->M->Memories[0].Lim.Min > Cfg.MaxMemoryPages) {
    if (Err)
      Err->Message = strFormat("memory minimum %u pages exceeds job limit %u",
                               LM->M->Memories[0].Lim.Min, Cfg.MaxMemoryPages);
    return nullptr;
  }
  if (Cfg.MaxTableElems)
    for (const TableDecl &Td : LM->M->Tables)
      if (Td.Lim.Min > Cfg.MaxTableElems) {
        if (Err)
          Err->Message =
              strFormat("table minimum %u elements exceeds job limit %u",
                        Td.Lim.Min, Cfg.MaxTableElems);
        return nullptr;
      }

  uint64_t T2 = nowNs();
  // Instantiation fast path: derive the module's instance image (shared
  // through the compile cache when one is attached — the image depends
  // only on the module bytes), then either re-image a pooled retired
  // instance in place or memcpy a fresh instance from the image. Modules
  // that are not imageable (they import globals) come back null and take
  // the legacy path below, which reproduces any link-error diagnostic.
  if (Pool) {
    if (Cache) {
      LM->Image = Cache->getOrBuildImage(
          instanceImageKey(*LM->M),
          [&]() -> std::shared_ptr<const InstanceImage> {
            return buildInstanceImage(*LM->M, nullptr);
          },
          &LM->Stats);
    } else {
      LM->Image = buildInstanceImage(*LM->M, nullptr);
    }
  }
  if (LM->Image) {
    InstancePool::Entry E = Pool->take(LM->M.get());
    if (E.Inst) {
      LM->Stats.PoolHits++;
      LM->Inst = reimageInstance(std::move(E.Inst), *LM->M, *LM->Image,
                                 Hosts, &Heap, Err);
    } else {
      LM->Stats.PoolMisses++;
    }
    if (!LM->Inst)
      LM->Inst = instantiateFromImage(*LM->M, *LM->Image, Hosts, &Heap, Err);
  } else {
    LM->Inst = instantiate(*LM->M, Hosts, &Heap, Err);
  }
  if (!LM->Inst)
    return nullptr;
  if (Cfg.MaxMemoryPages)
    LM->Inst->Memory.setPageLimit(Cfg.MaxMemoryPages);
  uint64_t T3 = nowNs();
  LM->Stats.InstantiateNs = T3 - T2;

  if (Cfg.Mode == ExecMode::Jit) {
    for (FuncInstance &FI : LM->Inst->Funcs) {
      if (FI.Decl->Imported)
        continue;
      FI.Code = compileShared(*LM, *FI.Decl, Cfg.Opts, Cfg.Compiler);
      if (!FI.Code) {
        // Artifact verification rejected the compile (the compilers
        // themselves never fail on a validated body). Eager loads surface
        // the rejection as a load error: nothing unverified ever runs.
        if (Err)
          *Err = WasmError{0, "artifact verification failed: " +
                                  (VerifyError.empty() ? std::string("compile")
                                                       : VerifyError)};
        return nullptr;
      }
      FI.UseJit = true;
      LM->Stats.CodeInsts += FI.Code->Stats.CodeInsts;
      LM->Stats.TagStores += FI.Code->Stats.TagStores;
      LM->Stats.StackMapBytes += FI.Code->Stats.StackMapBytes;
    }
  }
  uint64_t T4 = nowNs();
  LM->Stats.CompileNs = T4 - T3;

  // Threaded-dispatch tiers pre-decode every body into threaded IR up
  // front (the translation is the one-pass cost this tier trades for
  // cheaper dispatch; it lands in PredecodeNs so fig. 7/8-style total-cost
  // comparisons account for it).
  if (T->UseThreaded) {
    for (FuncInstance &FI : LM->Inst->Funcs) {
      if (FI.Decl->Imported)
        continue;
      if (!predecodeAndInstall(*LM, &FI)) {
        if (Err)
          *Err = WasmError{0, "artifact verification failed: " +
                                  (VerifyError.empty()
                                       ? std::string("predecode")
                                       : VerifyError)};
        return nullptr;
      }
    }
    uint64_t T5 = nowNs();
    LM->Stats.PredecodeNs = T5 - T4;
    LM->Stats.TotalSetupNs = T5 - T0;
  } else {
    LM->Stats.TotalSetupNs = T4 - T0;
  }
  return LM;
}

bool Engine::predecodeAndInstall(LoadedModule &LM, FuncInstance *Func) {
  // Fusion is illegal when deopt checkpoints exist: a tier-down may resume
  // at any opcode boundary, including mid-pair.
  bool Fuse = !Cfg.Opts.EmitDeoptChecks;
  // Governed engines get a synthetic FuelGate unit at every loop header;
  // the flag is part of the IR cache key below so gated and ungated IR
  // never share an entry.
  bool Gates = Cfg.Opts.EmitFuelChecks;
  // As with compileShared, verification runs inside the builder: once per
  // cache insert, never on a hit, a rejected IR is never cached (and never
  // installed), and VerifyArtifacts is part of the key so verified and
  // unverified IR never share an entry.
  bool BuiltHere = false;
  auto Build = [&]() -> std::shared_ptr<const ThreadedCode> {
    BuiltHere = true;
    std::shared_ptr<const ThreadedCode> Built =
        predecodeFunction(*LM.M, *Func->Decl, Func, Fuse, Gates);
    if (Built && !verifyThreadedArtifact(*LM.M, *Func->Decl, *Built, Func))
      return nullptr;
    return Built;
  };
  std::shared_ptr<const ThreadedCode> TC;
  if (cacheUsable()) {
    // No probes anywhere in this engine, so the probe bitmap consulted by
    // predecodeFunction is empty and the IR depends only on the body, the
    // module context and the fusion flag. Probed re-predecodes (addProbe,
    // reinstrument) take the uncached branch: fusion-suppressed IR must
    // never be inserted under — or served from — the unprobed key.
    if (!LM.ContextDigest)
      LM.ContextDigest = moduleContextDigest(*LM.M);
    CacheKey K = irCacheKey(LM.ContextDigest, *LM.M, *Func->Decl, Fuse,
                            Gates, Cfg.VerifyArtifacts);
    // Disk second level, mirroring compileShared: deserialized IR is
    // re-verified on every load regardless of Cfg.VerifyArtifacts, with no
    // probe predicate (cacheUsable ⇒ no probes, matching the
    // cached-predecode precondition above). Damage or rejection deletes
    // the file and falls through to a clean re-predecode.
    std::function<std::shared_ptr<const ThreadedCode>(uint64_t *)> DiskLoad;
    std::function<void(const ThreadedCode &, uint64_t)> DiskStore;
    if (Disk) {
      DiskLoad =
          [&, K](uint64_t *BuildNs) -> std::shared_ptr<const ThreadedCode> {
        std::vector<uint8_t> Payload;
        if (!Disk->load(K, DiskArtifactKind::Ir, &Payload, BuildNs,
                        &DiskNote))
          return nullptr;
        std::shared_ptr<ThreadedCode> TCd = deserializeThreadedCode(Payload);
        if (!TCd) {
          Disk->removeRejected(K, DiskArtifactKind::Ir);
          DiskNote = "disk artifact rejected (deserialization): " +
                     Disk->path(K, DiskArtifactKind::Ir);
          return nullptr;
        }
        VerifyReport R = verifyThreadedCode(*LM.M, *Func->Decl, *TCd);
        if (!R.ok()) {
          Disk->removeRejected(K, DiskArtifactKind::Ir);
          DiskNote = "disk artifact rejected (verifier): " +
                     Disk->path(K, DiskArtifactKind::Ir) + "\n" + R.text();
          return nullptr;
        }
        return TCd;
      };
      DiskStore = [&, K](const ThreadedCode &TCs, uint64_t BuildNs) {
        Disk->store(K, DiskArtifactKind::Ir, serializeThreadedCode(TCs),
                    BuildNs);
      };
    }
    TC = Cache->getOrPredecode(K, Build, &LM.Stats, DiskLoad, DiskStore);
    // Reproduce a concurrent inserter's rejection locally so VerifyError
    // carries the real diagnostic (see compileShared).
    if (!TC && !BuiltHere)
      TC = Build();
  } else {
    TC = Build();
  }
  if (!TC)
    return false; // Rejected: keep whatever IR was installed before.
  LM.TCodes.push_back(TC);
  LM.Stats.IrBytes += TC->byteSize();
  Func->TCode = TC.get();
  return true;
}

TrapReason Engine::invoke(LoadedModule &LM, const std::string &ExportName,
                          const std::vector<Value> &Args,
                          std::vector<Value> *Results) {
  FuncInstance *F = LM.Inst->findExportedFunc(ExportName);
  if (!F)
    return TrapReason::HostError;
  Current = &LM;
  T->Inst = LM.Inst.get();
  if (Cfg.Mode == ExecMode::JitLazy && !F->Decl->Imported && !F->Code)
    compileAndInstall(F); // Lazy: compile time lands in run time.
  if (Cfg.governed()) {
    // Clearing the interrupt byte here neutralizes a watchdog fire (or an
    // external cancel) that landed after the previous job finished: stale
    // interrupts can never kill the job after the one they targeted.
    T->Interrupt.store(0, std::memory_order_relaxed);
    T->Interruptible = Cfg.DeadlineMs > 0 || Cfg.Interruptible;
    T->armGovernance(Cfg.FuelBudget != 0, Cfg.FuelBudget);
    if (Cfg.DeadlineMs) {
      if (!Dog)
        Dog = std::make_unique<Watchdog>();
      Dog->arm(*T, Cfg.DeadlineMs);
    }
  }
  TrapReason R = wisp::invoke(*T, F, Args, Results);
  if (Dog)
    Dog->disarm();
  Current = nullptr;
  return R;
}

void Engine::compileAndInstall(FuncInstance *Func) {
  assert(Current && "no module in scope for compilation");
  const MCode *C =
      compileShared(*Current, *Func->Decl, Cfg.Opts, Cfg.Compiler);
  if (!C) {
    // Verification rejected the artifact. Off the eager-load path there is
    // always a correct fallback: keep executing on the interpreter.
    // verifyError() records the findings for the fuzzer/CLI to surface.
    Func->UseJit = false;
    return;
  }
  Func->Code = C;
  Func->UseJit = true;
}

void Engine::addProbe(LoadedModule &LM, uint32_t FuncIdx, uint32_t Ip,
                      Probe *P) {
  Probes.insert(*LM.Inst, FuncIdx, Ip, P);
  FuncInstance *F = LM.Inst->func(FuncIdx);
  if (F->Code) {
    // Recompile with the probe; running frames of the old code tier down
    // at their next checkpoint (stale-code check) if it has any, and all
    // new calls enter the instrumented code.
    Current = &LM;
    compileAndInstall(F);
    Current = nullptr;
  }
  if (F->TCode) {
    // Re-predecode so fusion is suppressed at the probed offset (a probe
    // planted mid-pair must fire exactly as on the switch interpreter).
    // Running frames pick the new IR up at their next observation point.
    predecodeAndInstall(LM, F);
  }
}

void Engine::reinstrument(LoadedModule &LM) {
  Current = &LM;
  for (FuncInstance &F : LM.Inst->Funcs) {
    if (F.Code)
      compileAndInstall(&F);
    if (F.TCode)
      predecodeAndInstall(LM, &F);
  }
  Current = nullptr;
}

void Engine::requestTierDown(LoadedModule &LM, uint32_t FuncIdx) {
  FuncInstance *F = LM.Inst->func(FuncIdx);
  F->DeoptRequested = true;
  F->UseJit = false;
}

void Engine::fireProbes(Thread &Th, FuncInstance *Func, uint32_t Ip) {
  Probes.fire(Th, Func, Ip);
}

void Engine::fireProbeTos(Thread &Th, FuncInstance *Func, uint32_t Ip,
                          Value Tos) {
  Probes.fireTos(Th, Func, Ip, Tos);
}

void Engine::onFuncHot(Thread &, FuncInstance *Func) {
  if (!Current || Func->Decl->Imported || Func->Code)
    return;
  compileAndInstall(Func);
}

bool Engine::onLoopBackedge(Thread &Th, FuncInstance *Func,
                            uint32_t TargetIp) {
  if (Cfg.Mode != ExecMode::Tiered || !Current || Func->Decl->Imported)
    return false;
  if (!Func->Code) {
    // Compile with OSR entries and deopt checkpoints (always through the
    // single-pass pipeline — it is the one that records OSR entries).
    CompilerOptions Opts = Cfg.Opts;
    Opts.EmitOsrEntries = true;
    Opts.EmitDeoptChecks = true;
    const MCode *C =
        compileShared(*Current, *Func->Decl, Opts, CompilerKind::SinglePass);
    if (!C)
      return false; // Verification rejected the OSR body: stay interpreted.
    Func->Code = C;
    Func->UseJit = true;
  }
  const MCode::OsrEntry *E = Func->Code->findOsrEntry(TargetIp);
  if (!E)
    return false;
  // Tier up in place: the interpreter already has every slot in memory,
  // which is exactly the compiled loop-header state.
  Frame &F = Th.top();
  assert(F.Func == Func && "OSR on wrong frame");
  F.Kind = FrameKind::Jit;
  F.Code = Func->Code;
  F.Pc = E->Pc;
  return true;
}

// --- GC root scanning (paper §IV.C) ---

std::vector<uint64_t> Engine::scanRoots() {
  std::vector<uint64_t> Roots;
  const uint64_t *S = T->VS.slots();
  const uint8_t *Tg = T->VS.tags();
  auto addTagged = [&](uint32_t Lo, uint32_t Hi) {
    assert(Tg && "tag scan without tag lane");
    for (uint32_t I = Lo; I < Hi; ++I)
      if (ValType(Tg[I]) == ValType::ExternRef && S[I] != 0)
        Roots.push_back(S[I]);
  };
  for (const Frame &F : T->Frames) {
    const FuncDecl *D = F.Func->Decl;
    uint32_t NL = D->numLocalSlots();
    if (F.Kind == FrameKind::Interp) {
      // The interpreter maintains exact tags for the whole frame.
      addTagged(F.Vfp, F.Sp);
      continue;
    }
    switch (Cfg.Opts.Tags) {
    case TagMode::Eager:
    case TagMode::EagerLocals:
    case TagMode::EagerOperands:
    case TagMode::OnDemand:
      addTagged(F.Vfp, F.Sp);
      break;
    case TagMode::Lazy:
      // Locals reconstructed from declared types by the stack walker;
      // operand tags from memory.
      for (uint32_t I = 0; I < NL; ++I)
        if (isRefType(D->LocalTypes[I]) && S[F.Vfp + I] != 0)
          Roots.push_back(S[F.Vfp + I]);
      addTagged(F.Vfp + NL, F.Sp);
      break;
    case TagMode::StackMap: {
      // Suspended at a call: the map was recorded at the call's pc.
      const StackMapEntry *E =
          F.Pc > 0 ? F.Code->findStackMap(F.Pc - 1) : nullptr;
      if (E) {
        for (uint32_t Slot : E->RefSlots)
          if (S[F.Vfp + Slot] != 0)
            Roots.push_back(S[F.Vfp + Slot]);
      }
      break;
    }
    case TagMode::None:
      break; // Non-GC configuration.
    }
  }
  return Roots;
}

size_t Engine::collectGarbage() { return Heap.collect(scanRoots()); }

// --- GC demo host functions ---

void wisp::installGcHostFuncs(Engine &E) {
  E.hosts().add("wisp", "alloc", FuncType{{ValType::I64}, {ValType::ExternRef}},
                [&E](Instance &, const Value *Args, Value *Rets) {
                  Rets[0] =
                      Value::makeExternRef(E.heap().allocate(Args[0].Bits));
                  return TrapReason::None;
                });
  E.hosts().add("wisp", "payload",
                FuncType{{ValType::ExternRef}, {ValType::I64}},
                [&E](Instance &, const Value *Args, Value *Rets) {
                  if (Args[0].Bits == 0)
                    return TrapReason::HostError;
                  Rets[0] =
                      Value::makeI64(int64_t(E.heap().object(Args[0].Bits).Payload));
                  return TrapReason::None;
                });
  E.hosts().add("wisp", "link",
                FuncType{{ValType::ExternRef, ValType::ExternRef}, {}},
                [&E](Instance &, const Value *Args, Value *) {
                  if (Args[0].Bits != 0 && Args[1].Bits != 0)
                    E.heap().object(Args[0].Bits).Refs.push_back(Args[1].Bits);
                  return TrapReason::None;
                });
  E.hosts().add("wisp", "collect", FuncType{{}, {ValType::I32}},
                [&E](Instance &, const Value *, Value *Rets) {
                  Rets[0] = Value::makeI32(int32_t(E.collectGarbage()));
                  return TrapReason::None;
                });
}
