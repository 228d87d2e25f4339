//===- perfbench/src/layers.cpp - the traced per-layer sweep ---------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Traced runs only. Calls each src/ layer's public entry points directly
// on the set-up inputs, one span per call, and derives the per-layer
// metrics the phases cannot see from outside the engine: decode,
// validate, analysis, the four compilers, the verifier, pre-decode, the
// disk level's read and deserialize steps, warm loads on a shared cache,
// and instantiation. Each sweep's times are scaled by the speed measured
// just before it. Code-size counts are taken on every repetition and
// must agree exactly.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/analysis.h"
#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "cache/diskcache.h"
#include "opt/optcompiler.h"
#include "verify/verifier.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <map>

using namespace wisp;

namespace pb {

namespace {

/// Nanoseconds and work units a layer accumulated in one repetition.
struct Work {
  double Ns = 0;
  double Units = 0;
};

/// Times \p F inside a span named \p Name and adds it to \p W.
template <typename Fn>
auto timed(Run &R, const char *Name, uint64_t Req, Work &W, double Units,
           Fn &&F) {
  Tracer::Scope S(R.T, Name, Req);
  uint64_t T0 = nowNs();
  auto Result = F();
  W.Ns += double(nowNs() - T0) * R.Scale;
  W.Units += Units;
  return Result;
}

std::unique_ptr<Module> decodeValidated(const std::vector<uint8_t> &Bytes) {
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(Bytes, &Err);
  if (!M || !validateModule(*M, &Err))
    return nullptr;
  return M;
}

/// Code-size counts that must repeat exactly.
struct Counts {
  uint64_t SpcInsts = 0, OptInsts = 0, SpcTags = 0, IrBytes = 0;
  bool operator==(const Counts &O) const {
    return SpcInsts == O.SpcInsts && OptInsts == O.OptInsts &&
           SpcTags == O.SpcTags && IrBytes == O.IrBytes;
  }
};

/// Decode through pre-decode, per function, over every item.
void pipelineSweep(Run &R) {
  const CompilerOptions Spc = configFor("wizard-spc").Opts,
                        Cp = configFor("wasm-now").Opts,
                        Tp = configFor("wazero").Opts,
                        Opt = configFor("wasmtime").Opts;
  std::map<std::string, std::vector<double>> PerRep; // metric -> per rep
  std::vector<Counts> Seen;
  std::vector<uint32_t> Order(R.In.Items.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::map<std::string, Work> W;
    Counts C;
    shuffle(Order, R.Rand);
    for (uint32_t I : Order) {
      const Item &It = R.In.Items[I];
      Tracer::Scope S(R.T, "layers.item", I);
      WasmError Err;
      std::vector<uint8_t> Copy = It.Bytes;
      std::unique_ptr<Module> M =
          timed(R, "wasm.decode", I, W["wasm.decode"], double(It.Bytes.size()),
                [&] { return decodeModule(std::move(Copy), &Err); });
      if (!M) {
        R.L.fail("decode " + It.Name + ": " + Err.Message);
        continue;
      }
      bool Valid = timed(R, "wasm.validate", I, W["wasm.validate"],
                         double(M->codeBytes()),
                         [&] { return validateModule(*M, &Err); });
      if (!Valid) {
        R.L.fail("validate " + It.Name + ": " + Err.Message);
        continue;
      }
      bool Ok = true;
      for (const FuncDecl &F : M->Funcs) {
        if (F.Imported)
          continue;
        const double Bytes = double(F.BodyEnd - F.BodyStart);
        FuncFacts Facts = timed(R, "analysis.function", I,
                                W["analysis.function"], Bytes,
                                [&] { return analyzeFunction(*M, F); });
        auto SpcCode = timed(R, "spc.compile", I, W["spc.compile"], Bytes,
                             [&] { return compileFunction(*M, F, Spc); });
        timed(R, "copypatch.compile", I, W["copypatch.compile"], Bytes,
              [&] { return compileCopyPatch(*M, F, Cp); });
        timed(R, "twopass.compile", I, W["twopass.compile"], Bytes,
              [&] { return compileTwoPass(*M, F, Tp); });
        auto OptCode = timed(R, "opt.compile", I, W["opt.compile"], Bytes,
                             [&] { return compileOptimizing(*M, F, Opt); });
        C.SpcInsts += SpcCode->Stats.CodeInsts;
        C.SpcTags += SpcCode->Stats.TagStores;
        C.OptInsts += OptCode->Stats.CodeInsts;
        VerifyReport VR = timed(
            R, "verify.mcode", I, W["verify.mcode"],
            double(SpcCode->Insts.size()), [&] {
              return verifyMachineCode(
                  *M, F, *SpcCode,
                  VerifyScope::baseline().withFacts(Facts.StackBound));
            });
        auto TC = timed(R, "interp.predecode", I, W["interp.predecode"], Bytes,
                        [&] {
                          return predecodeFunction(*M, F, nullptr,
                                                   /*EnableFusion=*/true);
                        });
        C.IrBytes += TC->byteSize();
        VerifyReport IR =
            timed(R, "verify.ir", I, W["verify.ir"], double(TC->Units.size()),
                  [&] { return verifyThreadedCode(*M, F, *TC); });
        Ok = Ok && VR.ok() && IR.ok();
      }
      if (Ok)
        R.L.ok();
      else
        R.L.fail("verifier findings on " + It.Name);
      if (Rep == 0 && Ok)
        R.Rows.push_back({It.Name, "-", "code_bytes", double(M->codeBytes())});
    }
    Seen.push_back(C);
    for (const auto &[Name, Wk] : W)
      PerRep[Name].push_back(Wk.Ns / Wk.Units);
  }
  for (const Counts &C : Seen)
    if (!(C == Seen[0]))
      R.Fatal = "code-size counts differ between repetitions";

  struct Rate {
    const char *Layer, *Metric, *Unit;
  };
  const Rate Rates[] = {
      {"wasm.decode", "wasm.decode.ns_per_byte", "ns/B"},
      {"wasm.validate", "wasm.validate.ns_per_byte", "ns/B"},
      {"analysis.function", "analysis.function.ns_per_byte", "ns/B"},
      {"spc.compile", "spc.compile.ns_per_byte", "ns/B"},
      {"copypatch.compile", "copypatch.compile.ns_per_byte", "ns/B"},
      {"twopass.compile", "twopass.compile.ns_per_byte", "ns/B"},
      {"opt.compile", "opt.compile.ns_per_byte", "ns/B"},
      {"interp.predecode", "interp.predecode.ns_per_byte", "ns/B"},
      {"verify.mcode", "verify.mcode.ns_per_inst", "ns/inst"},
      {"verify.ir", "verify.ir.ns_per_unit", "ns/unit"}};
  for (const Rate &Rt : Rates)
    R.M.add(Rt.Metric, median(PerRep[Rt.Layer]), Rt.Unit);
  R.M.add("spc.code_insts", double(Seen[0].SpcInsts), "count");
  R.M.add("opt.code_insts", double(Seen[0].OptInsts), "count");
  R.M.add("spc.tag_stores", double(Seen[0].SpcTags), "count");
  R.M.add("interp.ir_bytes", double(Seen[0].IrBytes), "B");
}

/// The disk level's two steps on the artifacts set-up published for the
/// m0 modules, looked up under the keys the engine uses.
void diskSweep(Run &R) {
  std::unique_ptr<DiskCache> Disk = DiskCache::open(R.In.DiskDir);
  if (!Disk) {
    R.L.fail("cannot open the disk level at " + R.In.DiskDir);
    return;
  }
  std::vector<double> ReadUs, DeserUs;
  for (uint32_t I = 0; I < R.In.Items.size(); ++I) {
    const Item &It = R.In.Items[I];
    std::unique_ptr<Module> M = decodeValidated(It.M0Bytes);
    if (!M) {
      R.L.fail("decode " + It.Name + " m0");
      continue;
    }
    const uint64_t Ctx = moduleContextDigest(*M);
    for (size_t T = 1; T < sixTiers().size(); ++T) {
      const EngineConfig Cfg = configFor(sixTiers()[T]);
      const bool Ir = Cfg.Mode == ExecMode::Interp;
      for (const FuncDecl &F : M->Funcs) {
        if (F.Imported)
          continue;
        CacheKey K = Ir ? irCacheKey(Ctx, *M, F, !Cfg.Opts.EmitDeoptChecks,
                                     Cfg.Opts.EmitFuelChecks, false)
                        : codeCacheKey(Ctx, *M, F, Cfg.Compiler, Cfg.Opts,
                                       false);
        std::vector<uint8_t> Payload;
        bool Hit;
        {
          Tracer::Scope S(R.T, "cache.disk.read", I);
          uint64_t T0 = nowNs();
          Hit = Disk->load(K, Ir ? DiskArtifactKind::Ir : DiskArtifactKind::Code,
                           &Payload);
          ReadUs.push_back(double(nowNs() - T0) / 1e3 * R.Scale);
        }
        if (!Hit) {
          R.L.fail("disk artifact missing for " + It.Name + " " + Cfg.Name);
          continue;
        }
        Tracer::Scope S(R.T, "cache.disk.deserialize", I);
        uint64_t T0 = nowNs();
        std::shared_ptr<const void> Artifact =
            Ir ? std::shared_ptr<const void>(deserializeThreadedCode(Payload))
               : std::shared_ptr<const void>(deserializeMCode(Payload));
        DeserUs.push_back(double(nowNs() - T0) / 1e3 * R.Scale);
        if (Artifact)
          R.L.ok();
        else
          R.L.fail("disk artifact of " + It.Name + " " + Cfg.Name +
                   " does not deserialize");
      }
    }
  }
  R.M.add("cache.disk.read_us", median(ReadUs), "us");
  R.M.add("cache.disk.deserialize_us", median(DeserUs), "us");
}

/// Engine::load on a warm shared cache and pool (the serve regime): every
/// instance is recycled after its run, as serve workers do. On the last
/// repetition the spc instances are taken back out of the pool instead, to
/// time re-imaging an instance a run has dirtied and a fresh
/// instantiation from the same image.
void runtimeSweep(Run &R) {
  const char *const Configs[] = {"wizard-spc", "interp-threaded",
                                 "wizard-tiered", "wasmtime"};
  CompileCache Warm;
  InstancePool Pool;
  std::vector<double> LoadUs, InstUs, ReimageUs;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (uint32_t I = 0; I < R.In.Items.size(); ++I)
      for (const char *Name : Configs) {
        const Item &It = R.In.Items[I];
        Engine E(configFor(Name), &Warm, &Pool);
        WasmError Err;
        std::unique_ptr<LoadedModule> LM;
        uint64_t T0 = nowNs();
        {
          Tracer::Scope S(R.T, "engine.load", I);
          LM = E.load(It.Bytes, &Err);
        }
        double Us = double(nowNs() - T0) / 1e3 * R.Scale;
        if (!LM) {
          R.L.fail("warm load " + It.Name + " on " + Name + ": " + Err.Message);
          continue;
        }
        if (Rep > 0) // Rep 0 fills the cache and the pool.
          LoadUs.push_back(Us);
        std::vector<Value> Out;
        if (E.invoke(*LM, "run", {}, &Out) != TrapReason::None ||
            Out.size() != 1 || !sameValue(Out[0], It.Ref)) {
          R.L.fail("warm run " + It.Name + " on " + Name);
          continue;
        }
        R.L.ok();
        std::shared_ptr<const Module> M = LM->M;
        std::shared_ptr<const InstanceImage> Img = LM->Image;
        if (!E.recycle(std::move(LM)) || Rep < 2 ||
            std::string(Name) != "wizard-spc")
          continue;
        InstancePool::Entry Retired = Pool.take(M.get());
        if (!Retired.Inst)
          continue;
        {
          Tracer::Scope S(R.T, "runtime.reimage", I);
          uint64_t T1 = nowNs();
          Retired.Inst = reimageInstance(std::move(Retired.Inst), *M, *Img,
                                         E.hosts(), &E.heap(), &Err);
          ReimageUs.push_back(double(nowNs() - T1) / 1e3 * R.Scale);
        }
        std::unique_ptr<Instance> Fresh;
        {
          Tracer::Scope S(R.T, "runtime.instantiate", I);
          uint64_t T1 = nowNs();
          Fresh = instantiateFromImage(*M, *Img, E.hosts(), &E.heap(), &Err);
          InstUs.push_back(double(nowNs() - T1) / 1e3 * R.Scale);
        }
        if (!Retired.Inst || !Fresh)
          R.L.fail("instantiate " + It.Name + ": " + Err.Message);
      }
  R.M.add("cache.warm_load_us.p50", percentile(LoadUs, 0.5), "us");
  R.M.add("runtime.instantiate_us", median(InstUs), "us");
  R.M.add("runtime.reimage_us", median(ReimageUs), "us");
}

/// LoadStats is the engine's own account of the same layers: its decode
/// and validate times for a cold load sit beside the sweep's spans in the
/// item rows.
void crossCheck(Run &R) {
  EngineConfig Cfg = configFor("wizard-spc");
  Cfg.UseCompileCache = false;
  Cfg.PoolInstances = false;
  for (const Item &It : R.In.Items) {
    LoadOutcome O = loadAndRun(Cfg, It.Bytes, nullptr);
    if (!O.Ok) {
      R.L.fail("cross-check " + It.Name + ": " + O.Error);
      continue;
    }
    R.L.ok();
    R.Rows.push_back({It.Name, Cfg.Name, "loadstats.decode_ns",
                      double(O.Stats.DecodeNs)});
    R.Rows.push_back({It.Name, Cfg.Name, "loadstats.validate_ns",
                      double(O.Stats.ValidateNs)});
    R.Rows.push_back({It.Name, Cfg.Name, "loadstats.compile_ns",
                      double(O.Stats.CompileNs)});
    R.Rows.push_back({It.Name, Cfg.Name, "loadstats.code_insts",
                      double(O.Stats.CodeInsts)});
  }
}

} // namespace

void layerSweep(Run &R) {
  Tracer::Scope S(R.T, "layers", 0);
  measureSpeed(R);
  pipelineSweep(R);
  measureSpeed(R);
  diskSweep(R);
  measureSpeed(R);
  runtimeSweep(R);
  crossCheck(R);
}

} // namespace pb
