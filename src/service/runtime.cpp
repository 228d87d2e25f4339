//===- service/runtime.cpp - the shared job runtime -------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "service/runtime.h"

#include "analysis/analysis.h"
#include "engine/registry.h"
#include "support/file.h"
#include "support/format.h"
#include "support/parse.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace wisp {

// --- Job lines -------------------------------------------------------------

std::vector<std::string> jobLineTokens(const std::string &Line) {
  size_t End = std::min(Line.find('#'), Line.size());
  std::vector<std::string> Toks;
  size_t I = 0;
  while (I < End) {
    while (I < End && isspace(uint8_t(Line[I])))
      ++I;
    size_t Start = I;
    while (I < End && !isspace(uint8_t(Line[I])))
      ++I;
    if (I > Start)
      Toks.push_back(Line.substr(Start, I - Start));
  }
  return Toks;
}

bool parseJobTokens(const std::vector<std::string> &Toks, uint32_t LineNo,
                    BatchJob *Job, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    *Err = strFormat("manifest line %u: %s", LineNo, Msg.c_str());
    return false;
  };
  Job->Line = LineNo;
  Job->Module = Toks[0];
  std::string Tier, Config;
  for (size_t I = 1; I < Toks.size(); ++I) {
    const std::string &T = Toks[I];
    auto Val = [&](const char *Key) -> const char * {
      size_t N = strlen(Key);
      return T.compare(0, N, Key) == 0 ? T.c_str() + N : nullptr;
    };
    uint64_t N = 0;
    if (const char *V = Val("tier=")) {
      Tier = V;
    } else if (const char *V = Val("config=")) {
      Config = V;
    } else if (const char *V = Val("invoke=")) {
      Job->Invoke = V;
    } else if (const char *V = Val("scale=")) {
      // The --scale bound: beyond it an int scale would wrap into a
      // different workload.
      if (!parseU64InRange(V, 1, 1u << 20, &N))
        return Fail(strFormat("bad scale '%s' (want 1..1048576)", V));
      Job->Scale = int(N);
    } else if (T == "m0") {
      Job->UseM0 = true;
    } else if (const char *V = Val("id=")) {
      if (!*V)
        return Fail("empty id=");
      Job->Id = V;
    } else if (const char *V = Val("fuel=")) {
      if (!parseU64InRange(V, 1, UINT64_MAX, &N))
        return Fail(strFormat("bad fuel '%s' (want a positive budget)", V));
      Job->Fuel = N;
    } else if (const char *V = Val("deadline-ms=")) {
      if (!parseU64InRange(V, 1, 3600000, &N))
        return Fail(strFormat("bad deadline-ms '%s' (want 1..3600000)", V));
      Job->DeadlineMs = uint32_t(N);
    } else if (const char *V = Val("args=")) {
      // Comma-separated values, parsed against the export signature at
      // run time (the signature is unknown until the module loads).
      // "args=" alone means zero arguments; an empty segment ("3,,7" or
      // a trailing comma) is a typo, not a value, and is rejected like
      // every other malformed key.
      for (const char *P = V; *V;) {
        size_t Len = strcspn(P, ",");
        if (!Len)
          return Fail("empty args= segment");
        Job->RawArgs.emplace_back(P, Len);
        if (!P[Len])
          break;
        P += Len + 1;
      }
    } else {
      return Fail(strFormat("unknown key '%s' (want tier= config= invoke= "
                            "scale= m0 args= id= fuel= deadline-ms=)",
                            T.c_str()));
    }
  }
  if (!Tier.empty() && !Config.empty())
    return Fail("tier= and config= are mutually exclusive");
  if (!Tier.empty()) {
    const char *Name = tierToConfigName(Tier);
    if (!Name)
      return Fail(strFormat("unknown tier '%s'", Tier.c_str()));
    Job->Config = Name;
  } else if (!Config.empty()) {
    bool Known = false;
    for (const EngineConfig &C : figure10Registry())
      Known = Known || C.Name == Config;
    if (!Known)
      return Fail(strFormat("unknown config '%s'", Config.c_str()));
    Job->Config = Config;
  } else {
    Job->Config = "wizard-spc";
  }
  return true;
}

const char *tierToConfigName(const std::string &Tier) {
  if (Tier == "int")
    return "wizard-int"; // In-place interpreter.
  if (Tier == "threaded")
    return "interp-threaded"; // Pre-decoded threaded-dispatch interpreter.
  if (Tier == "spc")
    return "wizard-spc"; // The paper's single-pass compiler.
  if (Tier == "copypatch")
    return "wasm-now"; // Copy-and-patch templates.
  if (Tier == "twopass")
    return "wazero"; // Listing-IR two-pass baseline.
  if (Tier == "opt")
    return "wasmtime"; // IR-based optimizing compiler.
  return nullptr;
}

// --- Values ----------------------------------------------------------------

bool parseValueText(const std::string &Text, ValType Ty, Value *Out) {
  if (Text.empty())
    return false;
  errno = 0;
  const char *S = Text.c_str();
  char *End = nullptr;
  switch (Ty) {
  case ValType::I32:
  case ValType::I64: {
    // Accept the full signed and unsigned range of the target width;
    // reject anything that would silently truncate. The unsigned branch
    // goes through the strict parser (support/parse.h): bare strtoull
    // would skip leading whitespace and wrap out-of-range values.
    long long V;
    if (Text[0] == '-') {
      V = strtoll(S, &End, 0);
      if (End == S || *End || errno == ERANGE)
        return false;
    } else {
      uint64_t U;
      if (!parseU64(S, &U, 0))
        return false;
      V = (long long)U;
    }
    if (Ty == ValType::I32) {
      if (Text[0] == '-' ? V < INT32_MIN : (unsigned long long)V > UINT32_MAX)
        return false;
      *Out = Value::makeI32(int32_t(uint32_t(V)));
    } else {
      *Out = Value::makeI64(V);
    }
    return true;
  }
  case ValType::F32:
  case ValType::F64: {
    double V = strtod(S, &End);
    if (End == S || *End)
      return false;
    *Out = Ty == ValType::F32 ? Value::makeF32(float(V)) : Value::makeF64(V);
    return true;
  }
  default:
    return false; // Reference arguments cannot be spelled in text.
  }
}

std::string valueText(Value V) {
  switch (V.Type) {
  case ValType::I32:
    return strFormat("%d:i32", V.asI32());
  case ValType::I64:
    return strFormat("%lld:i64", (long long)V.asI64());
  case ValType::F32:
    return strFormat("%g:f32", double(V.asF32()));
  case ValType::F64:
    return strFormat("%g:f64", V.asF64());
  default:
    return strFormat("0x%llx:%s", (unsigned long long)V.Bits,
                     valTypeName(V.Type));
  }
}

std::string resultsText(const std::vector<Value> &Results) {
  if (Results.empty())
    return "<void>";
  std::string Text;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (I)
      Text += ", ";
    Text += valueText(Results[I]);
  }
  return Text;
}

bool bindCall(LoadedModule &LM, const std::string &Invoke,
              const std::vector<std::string> &RawArgs,
              std::vector<Value> *Args, std::string *Err) {
  FuncInstance *F = LM.Inst->findExportedFunc(Invoke);
  if (!F) {
    *Err = strFormat("no exported function '%s'", Invoke.c_str());
    return false;
  }
  const std::vector<ValType> &Params = F->Type->Params;
  if (RawArgs.size() != Params.size()) {
    *Err = strFormat("'%s' takes %zu argument(s), got %zu", Invoke.c_str(),
                     Params.size(), RawArgs.size());
    return false;
  }
  Args->clear();
  for (size_t I = 0; I < Params.size(); ++I) {
    Value V;
    if (!parseValueText(RawArgs[I], Params[I], &V)) {
      *Err = strFormat("cannot parse argument %zu '%s' as %s", I + 1,
                       RawArgs[I].c_str(), valTypeName(Params[I]));
      return false;
    }
    Args->push_back(V);
  }
  return true;
}

// --- Modules ---------------------------------------------------------------

ModuleBytes ModuleResolver::resolve(const std::string &Spec, int Scale,
                                    bool UseM0, std::string *Err) {
  std::string Key = strFormat("%s\x1f%d\x1f%d", Spec.c_str(), Scale,
                              int(UseM0));
  std::lock_guard<std::mutex> L(Mu);
  auto It = Specs.find(Key);
  if (It != Specs.end())
    return It->second;
  std::vector<uint8_t> Bytes;
  if (!readFile(Spec, &Bytes)) {
    if (Spec == "nop")
      Bytes = nopModule();
    else if (const LineItem *Item = findItem(Spec, Scale, Err))
      Bytes = UseM0 ? Item->M0Bytes : Item->Bytes;
    else
      return nullptr;
  }
  auto Shared = std::make_shared<const std::vector<uint8_t>>(std::move(Bytes));
  Specs.emplace(std::move(Key), Shared);
  return Shared;
}

const LineItem *ModuleResolver::findItem(const std::string &Spec, int Scale,
                                         std::string *Err) {
  auto Suite = Suites.find(Scale);
  if (Suite == Suites.end())
    Suite = Suites.emplace(Scale, allSuites(Scale)).first;
  const LineItem *ByName = nullptr;
  for (const LineItem &I : Suite->second) {
    if (I.Suite + "/" + I.Name == Spec)
      return &I;
    if (I.Name != Spec)
      continue;
    if (ByName) {
      *Err = strFormat("item name '%s' is ambiguous (%s/%s and %s/%s); use "
                       "the suite/name form",
                       Spec.c_str(), ByName->Suite.c_str(),
                       ByName->Name.c_str(), I.Suite.c_str(), I.Name.c_str());
      return nullptr;
    }
    ByName = &I;
  }
  if (!ByName)
    *Err = strFormat("cannot resolve module '%s' (not a file, not a suite "
                     "item)",
                     Spec.c_str());
  return ByName;
}

bool resolveModuleSpec(const std::string &Spec, int Scale, bool UseM0,
                       std::vector<uint8_t> *Out, std::string *Err) {
  ModuleResolver One;
  std::string Detail;
  ModuleBytes Bytes = One.resolve(Spec, Scale, UseM0, &Detail);
  if (!Bytes) {
    if (Err)
      *Err = Detail;
    return false;
  }
  *Out = *Bytes;
  return true;
}

bool StaticPrecheck::reject(const BatchJob &Job,
                            const std::vector<uint8_t> &Bytes,
                            std::string *Reason) {
  std::string Key =
      strFormat("%s\x1f%d\x1f%d\x1f%s", Job.Module.c_str(), Job.Scale,
                int(Job.UseM0), Job.Invoke.c_str());
  auto It = Memo.find(Key);
  if (It == Memo.end()) {
    std::pair<bool, std::string> Decision{false, std::string()};
    WasmError WErr;
    std::unique_ptr<Module> M = decodeModule(Bytes, &WErr);
    if (M && validateModule(*M, &WErr)) {
      ModuleAnalysis A = analyzeModule(*M);
      Decision.first =
          staticBoundsReject(*M, A, Job.Invoke, MaxCallDepth, MaxMemoryPages,
                             MaxTableElems, &Decision.second);
    }
    It = Memo.emplace(std::move(Key), std::move(Decision)).first;
  }
  *Reason = It->second.second;
  return It->second.first;
}

// --- Workers ---------------------------------------------------------------

namespace {

/// Deterministic per-worker fault plan for one job.
struct FaultPlan {
  uint64_t TinyFuel = 0;  ///< Non-zero: override the job's fuel budget.
  int64_t MemFault = -1;  ///< >= 0: arm the allocation-failure countdown.
  int CancelAfterUs = -1; ///< >= 0: concurrent cancel() after this delay.
  bool any() const { return TinyFuel || MemFault >= 0 || CancelAfterUs >= 0; }
};

uint64_t lcgNext(uint64_t &X) {
  X = X * 6364136223846793005ULL + 1442695040888963407ULL;
  return X >> 16;
}

FaultPlan planFaults(uint64_t &Lcg) {
  FaultPlan P;
  if (!Lcg)
    return P;
  switch (lcgNext(Lcg) % 8) {
  case 0: // Tiny fuel budget: the job almost certainly exhausts.
    P.TinyFuel = 1 + (lcgNext(Lcg) % 16);
    break;
  case 1: // Allocation failure soon: load or grow must fail cleanly.
    P.MemFault = int64_t(lcgNext(Lcg) % 4);
    break;
  case 2: // Concurrent cancellation racing the invoke.
    P.CancelAfterUs = int(lcgNext(Lcg) % 2500);
    break;
  default:
    break;
  }
  return P;
}

/// The job runner: load, bind, invoke, recycle on \p E, perturbed by
/// \p Plan. The only path any job of either mode takes through an engine.
BatchJobResult runJob(Engine &E, const std::vector<uint8_t> &Bytes,
                      const BatchJob &Job, const FaultPlan &Plan) {
  BatchJobResult R;
  R.Index = Job.Index;
  // The countdown is process-global, so an armed fault may land on a
  // neighbouring worker's allocation instead of this job's — fine for a
  // stress harness: whoever draws it must fail cleanly and still report.
  if (Plan.MemFault >= 0)
    setMemoryFaultCountdown(Plan.MemFault);
  WasmError Err;
  std::unique_ptr<LoadedModule> LM = E.load(Bytes, &Err);
  std::vector<Value> Args;
  if (!LM)
    R.Error = strFormat("load failed: %s (offset %zu)", Err.Message.c_str(),
                        Err.Offset);
  else
    R.Stats = LM->Stats;
  if (LM && bindCall(*LM, Job.Invoke, Job.RawArgs, &Args, &R.Error)) {
    // The cancellation fault races a real cancel() against the invoke,
    // exactly like an operator killing a stuck job; joined before the
    // result is reported so reporting stays exactly-once.
    std::thread Canceller;
    if (Plan.CancelAfterUs >= 0)
      Canceller = std::thread([&E, Us = Plan.CancelAfterUs] {
        std::this_thread::sleep_for(std::chrono::microseconds(Us));
        E.cancel();
      });
    R.Trap = E.invoke(*LM, Job.Invoke, Args, &R.Results);
    if (Canceller.joinable())
      Canceller.join();
    if (R.Trap != TrapReason::None)
      R.Results.clear();
    R.ModeledCycles = E.thread().modeledCycles();
    R.Ok = true;
  }
  if (Plan.MemFault >= 0)
    setMemoryFaultCountdown(-1); // Bound the blast radius to ~this job.
  // Retire the instance into the worker's pool (recycle declines on its
  // own when the load was not imaged or the heap holds live objects); a
  // later same-module job on this worker re-images it.
  if (LM)
    E.recycle(std::move(LM));
  return R;
}

} // namespace

Worker::Worker(const RuntimeSettings &S, unsigned Index) : S(S) {
  if (S.FaultSeed)
    Lcg = S.FaultSeed ^ (0x9e3779b97f4a7c15ULL * (Index + 1));
}

BatchJobResult Worker::run(const BatchJob &Job,
                           const std::vector<uint8_t> &Bytes) {
  uint64_t Fuel = Job.Fuel ? Job.Fuel : S.DefaultFuel;
  uint32_t DeadlineMs = Job.DeadlineMs ? Job.DeadlineMs : S.DefaultDeadlineMs;
  FaultPlan Plan = planFaults(Lcg);
  Faults += Plan.any();
  if (Plan.TinyFuel)
    Fuel = Plan.TinyFuel;

  EngineConfig Cfg = configByName(Job.Config);
  // Explicit cache scoping: never fall back to the process-wide cache or
  // an engine-private pool, so results depend only on the session.
  Cfg.UseCompileCache = S.Cache != nullptr;
  Cfg.PoolInstances = S.PoolInstances;
  Cfg.DiskCacheDir = S.CacheDir;
  Cfg.UseDiskCache = S.DiskCache;
  Cfg.MaxCallDepth = S.MaxCallDepth;
  Cfg.MaxMemoryPages = S.MaxMemoryPages;
  Cfg.MaxTableElems = S.MaxTableElems;
  InstancePool *P = S.PoolInstances ? &Pool : nullptr;
  if (S.Policy == EnginePolicy::FreshPerJob) {
    Cfg.FuelBudget = Fuel;
    Cfg.DeadlineMs = DeadlineMs;
    Engine E(Cfg, S.Cache, P);
    installGcHostFuncs(E);
    SawDisk |= E.disk() != nullptr;
    return runJob(E, Bytes, Job, Plan);
  }
  std::unique_ptr<Engine> &Slot = Warm[Job.Config];
  if (!Slot) {
    // Governed from birth: check-site emission is a construction-time
    // decision (see Engine::setGovernance), and a warm engine must be
    // able to meter any later job.
    Cfg.Interruptible = true;
    Slot = std::make_unique<Engine>(Cfg, S.Cache, P);
    installGcHostFuncs(*Slot);
    SawDisk |= Slot->disk() != nullptr;
  }
  Slot->setGovernance(Fuel, DeadlineMs);
  return runJob(*Slot, Bytes, Job, Plan);
}

} // namespace wisp
