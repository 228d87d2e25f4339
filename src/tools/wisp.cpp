//===- tools/wisp.cpp - the wisp command-line driver -----------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Standalone entry point for the engine: loads a .wasm file or a named
// embedded suite item, selects an execution tier, optionally attaches
// monitors, invokes an export with arguments, and prints results, timing
// and engine statistics.
//
//   wisp --tier=spc ostrich/crc
//   wisp --tier=int --invoke=gcd module.wasm 3528 3780
//   wisp --monitor=branches --stats polybench/2mm
//   wisp --batch=manifest.txt --jobs=8
//
//===----------------------------------------------------------------------===//

#include "analysis/analysis.h"
#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "instr/monitors.h"
#include "interp/predecode.h"
#include "opt/optcompiler.h"
#include "service/batch.h"
#include "service/serve.h"
#include "spc/compiler.h"
#include "suites/suites.h"
#include "cache/diskcache.h"
#include "support/clock.h"
#include "support/file.h"
#include "support/format.h"
#include "support/json.h"
#include "support/parse.h"
#include "verify/verifier.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace wisp;

namespace {

const char *UsageText =
    "usage: wisp [options] <module> [args...]\n"
    "\n"
    "  <module>  path to a .wasm file, or an embedded suite item\n"
    "            (\"polybench/2mm\", \"libsodium/stream_chacha20\",\n"
    "            \"ostrich/crc\", ... see --list), or \"nop\" for the\n"
    "            104-byte no-op module\n"
    "  [args]    arguments for the invoked export, parsed against its\n"
    "            signature: i32/i64 as decimal or 0x-hex, f32/f64 as decimal\n"
    "\n"
    "options:\n"
    "  --tier=TIER      execution tier: int (in-place interpreter),\n"
    "                   threaded (pre-decoded threaded-dispatch\n"
    "                   interpreter), spc (single-pass compiler, default),\n"
    "                   copypatch, twopass, opt (optimizing)\n"
    "  --config=NAME    named engine configuration from the Fig. 3/10\n"
    "                   registries (mutually exclusive with --tier;\n"
    "                   see --list-configs)\n"
    "  --invoke=NAME    export to call (default \"run\")\n"
    "  --scale=N        suite workload scale factor (default 1)\n"
    "  --m0             use the early-return (setup-bound) suite variant\n"
    "  --monitor=M      attach a monitor; repeatable:\n"
    "                   branches | coverage | count:<opcode mnemonic>\n"
    "  --stats          print load and execution statistics\n"
    "  --time           print setup and main-phase wall times\n"
    "  --verify         statically verify every compiled artifact (machine\n"
    "                   code and threaded IR) against the wasm body before\n"
    "                   it runs; a rejected artifact fails the load. On by\n"
    "                   default in Debug builds and under wisp-fuzz\n"
    "  --audit          audit mode: instead of running, push the module\n"
    "                   through all four compiler pipelines and the\n"
    "                   threaded-IR pre-decoder and print a per-compiler\n"
    "                   verification report; exits nonzero on any finding.\n"
    "                   Mutually exclusive with execution flags\n"
    "  --analyze        static-analysis mode: instead of running, print the\n"
    "                   whole-module analysis report — per-function operand\n"
    "                   stack/frame bounds, call graph (recursion, worst-\n"
    "                   case call depth), loop freedom, memory-page bounds\n"
    "                   and lint findings (unreachable functions,\n"
    "                   guaranteed-trap sites, dead br_table cases). The\n"
    "                   report is tier-independent. Exits 1 when any lint\n"
    "                   finding fires, 0 on a clean module.\n"
    "                   WISP_ANALYZE_JSON=<path> additionally writes the\n"
    "                   machine-readable artifact\n"
    "  --json           with --analyze or --audit: print the machine-\n"
    "                   readable JSON report on stdout instead of the\n"
    "                   human-readable one\n"
    "  --no-compile-cache\n"
    "                   disable the content-addressed compile cache\n"
    "                   (repeated loads of identical modules/bodies under\n"
    "                   an identical configuration normally decode and\n"
    "                   compile once per process — or once per batch);\n"
    "                   use for cold-start measurements\n"
    "  --cache-dir=DIR  persistent artifact cache: compiled machine code\n"
    "                   and pre-decoded threaded IR are serialized under\n"
    "                   DIR (created if needed) and re-verified + reused by\n"
    "                   later wisp processes, skipping the compile pipeline\n"
    "                   on cross-process warm starts. Defaults to the\n"
    "                   WISP_CACHE_DIR environment variable; no directory\n"
    "                   means no disk level. Composes with --batch/--serve\n"
    "                   (all worker engines share the directory)\n"
    "  --no-disk-cache  ignore --cache-dir/WISP_CACHE_DIR: never read or\n"
    "                   write disk artifacts (cold-start measurement in a\n"
    "                   warm directory)\n"
    "  --no-instance-pool\n"
    "                   disable the instantiation fast path: no per-module\n"
    "                   instance image (pre-imaged memory, pre-resolved\n"
    "                   tables, pre-evaluated globals) and no recycling of\n"
    "                   retired instances through the per-engine/per-worker\n"
    "                   pools; every instantiation replays segments from\n"
    "                   scratch. Use for cold-start measurements\n"
    "  --fuel=N         meter execution: trap with FuelExhausted after N\n"
    "                   fuel units (frames pushed + loop-header arrivals);\n"
    "                   the trap site is identical on every tier\n"
    "  --deadline-ms=N  wall-clock deadline: a watchdog interrupts the run\n"
    "                   with DeadlineExceeded after N ms (1..3600000)\n"
    "  --max-call-depth=N / --max-pages=N / --max-table-elems=N\n"
    "                   resource limits: cap the wasm frame stack (trap:\n"
    "                   StackOverflow), linear-memory pages (grow returns\n"
    "                   -1; a module whose minimum exceeds the cap fails to\n"
    "                   load) and table elements (load-time cap)\n"
    "  --batch=FILE     batch mode: run every job of a manifest across a\n"
    "                   worker pool (one private engine per job) and print\n"
    "                   a deterministic per-job report. Manifest lines:\n"
    "                     <module> [tier=T|config=NAME] [invoke=NAME]\n"
    "                              [scale=N] [m0] [args=v1,v2,...]\n"
    "                              [id=NAME] [fuel=N] [deadline-ms=N]\n"
    "                   ('#' comments). Mutually exclusive with the\n"
    "                   single-module flags above; traps are reported as\n"
    "                   results, infrastructure failures exit nonzero\n"
    "  --serve          service mode: read job lines (batch-manifest\n"
    "                   syntax) from stdin, keep engines/caches/instance\n"
    "                   pools warm across jobs, answer each accepted job\n"
    "                   with exactly one 'done <id> ...' line. Admission is\n"
    "                   bounded ('reject <id> queue-full' under overload);\n"
    "                   EOF, a 'shutdown' line, or SIGTERM drains\n"
    "                   gracefully. --fuel/--deadline-ms set per-job\n"
    "                   defaults (manifest keys override), --max-* set\n"
    "                   session-wide caps; WISP_FAULT_SEED=N enables\n"
    "                   deterministic fault injection for stress testing.\n"
    "                   Jobs whose static bounds provably exceed the caps\n"
    "                   are shed at admission ('reject <id> static-bounds:\n"
    "                   <reason>')\n"
    "  --no-static-precheck\n"
    "                   disable the static admission precheck (requires\n"
    "                   --batch or --serve): provably-over-cap jobs are\n"
    "                   admitted and run to the governed trap instead of\n"
    "                   being rejected at admission\n"
    "  --queue-cap=K    serve admission-queue capacity (default 4x jobs)\n"
    "  --jobs=K         worker threads (default 1; requires --batch or\n"
    "                   --serve)\n"
    "  --list           list embedded suite items and exit\n"
    "  --list-configs   list named engine configurations and exit\n"
    "  --help           show this help\n";

int usageError(const char *Fmt, const char *Arg) {
  fprintf(stderr, Fmt, Arg);
  fprintf(stderr, "\n%s", UsageText);
  return 2;
}


/// Looks an opcode up by mnemonic (e.g. "i32.add", "call").
bool opcodeByName(const std::string &Name, Opcode *Out) {
  auto Scan = [&](uint16_t Lo, uint16_t Hi) {
    for (uint32_t V = Lo; V <= Hi; ++V) {
      Opcode Op = Opcode(V);
      if (opInfo(Op).Name && Name == opInfo(Op).Name) {
        *Out = Op;
        return true;
      }
    }
    return false;
  };
  return Scan(0x00, 0xFF) || Scan(0xFC00, 0xFCFF);
}

void printValue(Value V) { fputs(valueText(V).c_str(), stdout); }


int listSuites(int Scale) {
  for (const LineItem &I : allSuites(Scale))
    printf("%s/%-24s %s  %7zu bytes\n", I.Suite.c_str(), I.Name.c_str(),
           I.ResultType == ValType::F64 ? "f64" : "i64", I.Bytes.size());
  printf("%-34s i64  %7zu bytes\n", "nop", nopModule().size());
  return 0;
}

int listConfigs() {
  printf("--tier shorthands: int threaded spc copypatch twopass opt\n\n");
  for (const EngineConfig &C : figure10Registry()) {
    const char *Mode =
        C.Mode == ExecMode::Interp
            ? (C.ThreadedDispatch ? "interp*" : "interp")
            : C.Mode == ExecMode::Jit     ? "jit"
            : C.Mode == ExecMode::JitLazy ? "jit-lazy"
            : C.ThreadedDispatch          ? "tiered*"
                                          : "tiered";
    const char *Kind = C.Compiler == CompilerKind::SinglePass ? "single-pass"
                       : C.Compiler == CompilerKind::TwoPass  ? "two-pass"
                       : C.Compiler == CompilerKind::CopyPatch
                           ? "copy-patch"
                           : "optimizing";
    printf("%-22s %-9s %s\n", C.Name.c_str(), Mode, Kind);
  }
  printf("\n(* = threaded-dispatch interpreter: pre-decoded IR, "
         "computed-goto, superinstructions)\n");
  return 0;
}

struct CliOptions {
  std::string Tier = "spc";
  bool TierSet = false; ///< --tier was given explicitly.
  std::string Config;
  std::string Invoke = "run";
  bool InvokeSet = false;
  std::string Module;
  std::vector<std::string> Monitors;
  std::vector<std::string> RawArgs;
  uint64_t Scale = 0; ///< 0 = not given; main() then makes it 1.
  bool ScaleSet = false;
  bool UseM0 = false;
  bool Stats = false;
  bool Time = false;
  bool Verify = false;
  bool Audit = false;
  bool Analyze = false;
  bool Json = false; ///< --analyze/--audit machine-readable output.
  bool NoStaticPrecheck = false; ///< Disable batch/serve admission precheck.
  bool NoCompileCache = false;
  bool NoInstancePool = false;
  std::string CacheDir;     ///< --cache-dir (persistent artifact cache root).
  bool NoDiskCache = false; ///< --no-disk-cache.
  bool List = false;
  bool ListConfigs = false;
  std::string Batch; ///< --batch manifest path.
  bool Serve = false;
  /// Numeric flags; 0 means not given.
  uint64_t Jobs = 0;
  uint64_t QueueCap = 0;
  /// Governance (single-module flags; serve-mode defaults/caps).
  uint64_t Fuel = 0;
  uint64_t DeadlineMs = 0;
  uint64_t MaxCallDepth = 0;
  uint64_t MaxPages = 0;
  uint64_t MaxTableElems = 0;
};

/// A numeric flag and its inclusive range [1, Max].
struct NumericFlag {
  const char *Prefix;
  uint64_t Max;
  uint64_t CliOptions::*Field;
};

const NumericFlag NumericFlags[] = {
    {"--scale=", 1u << 20, &CliOptions::Scale},
    {"--jobs=", 1024, &CliOptions::Jobs},
    {"--queue-cap=", 1u << 20, &CliOptions::QueueCap},
    {"--fuel=", UINT64_MAX, &CliOptions::Fuel},
    {"--deadline-ms=", 3600000, &CliOptions::DeadlineMs},
    {"--max-call-depth=", 1000000, &CliOptions::MaxCallDepth},
    {"--max-pages=", 65536, &CliOptions::MaxPages},
    {"--max-table-elems=", UINT32_MAX, &CliOptions::MaxTableElems},
};

/// Analyze mode: instead of executing, run the whole-module static
/// analysis and print the report — human-readable by default, the JSON
/// machine artifact with --json. WISP_ANALYZE_JSON=<path> additionally
/// writes the JSON artifact to a file (the WISP_BENCH_JSON idiom). The
/// report is tier-independent: any --tier/--config value yields identical
/// output. Exits 1 when any lint finding fires, 0 on a clean module.
int runAnalyzeMode(const CliOptions &Opt) {
  std::vector<uint8_t> Bytes;
  std::string ResolveErr;
  if (!resolveModuleSpec(Opt.Module, int(Opt.Scale), Opt.UseM0, &Bytes,
                         &ResolveErr)) {
    fprintf(stderr, "wisp: %s (see --list)\n", ResolveErr.c_str());
    return 1;
  }
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(std::move(Bytes), &Err);
  if (!M) {
    fprintf(stderr, "wisp: decode failed: %s (offset %zu)\n",
            Err.Message.c_str(), Err.Offset);
    return 1;
  }
  if (!validateModule(*M, &Err)) {
    fprintf(stderr, "wisp: validation failed: %s (offset %zu)\n",
            Err.Message.c_str(), Err.Offset);
    return 1;
  }
  ModuleAnalysis A = analyzeModule(*M);
  std::string Json = analysisReportJson(*M, A, Opt.Module);
  if (Opt.Json)
    fputs(Json.c_str(), stdout);
  else
    fputs(analysisReportText(*M, A, Opt.Module).c_str(), stdout);
  if (const char *Path = getenv("WISP_ANALYZE_JSON")) {
    FILE *F = fopen(Path, "w");
    if (!F) {
      fprintf(stderr, "wisp: cannot write WISP_ANALYZE_JSON file '%s'\n",
              Path);
      return 1;
    }
    fputs(Json.c_str(), F);
    fclose(F);
  }
  return A.clean() ? 0 : 1;
}

/// Audit mode: instead of executing, push every function of the module
/// through all four compiler pipelines and the threaded-IR pre-decoder and
/// statically verify each artifact, printing a per-compiler report.
int runAuditMode(const CliOptions &Opt) {
  std::vector<uint8_t> Bytes;
  std::string ResolveErr;
  if (!resolveModuleSpec(Opt.Module, int(Opt.Scale), Opt.UseM0, &Bytes,
                         &ResolveErr)) {
    fprintf(stderr, "wisp: %s (see --list)\n", ResolveErr.c_str());
    return 1;
  }
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(std::move(Bytes), &Err);
  if (!M) {
    fprintf(stderr, "wisp: decode failed: %s (offset %zu)\n",
            Err.Message.c_str(), Err.Offset);
    return 1;
  }
  if (!validateModule(*M, &Err)) {
    fprintf(stderr, "wisp: validation failed: %s (offset %zu)\n",
            Err.Message.c_str(), Err.Offset);
    return 1;
  }
  size_t Bodies = 0;
  for (const FuncDecl &F : M->Funcs)
    if (!F.Imported)
      ++Bodies;

  // Each pipeline is audited under the options its production tier ships
  // with (the Fig. 3/10 registry shapes), so the artifacts checked here
  // are the artifacts `wisp --tier=...` actually runs.
  struct Pipeline {
    const char *Label;
    CompilerKind Kind;
  };
  static const Pipeline Pipelines[] = {
      {"single-pass", CompilerKind::SinglePass},
      {"two-pass", CompilerKind::TwoPass},
      {"copy-and-patch", CompilerKind::CopyPatch},
      {"optimizing", CompilerKind::Optimizing},
  };
  /// One audited pipeline, collected so the text and JSON emitters share
  /// the same pass over the compilers.
  struct PipelineAudit {
    const char *Label;
    size_t Artifacts;
    size_t Findings;
    std::string Text;
  };
  std::vector<PipelineAudit> Audits;
  size_t TotalFindings = 0;
  auto report = [&](const char *Label, size_t Artifacts, size_t NFind,
                    const std::string &Text) {
    Audits.push_back(PipelineAudit{Label, Artifacts, NFind, Text});
    TotalFindings += NFind;
  };
  for (const Pipeline &P : Pipelines) {
    const char *Tier = P.Kind == CompilerKind::SinglePass   ? "spc"
                       : P.Kind == CompilerKind::TwoPass    ? "twopass"
                       : P.Kind == CompilerKind::CopyPatch ? "copypatch"
                                                           : "opt";
    CompilerOptions Opts = configByName(tierToConfigName(Tier)).Opts;
    VerifyScope Scope = P.Kind == CompilerKind::Optimizing
                            ? VerifyScope::optimizing()
                            : VerifyScope::baseline();
    size_t NFind = 0, Artifacts = 0;
    std::string Text;
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      std::unique_ptr<MCode> Code;
      switch (P.Kind) {
      case CompilerKind::SinglePass:
        Code = compileFunction(*M, F, Opts);
        break;
      case CompilerKind::TwoPass:
        Code = compileTwoPass(*M, F, Opts);
        break;
      case CompilerKind::CopyPatch:
        Code = compileCopyPatch(*M, F, Opts);
        break;
      case CompilerKind::Optimizing:
        Code = compileOptimizing(*M, F, Opts);
        break;
      }
      if (!Code) {
        ++NFind;
        Text += "    func " + std::to_string(F.Index) + ": compile failed\n";
        continue;
      }
      ++Artifacts;
      VerifyReport R = verifyMachineCode(*M, F, *Code, Scope);
      if (!R.ok()) {
        NFind += R.Findings.size();
        Text += "    " + R.text();
      }
    }
    report(P.Label, Artifacts, NFind, Text);
  }
  // Threaded IR, with fusion enabled (the shape the threaded interpreter
  // tier pre-decodes at load time; no probes are attached in audit mode).
  {
    size_t NFind = 0, Artifacts = 0;
    std::string Text;
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      std::unique_ptr<ThreadedCode> TC =
          predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
      if (!TC) {
        ++NFind;
        Text += "    func " + std::to_string(F.Index) + ": predecode failed\n";
        continue;
      }
      ++Artifacts;
      VerifyReport R = verifyThreadedCode(*M, F, *TC);
      if (!R.ok()) {
        NFind += R.Findings.size();
        Text += "    " + R.text();
      }
    }
    report("threaded-ir", Artifacts, NFind, Text);
  }
  if (Opt.Json) {
    // Machine-readable report, same serializer as `wisp --analyze --json`.
    JsonWriter W;
    W.obj();
    W.str("module", Opt.Module);
    W.num("bodies", uint64_t(Bodies));
    W.keyArr("pipelines");
    for (const PipelineAudit &A : Audits) {
      W.obj();
      W.str("name", A.Label);
      W.num("artifacts", uint64_t(A.Artifacts));
      W.num("findings", uint64_t(A.Findings));
      if (!A.Text.empty())
        W.str("detail", A.Text);
      W.closeObj();
    }
    W.closeArr();
    W.num("total_findings", uint64_t(TotalFindings));
    W.boolean("ok", TotalFindings == 0);
    W.closeObj();
    printf("%s\n", W.str().c_str());
  } else {
    printf("audit: %s, %zu function bod%s\n", Opt.Module.c_str(), Bodies,
           Bodies == 1 ? "y" : "ies");
    for (const PipelineAudit &A : Audits) {
      printf("  %-15s %s: %zu artifact(s), %zu finding(s)\n", A.Label,
             A.Findings ? "FAIL" : "ok", A.Artifacts, A.Findings);
      if (!A.Text.empty())
        printf("%s", A.Text.c_str());
    }
    if (TotalFindings)
      printf("audit: FAILED with %zu finding(s)\n", TotalFindings);
    else
      printf("audit: all artifacts verified\n");
  }
  return TotalFindings ? 1 : 0;
}

/// Batch mode: parse + resolve the manifest, run it across the worker
/// pool, print the deterministic report.
int runBatchMode(const CliOptions &Opt) {
  std::vector<uint8_t> Bytes;
  if (!readFile(Opt.Batch, &Bytes)) {
    fprintf(stderr, "wisp: cannot read manifest '%s'\n", Opt.Batch.c_str());
    return 2;
  }
  std::string Text(Bytes.begin(), Bytes.end());
  std::vector<BatchJob> Jobs;
  std::string Err;
  if (!parseBatchManifest(Text, &Jobs, &Err) ||
      !resolveBatchModules(&Jobs, &Err)) {
    fprintf(stderr, "wisp: %s: %s\n", Opt.Batch.c_str(), Err.c_str());
    return 2;
  }
  BatchOptions BOpts;
  BOpts.Workers = unsigned(Opt.Jobs);
  BOpts.CompileCache = !Opt.NoCompileCache;
  BOpts.PoolInstances = !Opt.NoInstancePool;
  BOpts.StaticPrecheck = !Opt.NoStaticPrecheck;
  BOpts.CacheDir = Opt.CacheDir;
  BOpts.DiskCache = !Opt.NoDiskCache;
  BatchReport Report = runBatch(Jobs, BOpts);
  printBatchReport(stdout, Jobs, Report, Opt.Stats);
  // Traps are results (reported per job); only infrastructure failures
  // (load/export/argument errors) fail the batch.
  for (const BatchJobResult &R : Report.Results)
    if (!R.Ok)
      return 1;
  return 0;
}

/// Service mode: stdin job lines -> stdout protocol lines until EOF, a
/// `shutdown` line, or SIGTERM/SIGINT; then drain and exit 0. Per-job
/// errors are protocol lines, not process failures — a clean drain is a
/// clean exit.
int runServeMode(const CliOptions &Opt) {
  ServeOptions SOpts;
  SOpts.Workers = unsigned(Opt.Jobs);
  SOpts.QueueCap = size_t(Opt.QueueCap);
  SOpts.DefaultFuel = Opt.Fuel;
  SOpts.DefaultDeadlineMs = uint32_t(Opt.DeadlineMs);
  SOpts.MaxCallDepth = uint32_t(Opt.MaxCallDepth);
  SOpts.MaxMemoryPages = uint32_t(Opt.MaxPages);
  SOpts.MaxTableElems = uint32_t(Opt.MaxTableElems);
  SOpts.StaticPrecheck = !Opt.NoStaticPrecheck;
  SOpts.InstallSignalHandlers = true;
  SOpts.CacheDir = Opt.CacheDir;
  SOpts.DiskCache = !Opt.NoDiskCache;
  if (const char *S = getenv("WISP_FAULT_SEED")) {
    uint64_t Seed = 0;
    if (!parseU64(S, &Seed, 0)) {
      fprintf(stderr, "wisp: bad WISP_FAULT_SEED '%s' (want an integer)\n",
              S);
      return 2;
    }
    SOpts.FaultSeed = Seed;
  }
  runServe(stdin, stdout, SOpts);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    // Every numeric flag parses strictly into [1, Max] (support/parse.h).
    const NumericFlag *Num = nullptr;
    for (const NumericFlag &F : NumericFlags)
      if (Val(F.Prefix))
        Num = &F;
    if (Num) {
      const char *V = Val(Num->Prefix);
      if (!parseU64InRange(V, 1, Num->Max, &(Opt.*Num->Field)))
        return usageError(
            "%s", strFormat("bad %.*s value: %s (want 1..%llu)\n",
                            int(strlen(Num->Prefix) - 1), Num->Prefix, V,
                            (unsigned long long)Num->Max)
                      .c_str());
    } else if (const char *V = Val("--tier=")) {
      Opt.Tier = V;
      Opt.TierSet = true;
    } else if (const char *V = Val("--config=")) {
      Opt.Config = V;
    } else if (const char *V = Val("--invoke=")) {
      Opt.Invoke = V;
      Opt.InvokeSet = true;
    } else if (const char *V = Val("--batch=")) {
      Opt.Batch = V;
    } else if (A == "--serve") {
      Opt.Serve = true;
    } else if (const char *V = Val("--monitor=")) {
      Opt.Monitors.push_back(V);
    } else if (A == "--m0") {
      Opt.UseM0 = true;
    } else if (A == "--stats") {
      Opt.Stats = true;
    } else if (A == "--time") {
      Opt.Time = true;
    } else if (A == "--verify") {
      Opt.Verify = true;
    } else if (A == "--audit") {
      Opt.Audit = true;
    } else if (A == "--analyze") {
      Opt.Analyze = true;
    } else if (A == "--json") {
      Opt.Json = true;
    } else if (A == "--no-static-precheck") {
      Opt.NoStaticPrecheck = true;
    } else if (A == "--no-compile-cache") {
      Opt.NoCompileCache = true;
    } else if (const char *V = Val("--cache-dir=")) {
      if (!*V)
        return usageError("bad --cache-dir value: %s (want a directory)\n",
                          V);
      Opt.CacheDir = V;
    } else if (A == "--no-disk-cache") {
      Opt.NoDiskCache = true;
    } else if (A == "--no-instance-pool") {
      Opt.NoInstancePool = true;
    } else if (A == "--list") {
      Opt.List = true; // Handled after parsing so --scale is order-free.
    } else if (A == "--list-configs") {
      Opt.ListConfigs = true;
    } else if (A == "--help" || A == "-h") {
      printf("%s", UsageText);
      return 0;
    } else if (A.size() > 1 && A[0] == '-' && !isdigit(A[1]) &&
               Opt.Module.empty()) {
      return usageError("unknown option: %s\n", A.c_str());
    } else if (Opt.Module.empty()) {
      Opt.Module = A;
    } else {
      Opt.RawArgs.push_back(A);
    }
  }
  Opt.ScaleSet = Opt.Scale != 0;
  Opt.Scale = std::max<uint64_t>(Opt.Scale, 1);
  if (Opt.List)
    return listSuites(int(Opt.Scale));
  if (Opt.ListConfigs)
    return listConfigs();

  // Batch mode: per-job tier/config/invoke/scale live in the manifest, so
  // every single-module flag conflicts with --batch.
  if (!Opt.Batch.empty()) {
    const char *Conflict = Opt.TierSet         ? "--tier"
                           : !Opt.Config.empty() ? "--config"
                           : Opt.InvokeSet       ? "--invoke"
                           : Opt.ScaleSet        ? "--scale"
                           : Opt.UseM0           ? "--m0"
                           : !Opt.Monitors.empty() ? "--monitor"
                           : Opt.Time              ? "--time"
                           : Opt.Verify            ? "--verify"
                           : Opt.Audit             ? "--audit"
                           : Opt.Analyze           ? "--analyze"
                           : Opt.Json              ? "--json"
                           : Opt.Serve             ? "--serve"
                           : Opt.Fuel              ? "--fuel"
                           : Opt.DeadlineMs        ? "--deadline-ms"
                           : Opt.MaxCallDepth      ? "--max-call-depth"
                           : Opt.MaxPages          ? "--max-pages"
                           : Opt.MaxTableElems     ? "--max-table-elems"
                           : Opt.QueueCap          ? "--queue-cap"
                           : !Opt.Module.empty()   ? "<module>"
                                                   : nullptr;
    if (Conflict)
      return usageError("--batch is mutually exclusive with single-module "
                        "flags (got %s; put per-job settings in the "
                        "manifest)\n",
                        Conflict);
    return runBatchMode(Opt);
  }
  // Serve mode: per-job settings arrive on the job lines; governance
  // flags become session defaults/caps, everything single-module
  // conflicts.
  if (Opt.Serve) {
    const char *Conflict = Opt.TierSet         ? "--tier"
                           : !Opt.Config.empty() ? "--config"
                           : Opt.InvokeSet       ? "--invoke"
                           : Opt.ScaleSet        ? "--scale"
                           : Opt.UseM0           ? "--m0"
                           : !Opt.Monitors.empty() ? "--monitor"
                           : Opt.Time              ? "--time"
                           : Opt.Verify            ? "--verify"
                           : Opt.Audit             ? "--audit"
                           : Opt.Analyze           ? "--analyze"
                           : Opt.Json              ? "--json"
                           : Opt.Stats             ? "--stats"
                           : !Opt.Module.empty()   ? "<module>"
                                                   : nullptr;
    if (Conflict)
      return usageError("--serve is mutually exclusive with single-module "
                        "flags (got %s; put per-job settings on the job "
                        "lines)\n",
                        Conflict);
    return runServeMode(Opt);
  }
  if (Opt.Jobs)
    return usageError("%s", "--jobs requires --batch or --serve\n");
  if (Opt.QueueCap)
    return usageError("%s", "--queue-cap requires --serve\n");
  if (Opt.NoStaticPrecheck)
    return usageError("%s", "--no-static-precheck requires --batch or "
                            "--serve\n");
  if (Opt.Module.empty())
    return usageError("%s", "no module given\n");

  // Analyze mode replaces execution entirely: the report is derived from
  // the validated module alone, so execution flags conflict. --tier and
  // --config stay accepted (and ignored) because the analysis is
  // tier-independent by construction — identical output for every tier.
  if (Opt.Analyze) {
    const char *Conflict = Opt.Audit               ? "--audit"
                           : Opt.InvokeSet          ? "--invoke"
                           : !Opt.Monitors.empty()  ? "--monitor"
                           : Opt.Verify             ? "--verify"
                           : Opt.Time               ? "--time"
                           : Opt.Stats              ? "--stats"
                           : Opt.Fuel               ? "--fuel"
                           : Opt.DeadlineMs         ? "--deadline-ms"
                           : Opt.MaxCallDepth       ? "--max-call-depth"
                           : Opt.MaxPages           ? "--max-pages"
                           : Opt.MaxTableElems      ? "--max-table-elems"
                                                    : nullptr;
    if (Conflict)
      return usageError("--analyze is mutually exclusive with execution "
                        "flags (got %s; analysis never runs the module)\n",
                        Conflict);
    return runAnalyzeMode(Opt);
  }
  if (Opt.Json && !Opt.Audit)
    return usageError("%s", "--json requires --analyze or --audit\n");

  // Audit mode replaces execution: it runs all pipelines itself, so every
  // tier/execution flag conflicts with it (verification is implied).
  if (Opt.Audit) {
    const char *Conflict = Opt.TierSet            ? "--tier"
                           : !Opt.Config.empty()    ? "--config"
                           : Opt.InvokeSet          ? "--invoke"
                           : !Opt.Monitors.empty()  ? "--monitor"
                           : Opt.Verify             ? "--verify"
                           : Opt.Time               ? "--time"
                           : Opt.Fuel               ? "--fuel"
                           : Opt.DeadlineMs         ? "--deadline-ms"
                                                    : nullptr;
    if (Conflict)
      return usageError("--audit is mutually exclusive with execution "
                        "flags (got %s; audit runs every pipeline itself)\n",
                        Conflict);
    return runAuditMode(Opt);
  }

  // Resolve the engine configuration.
  if (Opt.TierSet && !Opt.Config.empty())
    return usageError("--tier and --config are mutually exclusive "
                      "(both given: --tier=%s)\n",
                      Opt.Tier.c_str());
  EngineConfig Cfg;
  if (!Opt.Config.empty()) {
    // configByName falls back to a default config on a miss; validate the
    // name so a typo'd --config errors instead of silently running it.
    bool Known = false;
    for (const EngineConfig &C : figure10Registry())
      Known = Known || C.Name == Opt.Config;
    if (!Known)
      return usageError("unknown config: %s (see --list-configs)\n",
                        Opt.Config.c_str());
    Cfg = configByName(Opt.Config);
  } else {
    const char *Name = tierToConfigName(Opt.Tier);
    if (!Name)
      return usageError("unknown tier: %s (want int|threaded|spc|copypatch|"
                        "twopass|opt)\n",
                        Opt.Tier.c_str());
    Cfg = configByName(Name);
  }
  Cfg.UseCompileCache = !Opt.NoCompileCache;
  Cfg.PoolInstances = !Opt.NoInstancePool;
  Cfg.DiskCacheDir = Opt.CacheDir;
  Cfg.UseDiskCache = !Opt.NoDiskCache;
  if (Opt.Verify)
    Cfg.VerifyArtifacts = true;
  // Execution governance: metering/deadline/caps for this one invocation
  // (the engine bakes fuel check sites in when any of these is set).
  Cfg.FuelBudget = Opt.Fuel;
  Cfg.DeadlineMs = uint32_t(Opt.DeadlineMs);
  Cfg.MaxCallDepth = uint32_t(Opt.MaxCallDepth);
  Cfg.MaxMemoryPages = uint32_t(Opt.MaxPages);
  Cfg.MaxTableElems = uint32_t(Opt.MaxTableElems);

  // Resolve the module bytes.
  std::vector<uint8_t> Bytes;
  std::string ResolveErr;
  if (!resolveModuleSpec(Opt.Module, int(Opt.Scale), Opt.UseM0, &Bytes,
                         &ResolveErr)) {
    fprintf(stderr, "wisp: %s (see --list)\n", ResolveErr.c_str());
    return 1;
  }

  // Load: decode, validate, instantiate, compile per mode.
  Engine E(Cfg);
  installGcHostFuncs(E);
  WasmError Err;
  double T0 = nowMs();
  std::unique_ptr<LoadedModule> LM = E.load(std::move(Bytes), &Err);
  double T1 = nowMs();
  if (!LM) {
    fprintf(stderr, "wisp: load failed: %s (offset %zu)\n",
            Err.Message.c_str(), Err.Offset);
    return 1;
  }

  // Attach monitors, then recompile so JIT tiers observe the probe sites.
  BranchMonitor Branches;
  CoverageMonitor Coverage;
  std::vector<std::unique_ptr<OpcodeCountMonitor>> Counters;
  std::vector<std::string> CounterNames;
  for (const std::string &M : Opt.Monitors) {
    if (M == "branches") {
      Branches.attach(*LM->Inst, E.probes());
    } else if (M == "coverage") {
      Coverage.attach(*LM->Inst, E.probes());
    } else if (M.compare(0, 6, "count:") == 0) {
      std::string OpText = M.substr(6);
      Opcode Op;
      if (!opcodeByName(OpText, &Op)) {
        fprintf(stderr, "wisp: unknown opcode mnemonic '%s'\n",
                OpText.c_str());
        return 1;
      }
      Counters.push_back(std::make_unique<OpcodeCountMonitor>());
      Counters.back()->attach(*LM->Inst, E.probes(), Op);
      CounterNames.push_back(OpText);
    } else {
      return usageError("unknown monitor: %s (want branches|coverage|"
                        "count:<opcode>)\n",
                        M.c_str());
    }
  }
  if (!Opt.Monitors.empty())
    E.reinstrument(*LM);

  // Bind the export and parse the call arguments against its signature.
  std::vector<Value> Args;
  std::string BindErr;
  if (!bindCall(*LM, Opt.Invoke, Opt.RawArgs, &Args, &BindErr)) {
    fprintf(stderr, "wisp: %s\n", BindErr.c_str());
    return 1;
  }

  // Invoke.
  std::vector<Value> Results;
  double T2 = nowMs();
  TrapReason Trap = E.invoke(*LM, Opt.Invoke, Args, &Results);
  double T3 = nowMs();
  if (Trap != TrapReason::None) {
    fprintf(stderr, "wisp: trap: %s\n", trapReasonName(Trap));
    return 3;
  }

  printf("%s(", Opt.Invoke.c_str());
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      printf(", ");
    printValue(Args[I]);
  }
  printf(") = ");
  if (Results.empty())
    printf("<void>");
  for (size_t I = 0; I < Results.size(); ++I) {
    if (I)
      printf(", ");
    printValue(Results[I]);
  }
  printf("\n");

  if (Opt.Time) {
    printf("time: setup %.3f ms (load %.3f), main %.3f ms\n",
           T1 - T0, double(LM->Stats.TotalSetupNs) / 1e6, T3 - T2);
  }
  if (Opt.Stats) {
    const LoadStats &S = LM->Stats;
    printf("stats: config=%s module=%zu bytes, code=%zu bytes\n",
           Cfg.Name.c_str(), S.ModuleBytes, S.CodeBytes);
    printf("  decode %.1f us, validate %.1f us, compile %.1f us, "
           "instantiate %.1f us\n",
           double(S.DecodeNs) / 1e3, double(S.ValidateNs) / 1e3,
           double(S.CompileNs) / 1e3, double(S.InstantiateNs) / 1e3);
    printf("  emitted %llu machine insts, %llu tag stores, %llu stackmap "
           "bytes\n",
           (unsigned long long)S.CodeInsts, (unsigned long long)S.TagStores,
           (unsigned long long)S.StackMapBytes);
    if (S.PredecodeNs || S.IrBytes)
      printf("  predecode %.1f us, %zu threaded-IR bytes\n",
             double(S.PredecodeNs) / 1e3, S.IrBytes);
    if (Opt.NoCompileCache)
      printf("  compile cache: disabled\n");
    else
      printf("  compile cache: %llu hits, %llu misses, saved %.1f us\n",
             (unsigned long long)S.CacheHits,
             (unsigned long long)S.CacheMisses,
             double(S.CacheSavedNs) / 1e3);
    if (const DiskCache *D = E.disk())
      printf("  disk cache: %llu hits, %llu misses (%s)\n",
             (unsigned long long)S.DiskHits,
             (unsigned long long)S.DiskMisses, D->dir().c_str());
    if (Opt.NoInstancePool)
      printf("  instance pool: disabled\n");
    else
      printf("  instance pool: %llu hits, %llu misses\n",
             (unsigned long long)S.PoolHits,
             (unsigned long long)S.PoolMisses);
    Thread &T = E.thread();
    printf("  executed %llu interp steps, %llu threaded steps, %llu jit "
           "cycles, %llu modeled cycles\n",
           (unsigned long long)T.InterpSteps,
           (unsigned long long)T.ThreadedSteps,
           (unsigned long long)T.JitCycles,
           (unsigned long long)T.modeledCycles());
  }

  // Monitor reports.
  for (const std::string &M : Opt.Monitors) {
    if (M == "branches")
      printf("branches: %llu taken, %llu not taken over %zu sites\n",
             (unsigned long long)Branches.totalTaken(),
             (unsigned long long)Branches.totalNotTaken(),
             Branches.sites().size());
    else if (M == "coverage")
      printf("coverage: %u of %zu functions executed\n",
             Coverage.functionsExecuted(), LM->Inst->Funcs.size());
  }
  for (size_t I = 0; I < Counters.size(); ++I)
    printf("count %s: %llu\n", CounterNames[I].c_str(),
           (unsigned long long)Counters[I]->total());
  return 0;
}
