//===- perfbench/src/main.cpp - the SQ-space benchmark ---------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload startup|exec --seed N --seconds S --trace 0|1
//           --work-dir DIR
//
// Sets up the inputs (suite modules, reference results from the in-place
// interpreter, a populated disk-cache directory) five times and reports
// the median as setup_s, then runs the startup and exec phases, plus the
// serve phase and the layer sweep in a traced run. The workload names the
// phase that gets most of the measuring time; the other runs on a smaller
// share, so every run reports the whole metric ledger. Host times are
// scaled to the reference machine's speed, measured before every unit
// (bench.h, measureSpeed). The last stdout line is the JSON result. See
// perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "engine/engine.h"
#include "engine/registry.h"
#include "suites/suites.h"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

using namespace wisp;
namespace fs = std::filesystem;

namespace pb {

std::string Metrics::json() const {
  std::string S = "{";
  for (size_t I = 0; I < Rows.size(); ++I) {
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.17g", Rows[I].Value);
    S += (I ? ", \"" : "\"") + Rows[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Rows[I].Unit + "\"}";
  }
  return S + "}";
}

bool Metrics::finite() const {
  for (const Row &R : Rows)
    if (!std::isfinite(R.Value))
      return false;
  return true;
}

std::pair<uint64_t, uint64_t> Tracer::totals(const char *Name) const {
  std::vector<uint64_t> Child(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Child[size_t(S.Parent)] += S.End - S.Start;
  uint64_t Total = 0, Self = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (strcmp(Spans[I].Name, Name) == 0) {
      uint64_t D = Spans[I].End - Spans[I].Start;
      Total += D;
      Self += D > Child[I] ? D - Child[I] : 0;
    }
  return {Total, Self};
}

bool Tracer::write(const std::string &Path) const {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans[0].Start;
  std::map<std::string, int> Names;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(F,
            "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRIu64
            ", \"end_ns\": %" PRIu64 ", \"parent\": %d, \"req\": %" PRIu64
            "}\n",
            I, S.Name, S.Start - Base, S.End - Base, S.Parent, S.Req);
    ++Names[S.Name];
  }
  for (const auto &[Name, Count] : Names) {
    auto [Total, Self] = totals(Name.c_str());
    fprintf(F,
            "{\"summary\": \"%s\", \"count\": %d, \"total_ns\": %" PRIu64
            ", \"self_ns\": %" PRIu64 "}\n",
            Name.c_str(), Count, Total, Self);
  }
  return fclose(F) == 0;
}

EngineConfig configFor(const std::string &Name) {
  EngineConfig Cfg = configByName(Name);
  // Artifact verification is a debug-build default; a measurement build
  // must time compilation, not translation validation, whatever its type.
  Cfg.VerifyArtifacts = false;
  Cfg.UseDiskCache = false;
  return Cfg;
}

LoadOutcome loadAndRun(const EngineConfig &Cfg,
                       const std::vector<uint8_t> &Bytes,
                       CompileCache *Cache) {
  LoadOutcome O;
  Engine E(Cfg, Cache);
  WasmError Err;
  std::unique_ptr<LoadedModule> LM = E.load(Bytes, &Err);
  if (!LM) {
    O.Error = "load failed: " + Err.Message;
    return O;
  }
  std::vector<Value> Out;
  TrapReason Trap = E.invoke(*LM, "run", {}, &Out);
  if (Trap != TrapReason::None) {
    O.Error = std::string("trap: ") + trapReasonName(Trap);
    return O;
  }
  if (Out.size() != 1) {
    O.Error = "run returned " + std::to_string(Out.size()) + " values";
    return O;
  }
  O.Ok = true;
  O.Result = Out[0];
  O.Stats = LM->Stats;
  return O;
}

} // namespace pb

using namespace pb;

namespace {

[[noreturn]] void usage(const char *Why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload startup|exec "
          "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
          Why);
  exit(2);
}

bool writeRows(const std::vector<ItemRow> &Rows, const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const ItemRow &Row : Rows)
    fprintf(F,
            "{\"item\": \"%s\", \"config\": \"%s\", \"metric\": \"%s\", "
            "\"value\": %.17g}\n",
            Row.Item.c_str(), Row.Config.c_str(), Row.Metric.c_str(),
            Row.Value);
  return fclose(F) == 0;
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            std::streamsize(Bytes.size()));
  return bool(Out);
}

/// One set-up: generate the suites, compute every reference result on the
/// in-place interpreter and check it against the threaded interpreter,
/// write the serve modules, and populate a fresh disk-cache directory with
/// the m0 artifacts of the five compiling tiers. Returns false on a
/// failure that leaves nothing to measure.
bool setUp(Inputs &In, Ledger &L, const std::string &WorkDir) {
  In = Inputs();
  std::error_code EC;
  fs::create_directories(WorkDir + "/mods", EC);
  if (EC) {
    fprintf(stderr, "perfbench: cannot create %s/mods\n", WorkDir.c_str());
    return false;
  }
  EngineConfig Int = configFor("wizard-int");
  Int.UseCompileCache = false;
  EngineConfig Thr = configFor("interp-threaded");
  Thr.UseCompileCache = false;
  std::vector<LineItem> Suite = allSuites(1);
  for (size_t I = 0; I < Suite.size(); ++I) {
    Item It;
    It.Name = Suite[I].Suite + "/" + Suite[I].Name;
    It.Bytes = std::move(Suite[I].Bytes);
    It.M0Bytes = std::move(Suite[I].M0Bytes);
    It.Path = WorkDir + "/mods/" + std::to_string(I) + ".wasm";
    if (!writeFile(It.Path, It.Bytes)) {
      fprintf(stderr, "perfbench: cannot write %s\n", It.Path.c_str());
      return false;
    }
    for (bool M0 : {false, true}) {
      const std::vector<uint8_t> &B = M0 ? It.M0Bytes : It.Bytes;
      LoadOutcome Ref = loadAndRun(Int, B, nullptr);
      LoadOutcome Chk = loadAndRun(Thr, B, nullptr);
      if (!Ref.Ok || !Chk.Ok || !sameValue(Ref.Result, Chk.Result)) {
        L.fail("reference " + It.Name + (M0 ? " m0" : "") + ": " +
               (!Ref.Ok ? Ref.Error
                        : !Chk.Ok ? Chk.Error : "int/threaded disagree"));
        return false;
      }
      L.ok();
      (M0 ? It.RefM0 : It.Ref) = Ref.Result;
    }
    In.Items.push_back(std::move(It));
  }

  In.DiskDir = WorkDir + "/disk";
  fs::remove_all(In.DiskDir, EC);
  fs::create_directories(In.DiskDir, EC);
  for (const Item &It : In.Items)
    for (size_t T = 1; T < sixTiers().size(); ++T) {
      EngineConfig Cfg = configFor(sixTiers()[T]);
      Cfg.UseCompileCache = true;
      Cfg.UseDiskCache = true;
      Cfg.DiskCacheDir = In.DiskDir;
      Cfg.PoolInstances = false;
      CompileCache Fresh;
      LoadOutcome O = loadAndRun(Cfg, It.M0Bytes, &Fresh);
      if (!O.Ok || !sameValue(O.Result, It.RefM0) || O.Stats.DiskMisses == 0) {
        L.fail("disk populate " + It.Name + " " + Cfg.Name);
        return false;
      }
      L.ok();
    }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    errno = 0;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--work-dir") {
      WorkDir = V;
    } else if (A == "--seed") {
      Seed = strtoull(V, &End, 10);
      if (errno || !End || *End)
        usage("bad --seed");
    } else if (A == "--seconds") {
      Seconds = strtod(V, &End);
      if (errno || !End || *End || !(Seconds > 0) || Seconds > 600)
        usage("bad --seconds");
    } else if (A == "--trace") {
      Trace = std::string(V) == "1" ? 1 : std::string(V) == "0" ? 0 : -2;
      if (Trace < 0)
        usage("bad --trace");
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (Workload != "startup" && Workload != "exec")
    usage("--workload must be startup or exec");
  if (WorkDir.empty() || Seconds <= 0 || Trace < 0)
    usage("--seconds, --trace and --work-dir are required");

  Run R(Seed);
  if (!R.Ref.init(WorkDir + "/ref")) {
    fprintf(stderr, "perfbench: cannot write %s/ref\n", WorkDir.c_str());
    return 1;
  }
  // Each set-up is scaled by the mean of the speed scales before and
  // after it, each over a full window of reference jobs.
  std::vector<double> SetupS;
  for (int Round = 0; Round < 5; ++Round) {
    for (int I = 0; I < SpeedWindow; ++I)
      measureSpeed(R);
    const double Before = R.Scale;
    uint64_t T0 = nowNs();
    if (!setUp(R.In, R.L, WorkDir)) {
      for (const std::string &Why : R.L.Reasons)
        fprintf(stderr, "perfbench: %s\n", Why.c_str());
      return 1;
    }
    const double S = double(nowNs() - T0) / 1e9;
    for (int I = 0; I < SpeedWindow; ++I)
      measureSpeed(R);
    SetupS.push_back(S * (Before + R.Scale) / 2);
  }
  fprintf(stderr, "setup: %.3f s median of %zu (at reference speed)\n",
          median(SetupS), SetupS.size());

  // The named workload's phase gets 70% of the measuring time, the other
  // 30%; a traced run adds the serve phase, whose figures are per-layer
  // metrics. Units are interleaved across the whole run: the next unit
  // always goes to the phase furthest below its share, and past the
  // deadline only phases still short of their minimum sample keep running.
  R.T.On = Trace == 1;
  std::vector<std::unique_ptr<Phase>> Phases;
  std::vector<double> Share;
  Phases.push_back(startupPhase(R, Trace == 1 && Workload == "startup"));
  Share.push_back(Workload == "startup" ? 0.7 : 0.3);
  Phases.push_back(execPhase(R, Trace == 1 && Workload == "exec"));
  Share.push_back(Workload == "exec" ? 0.7 : 0.3);
  if (Trace == 1) {
    Phases.push_back(servePhase(R));
    Share.push_back(0.3);
  }
  std::vector<double> SpentS(Phases.size(), 0);
  const uint64_t Deadline = nowNs() + uint64_t(Seconds * 1e9);
  while (R.Fatal.empty()) {
    const bool Late = nowNs() >= Deadline;
    int Next = -1;
    for (size_t P = 0; P < Phases.size(); ++P)
      if ((!Late || !Phases[P]->enough()) &&
          (Next < 0 || SpentS[P] / Share[P] < SpentS[Next] / Share[Next]))
        Next = int(P);
    if (Next < 0)
      break;
    measureSpeed(R);
    uint64_t T0 = nowNs();
    Phases[size_t(Next)]->step();
    SpentS[size_t(Next)] += double(nowNs() - T0) / 1e9;
  }
  for (auto &P : Phases)
    P->finish();
  fprintf(stderr, "phases: startup %.1f s, exec %.1f s, serve %.1f s\n",
          SpentS[0], SpentS[1], Trace == 1 ? SpentS[2] : 0.0);
  fprintf(stderr,
          "reference job: median %.3f ms, p10 %.3f ms, p90 %.3f ms over %zu "
          "(nominal %.3f ms)\n",
          median(R.RefNs) / 1e6, percentile(R.RefNs, 0.1) / 1e6,
          percentile(R.RefNs, 0.9) / 1e6, R.RefNs.size(), ReferenceJobNs / 1e6);
  R.M.add("setup_s", median(SetupS), "s");
  if (Trace == 1)
    layerSweep(R);

  if (!R.Fatal.empty()) {
    fprintf(stderr, "perfbench: %s\n", R.Fatal.c_str());
    return 1;
  }
  if (!R.M.finite()) {
    fprintf(stderr, "perfbench: a metric is not a finite number\n");
    return 1;
  }
  for (const std::string &Why : R.L.Reasons)
    fprintf(stderr, "perfbench: failed: %s\n", Why.c_str());

  if (Trace == 1) {
    std::string Path = WorkDir + "/trace-" + Workload + ".jsonl";
    std::string RowsPath = WorkDir + "/items-" + Workload + ".jsonl";
    if (!R.T.write(Path) || !writeRows(R.Rows, RowsPath)) {
      fprintf(stderr, "perfbench: cannot write the trace\n");
      return 1;
    }
    fprintf(stderr, "perfbench: %zu spans in %s, %zu item rows in %s\n",
            R.T.Spans.size(), Path.c_str(), R.Rows.size(), RowsPath.c_str());
  }
  // Every measured metric is printed; run.py keeps the ones BENCHMARK.json
  // lists for the run's mode.
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": %s}\n",
         R.L.Failed == 0 ? "true" : "false", R.L.Attempted, R.L.Failed,
         R.M.json().c_str());
  return 0;
}
