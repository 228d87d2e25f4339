//===- bench/benchutil.h - shared benchmark harness --------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement utilities shared by the benchmark binaries:
/// per-item setup/main timing (the paper's T(Mnop)/T(m0)/T(m)
/// methodology), medians over repeated runs, geometric means, and table
/// printing. Run counts and workload scale come from WISP_BENCH_RUNS and
/// WISP_BENCH_SCALE (defaults keep every binary under a minute).
///
/// Machine-readable output: when WISP_BENCH_JSON=<path> is set, every
/// metric recorded through jsonBench()/jsonRecord() is written to <path>
/// as a JSON document at process exit, so CI can archive a perf
/// trajectory (BENCH_*.json) next to the human-readable tables.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_BENCH_BENCHUTIL_H
#define WISP_BENCH_BENCHUTIL_H

#include "engine/engine.h"
#include "engine/registry.h"
#include "suites/suites.h"
#include "support/clock.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace wisp {
namespace bench {

inline int envInt(const char *Name, int Default) {
  const char *V = getenv(Name);
  return V ? atoi(V) : Default;
}
inline int runs() { return std::max(1, envInt("WISP_BENCH_RUNS", 3)); }
inline int scale() { return std::max(1, envInt("WISP_BENCH_SCALE", 1)); }

// Wall-clock readings come from wisp::nowMs() (support/clock.h), shared
// with the engine's LoadStats timers and the batch service.

/// One measured execution of a module in a fresh engine (the paper runs
/// each line item in a separate VM instance).
struct ItemRun {
  double SetupMs = 0;   ///< load() time: decode + validate + compile.
  double MainMs = 0;    ///< invoke("run") wall time.
  double TotalMs = 0;   ///< Setup + main (wall).
  double CompileMs = 0; ///< Compile portion of setup.
  /// Threaded-IR pre-decode portion of setup (threaded configs only).
  double PredecodeMs = 0;
  /// Modeled execution cycles (deterministic; the primary metric for
  /// execution-time comparisons — see Thread::InterpCyclesPerStep).
  double MainCycles = 0;
  /// Interpreter dispatch counts behind MainCycles.
  double InterpSteps = 0;
  double ThreadedSteps = 0;
  size_t IrBytes = 0; ///< Pre-decoded threaded-IR size.
  bool Ok = false;
};

/// Copy of \p Cfg with the compile cache disabled. The paper's
/// methodology is cold-start by definition — every measured load pays the
/// full decode+validate+compile cost — so the per-figure benchmarks must
/// not let repeated loads of the same item hit the process-wide cache
/// (bench_cache measures the warm regime explicitly). Static artifact
/// verification is likewise forced off: it defaults on in Debug builds,
/// and a Debug-built bench must still measure compile time, not
/// translation-validation time.
inline EngineConfig coldLoads(EngineConfig Cfg) {
  Cfg.UseCompileCache = false;
  Cfg.VerifyArtifacts = false;
  return Cfg;
}

inline ItemRun runOnce(const EngineConfig &Cfg,
                       const std::vector<uint8_t> &Bytes) {
  ItemRun R;
  Engine E(coldLoads(Cfg));
  WasmError Err;
  double T0 = nowMs();
  auto LM = E.load(Bytes, &Err);
  double T1 = nowMs();
  if (!LM) {
    fprintf(stderr, "load failed (%s): %s\n", Cfg.Name.c_str(),
            Err.Message.c_str());
    return R;
  }
  std::vector<Value> Out;
  TrapReason Trap = E.invoke(*LM, "run", {}, &Out);
  double T2 = nowMs();
  if (Trap != TrapReason::None) {
    fprintf(stderr, "trap (%s): %s\n", Cfg.Name.c_str(),
            trapReasonName(Trap));
    return R;
  }
  R.SetupMs = T1 - T0;
  R.MainMs = T2 - T1;
  R.TotalMs = T2 - T0;
  R.CompileMs = double(LM->Stats.CompileNs) / 1e6;
  R.PredecodeMs = double(LM->Stats.PredecodeNs) / 1e6;
  R.MainCycles = double(E.thread().modeledCycles());
  R.InterpSteps = double(E.thread().InterpSteps);
  R.ThreadedSteps = double(E.thread().ThreadedSteps);
  R.IrBytes = LM->Stats.IrBytes;
  R.Ok = true;
  return R;
}

/// Median-of-N runs.
inline ItemRun measure(const EngineConfig &Cfg,
                       const std::vector<uint8_t> &Bytes, int N) {
  std::vector<ItemRun> Rs;
  for (int I = 0; I < N; ++I) {
    ItemRun R = runOnce(Cfg, Bytes);
    if (R.Ok)
      Rs.push_back(R);
  }
  if (Rs.empty())
    return ItemRun{};
  std::sort(Rs.begin(), Rs.end(),
            [](const ItemRun &A, const ItemRun &B) { return A.MainMs < B.MainMs; });
  return Rs[Rs.size() / 2];
}

struct Stat {
  double Geomean = 0, Min = 0, Max = 0;
};

inline Stat stats(const std::vector<double> &Xs) {
  Stat S;
  if (Xs.empty())
    return S;
  double LogSum = 0;
  S.Min = S.Max = Xs[0];
  for (double X : Xs) {
    LogSum += std::log(X);
    S.Min = std::min(S.Min, X);
    S.Max = std::max(S.Max, X);
  }
  S.Geomean = std::exp(LogSum / double(Xs.size()));
  return S;
}

inline void printHeader(const char *Title, const char *Detail) {
  printf("==============================================================\n");
  printf("%s\n", Title);
  printf("%s\n", Detail);
  printf("runs=%d scale=%d (override: WISP_BENCH_RUNS / WISP_BENCH_SCALE)\n",
         runs(), scale());
  printf("==============================================================\n");
}

/// Collects metric rows and writes them to $WISP_BENCH_JSON at process
/// exit. One flat row per (config, item, metric) keeps the schema trivial
/// for jq/pandas consumers:
///   {"bench": "...", "runs": N, "scale": N,
///    "results": [{"config": "...", "item": "...", "metric": "...",
///                 "value": 1.0}, ...]}
class JsonSink {
public:
  static JsonSink &instance() {
    static JsonSink Sink;
    return Sink;
  }

  void setBench(const std::string &Name) { Bench = Name; }

  void record(const std::string &Config, const std::string &Item,
              const std::string &Metric, double Value) {
    Rows.push_back({Config, Item, Metric, Value});
  }

  ~JsonSink() { flush(); }

  void flush() {
    const char *Path = getenv("WISP_BENCH_JSON");
    if (!Path || Flushed || Rows.empty())
      return;
    FILE *Out = fopen(Path, "w");
    if (!Out) {
      fprintf(stderr, "benchutil: cannot write WISP_BENCH_JSON=%s\n", Path);
      return;
    }
    fprintf(Out, "{\n  \"bench\": \"%s\",\n  \"runs\": %d,\n  \"scale\": %d,\n"
                 "  \"results\": [\n",
            Bench.c_str(), runs(), scale());
    for (size_t I = 0; I < Rows.size(); ++I)
      fprintf(Out,
              "    {\"config\": \"%s\", \"item\": \"%s\", \"metric\": \"%s\", "
              "\"value\": %.17g}%s\n",
              Rows[I].Config.c_str(), Rows[I].Item.c_str(),
              Rows[I].Metric.c_str(), Rows[I].Value,
              I + 1 < Rows.size() ? "," : "");
    fprintf(Out, "  ]\n}\n");
    fclose(Out);
    Flushed = true;
  }

private:
  struct Row {
    std::string Config, Item, Metric;
    double Value;
  };
  std::string Bench = "unnamed";
  std::vector<Row> Rows;
  bool Flushed = false;
};

/// Names the JSON document (call once at the top of main).
inline void jsonBench(const std::string &Name) {
  JsonSink::instance().setBench(Name);
}

/// Records one metric row (no-op cost when WISP_BENCH_JSON is unset aside
/// from the in-memory row).
inline void jsonRecord(const std::string &Config, const std::string &Item,
                       const std::string &Metric, double Value) {
  JsonSink::instance().record(Config, Item, Metric, Value);
}

} // namespace bench
} // namespace wisp

#endif // WISP_BENCH_BENCHUTIL_H
