//===- bench/bench_fig10_tiers.cpp - paper Figure 10 ------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The larger SQ-space over all execution tiers. Uses the paper's exact
// methodology: T(Mnop) bounds VM startup, T(m0) (the early-return variant
// of each module) bounds per-module setup, and the adjusted execution
// time T(m) - T(m0) with adjusted speedup over wizard-int. Setup speed is
// module bytes / (T(m0) - T(Mnop)) in MB/s.
//
// Checks the execution half of the paper's shape: every optimizing
// config's adjusted-speedup geomean must exceed every baseline compiler's
// (tiered and interpreter configs are not compared), or the bench exits 1.
// The setup half (optimizing tiers ~10x slower to set up) is not checked:
// the optimizing compiler here costs only about twice a baseline's.
//
//===----------------------------------------------------------------------===//

#include "benchutil.h"

using namespace wisp;
using namespace wisp::bench;

int main() {
  printHeader("Figure 10: SQ-space for all execution tiers",
              "x = setup speed (MB/s), y = adjusted speedup over "
              "wizard-int");
  int N = std::max(1, runs() - 1);

  std::vector<EngineConfig> Tiers = figure10Registry();
  std::vector<LineItem> Items = allSuites(scale());

  // Reference: wizard-int adjusted execution time per item.
  EngineConfig IntCfg = configByName("wizard-int");
  std::vector<double> IntAdj(Items.size());
  {
    double Nop = measure(IntCfg, nopModule(), N + 4).TotalMs;
    (void)Nop;
    for (size_t I = 0; I < Items.size(); ++I) {
      double M0 = measure(IntCfg, Items[I].M0Bytes, N).MainCycles;
      double M = measure(IntCfg, Items[I].Bytes, N).MainCycles;
      IntAdj[I] = std::max(1.0, M - M0);
    }
  }

  // Slowest optimizing and fastest baseline-compiler speedup geomeans.
  double OptLow = HUGE_VAL, BaseHigh = 0;
  std::string OptLowName, BaseHighName;

  printf("\ntier,item,setup_mbps,adj_speedup\n");
  for (const EngineConfig &Cfg : Tiers) {
    double Nop = measure(Cfg, nopModule(), N + 4).TotalMs;
    std::vector<double> Mbps, Speed;
    for (size_t I = 0; I < Items.size(); ++I) {
      ItemRun R0 = measure(Cfg, Items[I].M0Bytes, N);
      ItemRun Rm = measure(Cfg, Items[I].Bytes, N);
      double SetupMs = std::max(1e-4, R0.TotalMs - Nop);
      double AdjMs = std::max(1.0, Rm.MainCycles - R0.MainCycles);
      double MBps =
          double(Items[I].Bytes.size()) / (SetupMs / 1e3) / 1e6;
      double Sp = IntAdj[I] / AdjMs;
      Mbps.push_back(MBps);
      Speed.push_back(Sp);
      printf("%s,%s/%s,%.2f,%.2f\n", Cfg.Name.c_str(),
             Items[I].Suite.c_str(), Items[I].Name.c_str(), MBps, Sp);
    }
    Stat MS = stats(Mbps), SS = stats(Speed);
    fprintf(stderr,
            "  %-16s setup %8.2f MB/s [%7.2f..%8.2f]   adj speedup "
            "%6.2fx [%5.2f..%6.2f]\n",
            Cfg.Name.c_str(), MS.Geomean, MS.Min, MS.Max, SS.Geomean, SS.Min,
            SS.Max);
    if (Cfg.Mode == ExecMode::Jit || Cfg.Mode == ExecMode::JitLazy) {
      if (Cfg.Compiler == CompilerKind::Optimizing) {
        if (SS.Geomean < OptLow) {
          OptLow = SS.Geomean;
          OptLowName = Cfg.Name;
        }
      } else if (SS.Geomean > BaseHigh) {
        BaseHigh = SS.Geomean;
        BaseHighName = Cfg.Name;
      }
    }
  }
  bool Holds = OptLow > BaseHigh;
  fprintf(stderr,
          "\nShape check: slowest optimizing config %s at %.2fx %s fastest "
          "baseline compiler %s at %.2fx: %s\n",
          OptLowName.c_str(), OptLow, Holds ? ">" : "<=", BaseHighName.c_str(),
          BaseHigh, Holds ? "ok" : "FAILED");
  return Holds ? 0 : 1;
}
