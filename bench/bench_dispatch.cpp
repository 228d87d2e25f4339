//===- bench/bench_dispatch.cpp - switch vs. threaded dispatch --------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Compares the in-place switch interpreter (wizard-int) against the
// threaded-dispatch tier (interp-threaded: pre-decoded IR, computed-goto,
// superinstruction fusion) on the fig. 7 suites. The primary metric is the
// deterministic modeled main-loop cost (InterpSteps x 22 cycles vs.
// ThreadedSteps x 16 cycles); the total-cost view folds the one-pass
// pre-decode translation time (LoadStats::PredecodeNs) back in, keeping the
// fig. 7/8 methodology honest about what the threaded tier pays up front.
//
// Exits 1 unless every suite's geomean main-loop reduction meets the
// acceptance bar (MinSuiteReduction). Modeled cycles are exact, so the
// check does not depend on the host.
//
//===----------------------------------------------------------------------===//

#include "benchutil.h"
#include "support/format.h"

using namespace wisp;
using namespace wisp::bench;

// Total cost combining real setup work (wall time, incl. pre-decode) with
// modeled execution cycles converted at the modeled clock (1 GHz).
static double totalCost(const ItemRun &R) {
  return R.SetupMs + R.MainCycles / 1e6;
}

// The threaded tier's acceptance bar: geomean modeled main-loop reduction
// against the switch interpreter, required of every fig. 7 suite.
static constexpr double MinSuiteReduction = 0.25;

int main() {
  jsonBench("bench_dispatch");
  printHeader("Dispatch strategy: switch (wizard-int) vs threaded "
              "(interp-threaded)",
              "modeled main-loop cycles; reduction = 1 - threaded/switch, "
              "higher is better");

  EngineConfig SwitchCfg = configByName("wizard-int");
  EngineConfig ThreadedCfg = configByName("interp-threaded");

  const char *SuiteNames[] = {"polybench", "libsodium", "ostrich"};
  std::vector<LineItem> Suites[] = {polybenchSuite(scale()),
                                    libsodiumSuite(scale()),
                                    ostrichSuite(scale())};

  std::vector<double> AllRatios;
  std::vector<double> AllTotalRatios;
  std::string BelowBar;
  for (int S = 0; S < 3; ++S) {
    printf("\n--- %s ---\n", SuiteNames[S]);
    printf("  %-16s %14s %14s %7s %11s\n", "item", "switch cyc", "threaded cyc",
           "reduc", "predecode");
    std::vector<double> Ratios, TotalRatios;
    for (const LineItem &Item : Suites[S]) {
      ItemRun SwitchRun = measure(SwitchCfg, Item.Bytes, runs());
      ItemRun ThreadedRun = measure(ThreadedCfg, Item.Bytes, runs());
      if (!SwitchRun.Ok || !ThreadedRun.Ok || SwitchRun.MainCycles <= 0)
        continue;
      double Ratio = ThreadedRun.MainCycles / SwitchRun.MainCycles;
      double TotalRatio = totalCost(ThreadedRun) / totalCost(SwitchRun);
      Ratios.push_back(Ratio);
      TotalRatios.push_back(TotalRatio);
      printf("  %-16s %14.0f %14.0f %6.1f%% %9.1fus\n", Item.Name.c_str(),
             SwitchRun.MainCycles, ThreadedRun.MainCycles,
             100.0 * (1.0 - Ratio), ThreadedRun.PredecodeMs * 1e3);
      std::string Full = std::string(SuiteNames[S]) + "/" + Item.Name;
      jsonRecord("wizard-int", Full, "main_cycles", SwitchRun.MainCycles);
      jsonRecord("wizard-int", Full, "interp_steps", SwitchRun.InterpSteps);
      jsonRecord("wizard-int", Full, "total_cost_ms", totalCost(SwitchRun));
      jsonRecord("interp-threaded", Full, "main_cycles",
                 ThreadedRun.MainCycles);
      jsonRecord("interp-threaded", Full, "threaded_steps",
                 ThreadedRun.ThreadedSteps);
      jsonRecord("interp-threaded", Full, "predecode_ms",
                 ThreadedRun.PredecodeMs);
      jsonRecord("interp-threaded", Full, "ir_bytes",
                 double(ThreadedRun.IrBytes));
      jsonRecord("interp-threaded", Full, "total_cost_ms",
                 totalCost(ThreadedRun));
    }
    Stat St = stats(Ratios);
    Stat StTotal = stats(TotalRatios);
    printf("  geomean main-loop reduction: %.1f%%   (total-cost incl. "
           "predecode: %.1f%%)\n",
           100.0 * (1.0 - St.Geomean), 100.0 * (1.0 - StTotal.Geomean));
    jsonRecord("interp-threaded", SuiteNames[S], "geomean_cycle_ratio",
               St.Geomean);
    if (Ratios.empty() || 1.0 - St.Geomean < MinSuiteReduction)
      BelowBar += strFormat(" %s (%.1f%%)", SuiteNames[S],
                            Ratios.empty() ? 0.0 : 100.0 * (1.0 - St.Geomean));
    jsonRecord("interp-threaded", SuiteNames[S], "geomean_total_ratio",
               StTotal.Geomean);
    AllRatios.insert(AllRatios.end(), Ratios.begin(), Ratios.end());
    AllTotalRatios.insert(AllTotalRatios.end(), TotalRatios.begin(),
                          TotalRatios.end());
  }

  Stat All = stats(AllRatios);
  Stat AllTotal = stats(AllTotalRatios);
  printf("\noverall geomean main-loop reduction: %.1f%% (min %.1f%%, max "
         "%.1f%%)\n",
         100.0 * (1.0 - All.Geomean), 100.0 * (1.0 - All.Max),
         100.0 * (1.0 - All.Min));
  printf("overall geomean total-cost reduction (incl. predecode): %.1f%%\n",
         100.0 * (1.0 - AllTotal.Geomean));
  jsonRecord("interp-threaded", "all", "geomean_cycle_ratio", All.Geomean);
  jsonRecord("interp-threaded", "all", "geomean_total_ratio",
             AllTotal.Geomean);
  printf("\nExpected shape: pre-decoded immediates + computed-goto cut the\n"
         "per-step price 22 -> 16 modeled cycles (~27%%), and fusion of\n"
         "get/get/op, get/const/op, cmp/br_if and set/get chains removes\n"
         "further dispatches; the acceptance bar is a >=%.0f%% geomean\n"
         "main-loop reduction on every fig. 7 suite.\n",
         100.0 * MinSuiteReduction);
  if (!BelowBar.empty()) {
    fprintf(stderr, "\nShape check: below the %.0f%% bar:%s: FAILED\n",
            100.0 * MinSuiteReduction, BelowBar.c_str());
    return 1;
  }
  fprintf(stderr, "\nShape check: every suite at or above the %.0f%% bar: "
                  "ok\n",
          100.0 * MinSuiteReduction);
  return 0;
}
