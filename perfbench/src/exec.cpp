//===- perfbench/src/exec.cpp - the exec phase -----------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Host time of invoke("run") for every item's full module on five
// configurations. A round visits the items in seeded order and, per item,
// the configurations in seeded order, so slow drift of the machine's speed
// lands on every configuration alike. Loads are untimed. Modeled cycles
// must repeat exactly between rounds.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

using namespace wisp;

namespace pb {

namespace {

struct ExecConfig {
  const char *Key;    ///< Metric suffix.
  const char *Config; ///< Registry name.
};

const ExecConfig Configs[] = {{"int", "wizard-int"},
                              {"threaded", "interp-threaded"},
                              {"spc", "wizard-spc"},
                              {"opt", "wasmtime"},
                              {"tiered", "wizard-tiered"}};
constexpr size_t NumConfigs = sizeof(Configs) / sizeof(Configs[0]);

/// Modeled counts of one invoke; deterministic, so equal in every round.
struct Counts {
  uint64_t Cycles = 0, InterpCycles = 0, InterpSteps = 0, ThreadedSteps = 0,
           JitCycles = 0, TierUps = 0;
  bool operator==(const Counts &) const = default;
};

/// What one (item, configuration) pair showed over the rounds.
struct Obs {
  std::vector<double> Ns[2]; ///< Invoke ns at reference speed, [traced].
  bool Seen = false;
  Counts C;
};

class ExecPhase : public Phase {
public:
  ExecPhase(Run &R, bool SplitTrace)
      : R(R), SplitTrace(SplitTrace), Base(R.T.On),
        O(R.In.Items.size() * NumConfigs) {
    for (const ExecConfig &C : Configs) {
      EngineConfig Cfg = configFor(C.Config);
      Cfg.UseCompileCache = false;
      Cfg.PoolInstances = false;
      Cfgs.push_back(Cfg);
    }
    for (uint32_t I = 0; I < R.In.Items.size(); ++I)
      Items.push_back(I);
    for (uint32_t C = 0; C < NumConfigs; ++C)
      Cs.push_back(C);
  }

  /// One round: every item on every configuration.
  void step() override {
    const bool Traced = SplitTrace ? Round % 2 == 1 : Base;
    R.T.On = Traced;
    {
      Tracer::Scope RoundSpan(R.T, "exec.round", uint64_t(Round));
      shuffle(Items, R.Rand);
      for (uint32_t I : Items) {
        shuffle(Cs, R.Rand);
        for (uint32_t C : Cs)
          runOne(I, C, Traced);
      }
    }
    ++Round;
    R.T.On = Base;
  }

  // Counts are taken at least twice; split runs need two rounds per half.
  bool enough() const override { return Round >= (SplitTrace ? 4 : 2); }

  void finish() override;

private:
  void runOne(uint32_t I, uint32_t C, bool Traced);

  Run &R;
  const bool SplitTrace, Base;
  std::vector<EngineConfig> Cfgs;
  std::vector<Obs> O; ///< [item * NumConfigs + config]
  std::vector<uint32_t> Items, Cs;
  int Round = 0;
};

void ExecPhase::runOne(uint32_t I, uint32_t C, bool Traced) {
  const Item &It = R.In.Items[I];
  const uint64_t Req = I * 8 + C;
  Tracer::Scope S(R.T, "exec.item", Req);
  Engine E(Cfgs[C]);
  WasmError Err;
  std::unique_ptr<LoadedModule> LM;
  {
    Tracer::Scope L(R.T, "engine.load", Req);
    LM = E.load(It.Bytes, &Err);
  }
  std::string Where = It.Name + " on " + Cfgs[C].Name;
  if (!LM) {
    R.L.fail("load " + Where + ": " + Err.Message);
    return;
  }
  Thread &T = E.thread();
  const uint64_t Is0 = T.InterpSteps, Ts0 = T.ThreadedSteps,
                 Jc0 = T.JitCycles;
  std::vector<Value> Out;
  TrapReason Trap;
  uint64_t T0 = nowNs();
  {
    Tracer::Scope V(R.T, "engine.invoke", Req);
    Trap = E.invoke(*LM, "run", {}, &Out);
  }
  uint64_t T1 = nowNs();
  if (Trap != TrapReason::None || Out.size() != 1 ||
      !sameValue(Out[0], It.Ref)) {
    R.L.fail("run result " + Where);
    return;
  }
  R.L.ok();
  Counts Now;
  Now.InterpSteps = T.InterpSteps - Is0;
  Now.ThreadedSteps = T.ThreadedSteps - Ts0;
  Now.JitCycles = T.JitCycles - Jc0;
  Now.InterpCycles = Now.InterpSteps * Thread::InterpCyclesPerStep +
                     Now.ThreadedSteps * Thread::ThreadedCyclesPerStep;
  Now.Cycles = Now.InterpCycles + Now.JitCycles;
  for (const FuncInstance &F : LM->Inst->Funcs)
    Now.TierUps += Cfgs[C].Mode == ExecMode::Tiered && F.UseJit;
  Obs &Slot = O[I * NumConfigs + C];
  if (!Slot.Seen) {
    Slot.Seen = true;
    Slot.C = Now;
  } else if (!(Slot.C == Now)) {
    R.Fatal = "modeled counts of " + Where + " differ between rounds";
  }
  Slot.Ns[Traced].push_back(double(T1 - T0) * R.Scale);
}

void ExecPhase::finish() {
  const size_t N = R.In.Items.size();
  const bool Report = SplitTrace ? false : Base;
  double AllLog[2] = {0, 0};
  for (size_t C = 0; C < NumConfigs; ++C) {
    std::vector<double> Ms, Mcycles;
    double SumNs = 0;
    Counts Sum;
    for (size_t I = 0; I < N; ++I) {
      const Obs &X = O[I * NumConfigs + C];
      if (!X.Seen)
        continue;
      double Med = median(X.Ns[Report]);
      Ms.push_back(Med / 1e6);
      Mcycles.push_back(double(X.C.Cycles) / 1e6);
      SumNs += Med;
      Sum.Cycles += X.C.Cycles;
      Sum.InterpCycles += X.C.InterpCycles;
      Sum.InterpSteps += X.C.InterpSteps;
      Sum.ThreadedSteps += X.C.ThreadedSteps;
      Sum.JitCycles += X.C.JitCycles;
      Sum.TierUps += X.C.TierUps;
      if (SplitTrace) {
        AllLog[0] += std::log(median(X.Ns[0]));
        AllLog[1] += std::log(median(X.Ns[1]));
      }
      if (Base) {
        R.Rows.push_back({R.In.Items[I].Name, Configs[C].Config, "exec_ms",
                          Med / 1e6});
        R.Rows.push_back({R.In.Items[I].Name, Configs[C].Config, "mcycles",
                          double(X.C.Cycles) / 1e6});
      }
    }
    const std::string Key = Configs[C].Key;
    R.M.add("exec_ms." + Key, geomean(Ms), "ms");
    R.M.add("mcycles." + Key, geomean(Mcycles), "Mcycles");
    fprintf(stderr,
            "exec: %-8s geomean %.4f ms, %.4f Mcycles (%zu items, %d "
            "rounds)\n",
            Key.c_str(), geomean(Ms), geomean(Mcycles), Ms.size(), Round);
    if (Key == "int")
      R.M.add("interp.int.ns_per_step", SumNs / double(Sum.InterpSteps),
              "ns/step");
    else if (Key == "threaded")
      R.M.add("interp.threaded.ns_per_step", SumNs / double(Sum.ThreadedSteps),
              "ns/step");
    else if (Key == "spc" || Key == "opt")
      R.M.add("machine." + Key + ".ns_per_mcycle",
              SumNs / (double(Sum.JitCycles) / 1e6), "ns/Mcycle");
    else if (Key == "tiered") {
      R.M.add("engine.tiered.tierup_funcs", double(Sum.TierUps), "count");
      R.M.add("engine.tiered.interp_cycle_share",
              double(Sum.InterpCycles) / double(Sum.Cycles), "ratio");
    }
  }
  if (SplitTrace)
    R.M.add("trace.overhead_pct",
            100.0 * (std::exp((AllLog[1] - AllLog[0]) / double(N * NumConfigs)) -
                     1),
            "%");
}

} // namespace

std::unique_ptr<Phase> execPhase(Run &R, bool SplitTrace) {
  return std::make_unique<ExecPhase>(R, SplitTrace);
}

} // namespace pb
