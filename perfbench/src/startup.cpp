//===- perfbench/src/startup.cpp - the startup phase -----------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Time to a first result for a module whose `run` returns at once (the
// paper's m0 variant): Engine construction + load + invoke("run"), each
// in a fresh engine with the compile cache and the instance pool off.
// A pass loads every item on all six tiers cold, then on the five
// compiling tiers disk-warm: a fresh in-process cache over the directory
// set-up populated, so each load is the first one a new process pays.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <map>

using namespace wisp;

namespace pb {

namespace {

/// One timed ready-to-result sequence; returns microseconds at the
/// reference speed, or a negative value after recording a failure.
/// \p Disk non-null selects a disk-warm load and counts its artifact
/// lookups there.
double readyOnce(Run &R, const EngineConfig &Cfg, const Item &It,
                 uint64_t Req, std::pair<uint64_t, uint64_t> *Disk) {
  CompileCache Fresh; // Only used by disk-warm loads; built untimed.
  std::unique_ptr<Engine> E;
  std::unique_ptr<LoadedModule> LM;
  std::vector<Value> Out;
  WasmError Err;
  TrapReason Trap = TrapReason::None;
  uint64_t T0 = nowNs();
  {
    Tracer::Scope S(R.T, "engine.ctor", Req);
    E = std::make_unique<Engine>(Cfg, Disk ? &Fresh : nullptr);
  }
  {
    Tracer::Scope S(R.T, "engine.load", Req);
    LM = E->load(It.M0Bytes, &Err);
  }
  if (LM) {
    Tracer::Scope S(R.T, "engine.invoke", Req);
    Trap = E->invoke(*LM, "run", {}, &Out);
  }
  uint64_t T1 = nowNs();
  std::string Where = It.Name + " on " + Cfg.Name + (Disk ? " (disk)" : "");
  if (!LM) {
    R.L.fail("load " + Where + ": " + Err.Message);
    return -1;
  }
  if (Trap != TrapReason::None || Out.size() != 1 ||
      !sameValue(Out[0], It.RefM0)) {
    R.L.fail("m0 result " + Where);
    return -1;
  }
  if (Disk) {
    Disk->first += LM->Stats.DiskHits;
    Disk->second += LM->Stats.DiskHits + LM->Stats.DiskMisses;
  }
  if (Disk && (LM->Stats.DiskHits == 0 || LM->Stats.DiskMisses != 0)) {
    R.L.fail("disk level did not serve " + Where);
    return -1;
  }
  R.L.ok();
  return double(T1 - T0) / 1e3 * R.Scale;
}

class StartupPhase : public Phase {
public:
  StartupPhase(Run &R, bool SplitTrace)
      : R(R), SplitTrace(SplitTrace), Base(R.T.On) {
    for (const std::string &Name : sixTiers()) {
      EngineConfig C = configFor(Name);
      C.UseCompileCache = false;
      C.PoolInstances = false;
      Cold.push_back(C);
      C.UseCompileCache = true;
      C.UseDiskCache = true;
      C.DiskCacheDir = R.In.DiskDir;
      Disk.push_back(C);
    }
    for (uint32_t I = 0; I < R.In.Items.size(); ++I)
      for (uint32_t T = 0; T < sixTiers().size(); ++T)
        Order.push_back({I, T});
  }

  /// One pass: every item on every tier, cold, then disk-warm. Pass 0
  /// warms the allocator and code caches and is not recorded.
  void step() override {
    const bool Traced = SplitTrace ? Pass % 2 == 0 : Base;
    R.T.On = Traced && Pass > 0;
    {
      Tracer::Scope PassSpan(R.T, "startup.pass", uint64_t(Pass));
      shuffle(Order, R.Rand);
      for (auto [I, T] : Order) {
        Tracer::Scope S(R.T, "startup.cold", I * 8 + T);
        double Us = readyOnce(R, Cold[T], R.In.Items[I], I * 8 + T, nullptr);
        if (Us >= 0 && Pass > 0) {
          ColdUs[Traced].push_back(Us);
          PerCold[{I, T}].push_back(Us);
        }
      }
      for (auto [I, T] : Order) {
        if (T == 0) // The in-place interpreter builds no artifacts.
          continue;
        Tracer::Scope S(R.T, "startup.disk", I * 8 + T);
        double Us = readyOnce(R, Disk[T], R.In.Items[I], I * 8 + T, &Lookups);
        if (Us >= 0 && Pass > 0) {
          DiskUs[Traced].push_back(Us);
          PerDisk[{I, T}].push_back(Us);
        }
      }
    }
    ++Pass;
    R.T.On = Base;
  }

  bool enough() const override { return Pass >= (SplitTrace ? 3 : 2); }

  void finish() override {
    const bool Report = SplitTrace ? false : Base;
    const std::vector<double> &C = ColdUs[Report], &D = DiskUs[Report];
    R.M.add("cold_ready_us.p50", percentile(C, 0.50), "us");
    R.M.add("cold_ready_us.p99", percentile(C, 0.99), "us");
    R.M.add("disk_ready_us.p50", percentile(D, 0.50), "us");
    R.M.add("disk_ready_us.p99", percentile(D, 0.99), "us");
    fprintf(stderr,
            "startup: cold p50 %.2f us p99 %.2f us (%zu samples); disk-warm "
            "p50 %.2f us p99 %.2f us (%zu samples); %d passes\n",
            percentile(C, 0.5), percentile(C, 0.99), C.size(),
            percentile(D, 0.5), percentile(D, 0.99), D.size(), Pass);
    R.M.add("cache.disk.hit_ratio",
            Lookups.second ? double(Lookups.first) / double(Lookups.second)
                           : 0,
            "ratio");
    if (SplitTrace)
      R.M.add("trace.overhead_pct",
              100.0 * (percentile(ColdUs[1], 0.5) / percentile(ColdUs[0], 0.5) -
                       1),
              "%");
    if (Base)
      for (auto [Key, Per] : {std::pair{"cold_ready_us", &PerCold},
                              std::pair{"disk_ready_us", &PerDisk}})
        for (const auto &[IT, Us] : *Per)
          R.Rows.push_back({R.In.Items[IT.first].Name, sixTiers()[IT.second],
                            Key, median(Us)});
  }

private:
  Run &R;
  const bool SplitTrace, Base;
  std::vector<EngineConfig> Cold, Disk;
  std::vector<std::pair<uint32_t, uint32_t>> Order; // (item, tier)
  int Pass = 0;
  // [traced] samples, pooled over passes; per (item, tier) for item rows.
  std::vector<double> ColdUs[2], DiskUs[2];
  std::map<std::pair<uint32_t, uint32_t>, std::vector<double>> PerCold,
      PerDisk;
  std::pair<uint64_t, uint64_t> Lookups{0, 0}; // (disk hits, lookups)
};

} // namespace

std::unique_ptr<Phase> startupPhase(Run &R, bool SplitTrace) {
  return std::make_unique<StartupPhase>(R, SplitTrace);
}

} // namespace pb
