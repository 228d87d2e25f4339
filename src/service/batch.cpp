//===- service/batch.cpp - batch front end ----------------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "service/batch.h"

#include "service/runtime.h"
#include "support/clock.h"
#include "support/format.h"

namespace wisp {

bool parseBatchManifest(const std::string &Text,
                        std::vector<BatchJob> *Out, std::string *Err) {
  Out->clear();
  uint32_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    std::string Line = Text.substr(
        Pos, Nl == std::string::npos ? std::string::npos : Nl - Pos);
    Pos = Nl == std::string::npos ? Text.size() + 1 : Nl + 1;
    ++LineNo;
    std::vector<std::string> Toks = jobLineTokens(Line);
    if (Toks.empty())
      continue;
    BatchJob Job;
    if (!parseJobTokens(Toks, LineNo, &Job, Err))
      return false;
    Job.Index = uint32_t(Out->size());
    if (Job.Id.empty())
      Job.Id = std::to_string(Job.Index);
    Out->push_back(std::move(Job));
  }
  if (Out->empty()) {
    *Err = "manifest contains no jobs";
    return false;
  }
  return true;
}

bool resolveBatchModules(std::vector<BatchJob> *Jobs, std::string *Err) {
  ModuleResolver Modules;
  for (BatchJob &Job : *Jobs) {
    std::string Detail;
    ModuleBytes Bytes =
        Modules.resolve(Job.Module, Job.Scale, Job.UseM0, &Detail);
    if (!Bytes) {
      *Err = strFormat("manifest line %u: %s", Job.Line, Detail.c_str());
      return false;
    }
    Job.Bytes = *Bytes;
  }
  return true;
}

BatchReport runBatch(const std::vector<BatchJob> &Jobs,
                     const BatchOptions &Opts) {
  BatchReport Report;
  Report.Workers = Opts.Workers ? Opts.Workers : 1;
  Report.Results.resize(Jobs.size());
  Report.CacheEnabled = Opts.CompileCache;
  Report.PoolEnabled = Opts.PoolInstances;
  // One compile cache per batch, shared by every worker: the first job to
  // reach a given body compiles it, every later job reuses the artifact.
  // Batch-local (not the process cache) so aggregate counters describe
  // exactly this manifest; same capacity knob (WISP_CACHE_BYTES) as the
  // process cache.
  CompileCache Cache(CompileCache::configuredCapacityBytes());
  RuntimeSettings S;
  S.Policy = EnginePolicy::FreshPerJob;
  S.Cache = Opts.CompileCache ? &Cache : nullptr;
  S.PoolInstances = Opts.PoolInstances;
  S.CacheDir = Opts.CacheDir;
  S.DiskCache = Opts.DiskCache;
  double T0 = nowMs();

  // Bounded to 2x the worker count: enough to keep every worker fed,
  // small enough that submission exerts backpressure. Each result lands
  // in its own pre-sized slot, so workers never contend on the report.
  JobQueue<uint32_t> Queue(size_t(Report.Workers) * 2);
  WorkerPool<uint32_t> Pool(S, Report.Workers, Queue,
                            [&](Worker &W, uint32_t &Idx) {
                              Report.Results[Idx] =
                                  W.run(Jobs[Idx], Jobs[Idx].Bytes);
                            });
  // Batch engines run with the engine defaults (4096-frame call depth,
  // architecture-bounded pages), so the precheck's caps are all 0. A job
  // it rejects gets its deterministic error result here and never reaches
  // the queue; an unresolved job is left to the runner's error path.
  StaticPrecheck Precheck(0, 0, 0);
  for (uint32_t I = 0; I < uint32_t(Jobs.size()); ++I) {
    std::string Reason;
    if (Opts.StaticPrecheck && !Jobs[I].Bytes.empty() &&
        Precheck.reject(Jobs[I], Jobs[I].Bytes, &Reason)) {
      Report.Results[I].Index = Jobs[I].Index;
      Report.Results[I].Error = "static-bounds: " + Reason;
    } else {
      Queue.push(I);
    }
  }
  Pool.join();
  Report.WallMs = nowMs() - T0;
  // Per-worker totals, summed after the join: no synchronization on the
  // hot path.
  for (const std::unique_ptr<Worker> &W : Pool.workers()) {
    const InstancePool::Totals &PT = W->Pool.totals();
    Report.PoolHits += PT.Hits;
    Report.PoolMisses += PT.Misses;
    Report.PoolReturned += PT.Returned;
    Report.DiskEnabled |= W->SawDisk;
  }
  if (S.Cache) {
    CompileCache::Totals T = S.Cache->totals();
    Report.CacheHits = T.Hits;
    Report.CacheMisses = T.Misses;
    Report.CacheSavedNs = T.SavedNs;
    Report.DiskHits = T.DiskHits;
    Report.DiskMisses = T.DiskMisses;
  }
  return Report;
}

BatchReport runBatch(const std::vector<BatchJob> &Jobs, unsigned Workers) {
  BatchOptions Opts;
  Opts.Workers = Workers;
  return runBatch(Jobs, Opts);
}

void printBatchReport(FILE *Out, const std::vector<BatchJob> &Jobs,
                      const BatchReport &Report, bool Stats) {
  // Per-job lines are fully deterministic (no wall times, no rates): the
  // same manifest must print byte-identical job lines for any --jobs=K.
  uint64_t TotalCycles = 0;
  size_t TotalCode = 0, TotalIr = 0;
  uint64_t TotalInsts = 0;
  unsigned Failed = 0, Trapped = 0;
  for (size_t I = 0; I < Report.Results.size(); ++I) {
    const BatchJobResult &R = Report.Results[I];
    const BatchJob &Job = Jobs[I];
    fprintf(Out, "[%u] %s %s", R.Index, Job.Module.c_str(),
            Job.Config.c_str());
    if (!R.Ok) {
      fprintf(Out, " error: %s\n", R.Error.c_str());
      ++Failed;
      continue;
    }
    fprintf(Out, " %s(", Job.Invoke.c_str());
    for (size_t A = 0; A < Job.RawArgs.size(); ++A)
      fprintf(Out, "%s%s", A ? ", " : "", Job.RawArgs[A].c_str());
    fprintf(Out, ")");
    if (R.Trap != TrapReason::None) {
      fprintf(Out, " trap: %s", trapReasonName(R.Trap));
      ++Trapped; // A trap is a result, not an infrastructure failure.
    } else {
      fprintf(Out, " = %s", resultsText(R.Results).c_str());
    }
    fprintf(Out, " cycles=%llu", (unsigned long long)R.ModeledCycles);
    if (Stats)
      fprintf(Out, " module=%zu code=%zu insts=%llu ir=%zu",
              R.Stats.ModuleBytes, R.Stats.CodeBytes,
              (unsigned long long)R.Stats.CodeInsts, R.Stats.IrBytes);
    fprintf(Out, "\n");
    TotalCycles += R.ModeledCycles;
    TotalCode += R.Stats.CodeBytes;
    TotalIr += R.Stats.IrBytes;
    TotalInsts += R.Stats.CodeInsts;
  }
  // Summary lines carry timing and are '#'-prefixed so determinism checks
  // (and scripts) can strip them.
  // "failed" mirrors the CLI exit-code contract (infrastructure failures
  // only); trapped jobs ran to a result and are tallied separately.
  double Secs = Report.WallMs / 1e3;
  fprintf(Out, "# batch: %zu job(s), %u failed, %u trapped, %u worker(s), "
               "%.1f ms, %.1f jobs/s\n",
          Report.Results.size(), Failed, Trapped, Report.Workers,
          Report.WallMs,
          Secs > 0 ? double(Report.Results.size()) / Secs : 0.0);
  fprintf(Out, "# aggregate: %llu modeled cycles, %zu code bytes, %llu "
               "machine insts, %zu threaded-IR bytes\n",
          (unsigned long long)TotalCycles, TotalCode,
          (unsigned long long)TotalInsts, TotalIr);
  // The hit/miss split is scheduling-independent (see BatchReport), but
  // saved-time is wall-clock and rides the '#' prefix like every timing.
  if (Report.CacheEnabled)
    fprintf(Out, "# cache: %llu hits, %llu misses, saved %.1f ms\n",
            (unsigned long long)Report.CacheHits,
            (unsigned long long)Report.CacheMisses,
            double(Report.CacheSavedNs) / 1e6);
  else
    fprintf(Out, "# cache: disabled\n");
  // Disk hits mean artifacts admitted from a previous process's store —
  // the cross-invocation warm-start signal CI asserts on. Deterministic
  // for a fixed manifest + directory state, but timing-adjacent (a warm
  // directory changes it), so it stays behind the stripped '#' prefix.
  if (Report.DiskEnabled)
    fprintf(Out, "# disk: %llu hits, %llu misses\n",
            (unsigned long long)Report.DiskHits,
            (unsigned long long)Report.DiskMisses);
  else
    fprintf(Out, "# disk: disabled\n");
  // Pool counters depend on job-to-worker scheduling (see BatchReport),
  // so they stay behind the stripped '#' prefix too.
  if (Report.PoolEnabled)
    fprintf(Out, "# pool: %llu hits, %llu misses, %llu returned\n",
            (unsigned long long)Report.PoolHits,
            (unsigned long long)Report.PoolMisses,
            (unsigned long long)Report.PoolReturned);
  else
    fprintf(Out, "# pool: disabled\n");
}

} // namespace wisp
