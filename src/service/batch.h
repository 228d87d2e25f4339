//===- service/batch.h - parallel batch runner ------------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch front end of the service job runtime (service/runtime.h): a
/// manifest (one job per line: a module spec plus per-job
/// tier/config/invoke/scale overrides) is parsed and resolved up front,
/// its jobs run across a worker pool on a fresh Engine each, the paper's
/// fresh-VM-per-item methodology, and the report lists per-job results in
/// manifest order, independent of worker count and scheduling. Serve mode
/// (service/serve.h) is the other front end over the same runtime; see
/// DESIGN.md "The job runtime" and the engine thread-safety contract in
/// engine/engine.h.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_SERVICE_BATCH_H
#define WISP_SERVICE_BATCH_H

#include "engine/engine.h"

#include <cstdio>
#include <string>
#include <vector>

namespace wisp {

/// One job of a batch manifest.
struct BatchJob {
  uint32_t Index = 0;    ///< Manifest position; fixes the report order.
  uint32_t Line = 0;     ///< Manifest line number (diagnostics).
  std::string Module;    ///< "suite/item", bare item, "nop", or .wasm path.
  std::string Config;    ///< Registry configuration name (resolved).
  std::string Invoke = "run";
  int Scale = 1;
  bool UseM0 = false;
  std::vector<std::string> RawArgs; ///< Parsed against the export signature.
  std::vector<uint8_t> Bytes;       ///< Resolved module bytes.
  /// Client-chosen job id echoed on serve-mode report lines (id= key;
  /// defaults to the manifest index rendered in decimal).
  std::string Id;
  /// Per-job governance (fuel= / deadline-ms= keys): 0 means unmetered /
  /// no deadline. Enforced identically by the batch runner and serve mode.
  uint64_t Fuel = 0;
  uint32_t DeadlineMs = 0;
};

/// Deterministic observation of one executed job. Deliberately carries no
/// per-job wall time: everything here is scheduling-independent, which is
/// what makes the per-job report lines byte-identical across worker
/// counts (batch-level wall time lives on BatchReport).
struct BatchJobResult {
  uint32_t Index = 0;
  bool Ok = false;          ///< Loaded, export found, args parsed, ran.
  std::string Error;        ///< Load/lookup/parse failure description.
  TrapReason Trap = TrapReason::None;
  std::vector<Value> Results;
  uint64_t ModeledCycles = 0;
  LoadStats Stats;
};

/// An executed batch: per-job results in manifest order plus aggregates.
struct BatchReport {
  std::vector<BatchJobResult> Results;
  unsigned Workers = 0;
  double WallMs = 0; ///< End-to-end batch wall time.
  /// Aggregate compile-cache counters for the batch-local cache. The
  /// hit/miss split is deterministic for a fixed manifest regardless of
  /// worker count or scheduling: the cache builds each distinct key
  /// exactly once, so Misses == distinct artifacts and Hits is the rest.
  /// (The per-job split in BatchJobResult::Stats is NOT deterministic —
  /// which job pays each miss depends on scheduling — which is why the
  /// per-job report lines never print it.)
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheSavedNs = 0;
  bool CacheEnabled = false;
  /// Aggregate on-disk artifact-cache counters (cache/diskcache.h),
  /// summed like the in-process split above: disk hits are artifacts
  /// admitted from a previous process's store instead of built.
  uint64_t DiskHits = 0;
  uint64_t DiskMisses = 0;
  /// A job engine opened the disk level (Engine::disk()); false when no
  /// directory was configured or none could be opened.
  bool DiskEnabled = false;
  /// Aggregate instance-pool counters summed over the per-worker pools.
  /// NOT deterministic across worker counts (which jobs land on which
  /// worker decides which loads hit a warm pool), so these ride the
  /// '#'-prefixed summary lines that determinism checks strip.
  uint64_t PoolHits = 0;
  uint64_t PoolMisses = 0;
  uint64_t PoolReturned = 0;
  bool PoolEnabled = false;
};

/// Execution options for a batch.
struct BatchOptions {
  unsigned Workers = 1;
  /// Share one content-addressed compile cache across the worker pool:
  /// content-identical modules/bodies under identical configurations
  /// decode/compile once per batch instead of once per job. The cache is
  /// batch-local (not the process-wide one) so reports are reproducible.
  bool CompileCache = true;
  /// Keep one instance pool per worker thread, reused across that
  /// worker's jobs: a job whose module was already retired by an earlier
  /// job on the same worker re-images the retired instance in place
  /// instead of allocating and replaying segments. Pools are per-worker
  /// (engines and instances are single-threaded; see engine/engine.h),
  /// so no job ever observes another worker's instance.
  bool PoolInstances = true;
  /// Static admission precheck: jobs whose analyzer-inferred bounds prove
  /// they cannot complete under the effective caps (batch mode runs with
  /// engine defaults) are answered with an "error: static-bounds: ..."
  /// result at admission instead of being scheduled and run to the trap.
  /// The CLI exposes --no-static-precheck to turn this off.
  bool StaticPrecheck = true;
  /// Root of the persistent on-disk artifact cache shared by every job
  /// engine (engine/engine.h DiskCacheDir). Empty defers to the
  /// WISP_CACHE_DIR environment variable; unset both and no disk level
  /// opens. The CLI passes --cache-dir through here.
  std::string CacheDir;
  /// Gate for the disk level (`wisp --no-disk-cache`).
  bool DiskCache = true;
};

/// Parses manifest text: one job per non-empty, non-comment line,
///   <module> [tier=T|config=NAME] [invoke=NAME] [scale=N] [m0]
///            [args=v1,v2,...] [id=NAME] [fuel=N] [deadline-ms=N]
/// Returns false and a line-numbered diagnostic in \p Err on malformed
/// input (unknown key, tier+config conflict, bad scale, unknown
/// tier/config). Module bytes are *not* resolved here.
bool parseBatchManifest(const std::string &Text,
                        std::vector<BatchJob> *Out, std::string *Err);

/// Resolves every job's module spec to bytes (regular file, "nop", or
/// embedded suite item at the job's scale/m0). Returns false and a
/// line-numbered diagnostic on the first unresolvable spec.
bool resolveBatchModules(std::vector<BatchJob> *Jobs, std::string *Err);

/// Runs \p Jobs per \p Opts. Each worker pulls job indexes from a bounded
/// queue and executes every job in a private Engine (no engine, thread, or
/// loaded module is ever shared between workers — see the thread-safety
/// contract in engine/engine.h; with Opts.CompileCache the workers share
/// exactly one thing: the internally-synchronized batch-local compile
/// cache, through which identical bodies compile once per batch). The
/// result vector is indexed by manifest position, so the report is
/// byte-identical for any worker count and for cache on/off.
BatchReport runBatch(const std::vector<BatchJob> &Jobs,
                     const BatchOptions &Opts);

/// Convenience overload: \p Workers threads, compile cache enabled.
BatchReport runBatch(const std::vector<BatchJob> &Jobs, unsigned Workers);

/// Prints the report to \p Out: one deterministic line per job (manifest
/// order), then '#'-prefixed summary lines (wall time, throughput,
/// aggregate LoadStats) that a determinism check should filter out.
/// \p Stats adds per-job deterministic size statistics.
void printBatchReport(FILE *Out, const std::vector<BatchJob> &Jobs,
                      const BatchReport &Report, bool Stats);

/// Parses \p Text as a \p Ty value (i32/i64 decimal or 0x-hex with full
/// unsigned/signed range, f32/f64 decimal). Shared by the CLI and the
/// manifest args= key.
bool parseValueText(const std::string &Text, ValType Ty, Value *Out);

/// Renders \p V the way the CLI prints results ("252:i32").
std::string valueText(Value V);

/// The call step every job shares with the CLI: looks up export \p Invoke
/// in \p LM and parses \p RawArgs against its signature into \p Args.
/// Returns false with a diagnostic in \p Err (no such export, arity
/// mismatch, unparsable argument).
bool bindCall(LoadedModule &LM, const std::string &Invoke,
              const std::vector<std::string> &RawArgs,
              std::vector<Value> *Args, std::string *Err);

/// Resolves one module spec the way every job does: a regular file wins,
/// then "nop", then "suite/item" (or a bare item name if unambiguous).
/// Prints nothing; returns false with \p Err describing why.
bool resolveModuleSpec(const std::string &Spec, int Scale, bool UseM0,
                       std::vector<uint8_t> *Out, std::string *Err);

/// Maps a tier shorthand (CLI --tier / manifest tier=) to its registry
/// configuration name, or nullptr for an unknown tier.
const char *tierToConfigName(const std::string &Tier);

} // namespace wisp

#endif // WISP_SERVICE_BATCH_H
