//===- service/serve.h - persistent service mode ----------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve front end of the service job runtime (service/runtime.h):
/// `wisp --serve` reads jobs from stdin (one batch-manifest line per job,
/// see service/batch.h) and answers each with exactly one protocol line on
/// stdout, staying resident between jobs. Where batch runs each job on a
/// fresh Engine, serve keeps the expensive state warm: one engine per
/// (worker, configuration) — constructed governed so fuel and deadline
/// check sites are baked into every compiled artifact — a serve-local
/// compile cache shared by every worker, and a per-worker instance pool,
/// so steady-state jobs pay invoke cost, not compile cost.
///
/// Admission is bounded: the reader thread never blocks on workers. When
/// the job queue is full the job is shed with a structured reject line
/// instead of being queued, so a slow worker pool degrades into explicit
/// load-shedding rather than unbounded buffering. Shutdown is graceful:
/// EOF, a `shutdown` control line, or SIGTERM (CLI mode) stop admission,
/// drain the queue, and report every accepted job exactly once before the
/// summary prints.
///
/// Protocol, one line per event (every line is flushed immediately):
///   done <id> = <values> ms=<latency>       job ran to completion
///   done <id> trap: <reason> ms=<latency>   job trapped (a result!)
///   done <id> error: <detail> ms=<latency>  job failed to load/resolve
///   reject <id> queue-full                  shed by admission control
///   reject - parse: <detail>                malformed job line
///   # ...                                   summary/diagnostic chatter
///
/// Fault injection (stress harness, WISP_FAULT_SEED in the CLI): a
/// deterministic per-worker generator perturbs ~3/8 of jobs with a tiny
/// fuel budget, an injected allocation failure, or a concurrent cancel —
/// the exactly-once reporting contract must hold regardless.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_SERVICE_SERVE_H
#define WISP_SERVICE_SERVE_H

#include "service/batch.h"

#include <cstdio>
#include <vector>

namespace wisp {

/// Configuration for one serve session.
struct ServeOptions {
  unsigned Workers = 1;
  /// Bounded job-queue capacity; 0 means 4x the worker count. Admission
  /// beyond this sheds (reject line), it never blocks the reader.
  size_t QueueCap = 0;
  /// Session-wide governance defaults, applied to any job whose manifest
  /// line does not carry its own fuel= / deadline-ms= key (0 = off).
  uint64_t DefaultFuel = 0;
  uint32_t DefaultDeadlineMs = 0;
  /// Session-wide resource caps (0 = engine default / unlimited); see the
  /// governance block in engine/engine.h.
  uint32_t MaxCallDepth = 0;
  uint32_t MaxMemoryPages = 0;
  uint32_t MaxTableElems = 0;
  /// Static admission precheck: a job whose analyzer-inferred bounds prove
  /// it cannot complete under the session caps (declared memory/table
  /// minima over the caps, or a guaranteed call depth over MaxCallDepth)
  /// is shed at admission with `reject <id> static-bounds: <reason>` —
  /// exactly-once, before it consumes a queue slot or a worker. Decisions
  /// are memoized per (module, scale, m0, invoke). --no-static-precheck
  /// disables.
  bool StaticPrecheck = true;
  /// Root of the persistent on-disk artifact cache shared by the session's
  /// warm engines (engine/engine.h DiskCacheDir). Empty defers to the
  /// WISP_CACHE_DIR environment variable; unset both and no disk level
  /// opens. The CLI passes --cache-dir through here.
  std::string CacheDir;
  /// Gate for the disk level (`wisp --no-disk-cache`).
  bool DiskCache = true;
  /// Non-zero enables deterministic fault injection (see \file comment).
  uint64_t FaultSeed = 0;
  /// Let SIGTERM/SIGINT stop admission and drain (CLI mode). Off by
  /// default so in-process embedders (tests, benchmarks) never touch
  /// process-wide signal state.
  bool InstallSignalHandlers = false;
};

/// What a serve session did, for the CLI summary line and the benchmark.
struct ServeStats {
  uint64_t Accepted = 0; ///< Enqueued; each produced exactly one done line.
  uint64_t Rejected = 0; ///< Shed by admission control or malformed.
  uint64_t Done = 0;     ///< Completed with a value result.
  uint64_t Trapped = 0;  ///< Completed with a trap result.
  uint64_t Errors = 0;   ///< Completed with a load/resolve error.
  uint64_t Faults = 0;   ///< Fault-injection perturbations applied.
  double WallMs = 0;
  /// Per-job end-to-end latency (admission to done line, queue wait
  /// included), indexed by acceptance order.
  std::vector<double> LatenciesMs;
  /// Per-job service time (worker pickup to done line, queue wait
  /// excluded), same indexing — the benchmark derives p50/p99 and the
  /// cold-vs-warm split from this, since queue wait under an open-loop
  /// submitter only measures the submitter.
  std::vector<double> ServiceMs;
};

/// Runs a serve session: reads job lines from \p In until EOF, a
/// `shutdown` line, or (with InstallSignalHandlers) SIGTERM/SIGINT; writes
/// protocol lines to \p Out; drains, joins the workers, prints the `#`
/// summary and returns the stats. The caller's thread is the reader.
ServeStats runServe(FILE *In, FILE *Out, const ServeOptions &Opts);

} // namespace wisp

#endif // WISP_SERVICE_SERVE_H
