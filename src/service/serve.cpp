//===- service/serve.cpp - serve front end ----------------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "service/serve.h"

#include "service/runtime.h"
#include "support/clock.h"
#include "support/format.h"

#include <cerrno>
#include <csignal>
#include <cstring>

namespace wisp {

namespace {

/// One admitted job flowing reader -> queue -> worker.
struct ServeJob {
  BatchJob Job;
  uint64_t Seq = 0;     ///< Acceptance order; indexes ServeStats latencies.
  double EnqueueMs = 0; ///< Admission timestamp; latency is done - this.
};

/// SIGTERM/SIGINT flag for CLI serve mode. The handlers are installed
/// WITHOUT SA_RESTART so a blocking stdin read returns EINTR and the
/// reader notices the flag instead of waiting for the next job line.
volatile sig_atomic_t GServeStop = 0;

void serveStopHandler(int) { GServeStop = 1; }

} // namespace

ServeStats runServe(FILE *In, FILE *Out, const ServeOptions &Opts) {
  ServeStats Stats;
  unsigned Workers = Opts.Workers ? Opts.Workers : 1;
  size_t QueueCap = Opts.QueueCap ? Opts.QueueCap : size_t(Workers) * 4;
  double T0 = nowMs();

  struct sigaction OldTerm, OldInt;
  if (Opts.InstallSignalHandlers) {
    GServeStop = 0;
    struct sigaction SA;
    memset(&SA, 0, sizeof(SA));
    SA.sa_handler = serveStopHandler;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = 0; // Deliberately no SA_RESTART: interrupt the read.
    sigaction(SIGTERM, &SA, &OldTerm);
    sigaction(SIGINT, &SA, &OldInt);
  }

  CompileCache Cache(CompileCache::configuredCapacityBytes());
  RuntimeSettings S;
  S.Policy = EnginePolicy::WarmPerConfig;
  S.Cache = &Cache;
  S.CacheDir = Opts.CacheDir;
  S.DiskCache = Opts.DiskCache;
  S.DefaultFuel = Opts.DefaultFuel;
  S.DefaultDeadlineMs = Opts.DefaultDeadlineMs;
  S.MaxCallDepth = Opts.MaxCallDepth;
  S.MaxMemoryPages = Opts.MaxMemoryPages;
  S.MaxTableElems = Opts.MaxTableElems;
  S.FaultSeed = Opts.FaultSeed;
  ModuleResolver Modules;
  StaticPrecheck Precheck(Opts.MaxCallDepth, Opts.MaxMemoryPages,
                          Opts.MaxTableElems); // Reader-thread only.
  std::mutex OutMu; // Guards Out, Stats counters and the latency vectors.

  JobQueue<ServeJob> Queue(QueueCap);
  WorkerPool<ServeJob> Pool(S, Workers, Queue, [&](Worker &W, ServeJob &SJ) {
    double Pickup = nowMs();
    BatchJobResult R;
    if (ModuleBytes Bytes = Modules.resolve(SJ.Job.Module, SJ.Job.Scale,
                                            SJ.Job.UseM0, &R.Error))
      R = W.run(SJ.Job, *Bytes);
    std::string Body = !R.Ok ? "error: " + R.Error
                       : R.Trap != TrapReason::None
                           ? strFormat("trap: %s", trapReasonName(R.Trap))
                           : "= " + resultsText(R.Results);
    double Done = nowMs();
    double Latency = Done - SJ.EnqueueMs;
    std::lock_guard<std::mutex> L(OutMu);
    fprintf(Out, "done %s %s ms=%.3f\n", SJ.Job.Id.c_str(), Body.c_str(),
            Latency);
    fflush(Out);
    if (!R.Ok)
      ++Stats.Errors;
    else if (R.Trap != TrapReason::None)
      ++Stats.Trapped;
    else
      ++Stats.Done;
    Stats.LatenciesMs[SJ.Seq] = Latency;
    Stats.ServiceMs[SJ.Seq] = Done - Pickup;
  });

  fprintf(Out, "# serve: ready, %u worker(s), queue cap %zu\n", Workers,
          QueueCap);
  fflush(Out);

  std::string Line;
  Line.reserve(256);
  char Buf[4096];
  while (!(Opts.InstallSignalHandlers && GServeStop)) {
    Line.clear();
    bool Eof = false;
    for (;;) { // Assemble one full line (fgets may split long ones).
      errno = 0;
      if (!fgets(Buf, sizeof(Buf), In)) {
        if (errno == EINTR && !(Opts.InstallSignalHandlers && GServeStop)) {
          clearerr(In);
          continue;
        }
        Eof = true;
        break;
      }
      Line += Buf;
      if (!Line.empty() && Line.back() == '\n') {
        Line.pop_back();
        break;
      }
    }
    if (Eof)
      break;

    // Control lines first — `shutdown` must work even though it is not a
    // resolvable module spec. Comments strip exactly like manifest lines.
    std::vector<std::string> Toks = jobLineTokens(Line);
    if (Toks.empty())
      continue; // Blank or comment-only line.
    if (Toks.size() == 1 && Toks[0] == "shutdown")
      break;

    // Each job line parses as a one-line manifest, so its diagnostics say
    // "manifest line 1".
    ServeJob SJ;
    std::string Err;
    if (!parseJobTokens(Toks, 1, &SJ.Job, &Err)) {
      std::lock_guard<std::mutex> L(OutMu);
      ++Stats.Rejected;
      fprintf(Out, "reject - parse: %s\n", Err.c_str());
      fflush(Out);
      continue;
    }
    // A job without id= is named by its acceptance sequence number. Only
    // this thread writes Stats.Accepted, so it reads it without the lock.
    SJ.Seq = Stats.Accepted; // Tentative; rolled back on shed.
    if (SJ.Job.Id.empty())
      SJ.Job.Id = std::to_string(SJ.Seq);
    // Static admission precheck: a job that provably cannot complete
    // under the session caps is shed here — exactly-once, before it
    // consumes a queue slot or a worker — like a queue-full reject (same
    // id assignment, Rejected counter, no Accepted bump). A spec that
    // does not resolve is left to the worker's error line.
    std::string Reason;
    ModuleBytes Bytes;
    if (Opts.StaticPrecheck &&
        (Bytes = Modules.resolve(SJ.Job.Module, SJ.Job.Scale, SJ.Job.UseM0,
                                 &Err)) &&
        Precheck.reject(SJ.Job, *Bytes, &Reason)) {
      std::lock_guard<std::mutex> L(OutMu);
      ++Stats.Rejected;
      fprintf(Out, "reject %s static-bounds: %s\n", SJ.Job.Id.c_str(),
              Reason.c_str());
      fflush(Out);
      continue;
    }
    std::lock_guard<std::mutex> L(OutMu);
    SJ.EnqueueMs = nowMs();
    std::string Id = SJ.Job.Id;
    Stats.LatenciesMs.push_back(0);
    Stats.ServiceMs.push_back(0);
    if (Queue.tryPush(std::move(SJ))) {
      ++Stats.Accepted;
    } else {
      Stats.LatenciesMs.pop_back();
      Stats.ServiceMs.pop_back();
      ++Stats.Rejected;
      fprintf(Out, "reject %s queue-full\n", Id.c_str());
      fflush(Out);
    }
  }

  // Drain: stop admission, let the workers finish every accepted job.
  Pool.join();
  for (const std::unique_ptr<Worker> &W : Pool.workers())
    Stats.Faults += W->Faults;

  if (Opts.InstallSignalHandlers) {
    sigaction(SIGTERM, &OldTerm, nullptr);
    sigaction(SIGINT, &OldInt, nullptr);
  }

  Stats.WallMs = nowMs() - T0;
  double Secs = Stats.WallMs / 1e3;
  fprintf(Out,
          "# serve: drained, %llu accepted, %llu rejected, %llu done, "
          "%llu trapped, %llu errors, %llu faults, %u worker(s), %.1f ms, "
          "%.1f jobs/s\n",
          (unsigned long long)Stats.Accepted,
          (unsigned long long)Stats.Rejected, (unsigned long long)Stats.Done,
          (unsigned long long)Stats.Trapped,
          (unsigned long long)Stats.Errors, (unsigned long long)Stats.Faults,
          Workers, Stats.WallMs,
          Secs > 0 ? double(Stats.Accepted) / Secs : 0.0);
  fflush(Out);
  return Stats;
}

} // namespace wisp
