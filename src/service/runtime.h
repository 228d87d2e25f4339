//===- service/runtime.h - the shared job runtime ---------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one job runtime behind both service front ends. Batch (batch.h)
/// admits a whole manifest up front and reports in manifest order; serve
/// (serve.h) admits one line at a time, sheds when full and reports in
/// completion order. Everything behind that is here, once: the job-line
/// parser, the bounded queue, the module resolver, the static-precheck
/// memo and the worker pool whose workers run every job through one
/// runner (load, bind, invoke, recycle).
///
/// The engine a job runs on is fixed by the mode, never by a user option
/// (see EnginePolicy). Internal to src/service/.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_SERVICE_RUNTIME_H
#define WISP_SERVICE_RUNTIME_H

#include "service/batch.h"
#include "suites/suites.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace wisp {

/// Strips a '#' comment from a manifest or serve line and splits the rest
/// into whitespace-separated tokens.
std::vector<std::string> jobLineTokens(const std::string &Line);

/// Parses the tokens of one job line (module spec first) into \p Job,
/// resolving tier=/config= to a registry name. Leaves Index at 0 and Id
/// empty unless id= is given. Returns false with a "<\p Source> line
/// \p LineNo: ..." diagnostic in \p Err on malformed input (Source is
/// "manifest" for batch files, "serve" for serve's stdin).
bool parseJobTokens(const std::vector<std::string> &Toks, uint32_t LineNo,
                    BatchJob *Job, std::string *Err, const char *Source);

/// Renders a result list the way report lines print it: "<void>" or
/// comma-separated valueText()s.
std::string resultsText(const std::vector<Value> &Results);

/// A bounded MPMC queue. push() blocks while the queue is full (batch
/// backpressure); tryPush() fails instead (serve load shedding). pop()
/// blocks until an item arrives, and returns false once the queue is
/// closed and empty.
template <class T> class JobQueue {
public:
  explicit JobQueue(size_t Cap) : Cap(Cap ? Cap : 1) {}

  void push(T V) {
    std::unique_lock<std::mutex> L(Mu);
    NotFull.wait(L, [&] { return Q.size() < Cap; });
    Q.push_back(std::move(V));
    NotEmpty.notify_one();
  }

  bool tryPush(T V) {
    std::lock_guard<std::mutex> L(Mu);
    if (Closed || Q.size() >= Cap)
      return false;
    Q.push_back(std::move(V));
    NotEmpty.notify_one();
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> L(Mu);
    Closed = true;
    NotEmpty.notify_all();
  }

  bool pop(T *Out) {
    std::unique_lock<std::mutex> L(Mu);
    NotEmpty.wait(L, [&] { return !Q.empty() || Closed; });
    if (Q.empty())
      return false;
    *Out = std::move(Q.front());
    Q.pop_front();
    NotFull.notify_one();
    return true;
  }

private:
  std::mutex Mu;
  std::condition_variable NotEmpty, NotFull;
  std::deque<T> Q;
  size_t Cap;
  bool Closed = false;
};

using ModuleBytes = std::shared_ptr<const std::vector<uint8_t>>;

/// Resolves module specs to bytes: a regular file wins, then "nop", then
/// an embedded suite item ("suite/name", or a bare name if unambiguous).
/// A regular file that readFile refuses (above MaxReadFileBytes, or a read
/// error) is a failure, not a fall-through to the suite names.
/// Each distinct (spec, scale, m0) resolves once and every suite is
/// generated once per scale, so repeat specs cost one map lookup.
/// Failures are not memoized. Thread-safe.
class ModuleResolver {
public:
  /// The spec's bytes, or null with a diagnostic in \p Err. \p Unknown,
  /// if given, is set when the spec named neither a file nor a suite item.
  ModuleBytes resolve(const std::string &Spec, int Scale, bool UseM0,
                      std::string *Err, bool *Unknown = nullptr);

private:
  /// The suite item \p Spec names at \p Scale, generating the suites on
  /// first use of the scale. Caller holds Mu.
  const LineItem *findItem(const std::string &Spec, int Scale,
                           std::string *Err, bool *Unknown);

  std::mutex Mu;
  std::map<int, std::vector<LineItem>> Suites;
  std::map<std::string, ModuleBytes> Specs;
};

/// The static admission precheck: decides once per (module, scale, m0,
/// invoke) whether a job's analyzer-inferred bounds prove it cannot
/// complete under the caps (0 = the engine default), so repeat jobs cost
/// one map lookup. A module that fails to decode or validate is not
/// rejected here: the runner reports that error. Single-threaded; each
/// front end calls it from its admission thread.
class StaticPrecheck {
public:
  StaticPrecheck(uint32_t MaxCallDepth, uint32_t MaxMemoryPages,
                 uint32_t MaxTableElems)
      : MaxCallDepth(MaxCallDepth), MaxMemoryPages(MaxMemoryPages),
        MaxTableElems(MaxTableElems) {}

  /// True, with the reason in \p Reason, if \p Job must be rejected.
  bool reject(const BatchJob &Job, const std::vector<uint8_t> &Bytes,
              std::string *Reason);

private:
  uint32_t MaxCallDepth, MaxMemoryPages, MaxTableElems;
  std::map<std::string, std::pair<bool, std::string>> Memo;
};

/// Which engine runs a job. Fixed by the mode, never a user option.
enum class EnginePolicy {
  /// A fresh engine per job, governed only by the job's own keys (batch):
  /// the paper's fresh-VM-per-item methodology. An engine's modeled-cycle
  /// counters accumulate over every invoke it runs, and a governed engine
  /// compiles check sites that cost cycles, so only this policy makes
  /// cycles= the cost of the job alone, whatever ran before it on that
  /// worker. The shared compile cache and instance pool hand out
  /// content-identical artifacts and re-imaged instances, which do not
  /// change it.
  FreshPerJob,
  /// One warm engine per (worker, configuration), constructed governed so
  /// fuel/deadline check sites are compiled into every artifact and
  /// per-job budgets only flip Engine::setGovernance (serve).
  WarmPerConfig,
};

/// What every worker of one session shares.
struct RuntimeSettings {
  EnginePolicy Policy = EnginePolicy::FreshPerJob;
  CompileCache *Cache = nullptr; ///< Session compile cache; null = none.
  bool PoolInstances = true;     ///< Recycle through per-worker pools.
  std::string CacheDir;          ///< engine/engine.h DiskCacheDir.
  bool DiskCache = true;
  /// Governance for jobs without fuel= / deadline-ms= keys (0 = off).
  uint64_t DefaultFuel = 0;
  uint32_t DefaultDeadlineMs = 0;
  /// Resource caps (0 = engine default).
  uint32_t MaxCallDepth = 0;
  uint32_t MaxMemoryPages = 0;
  uint32_t MaxTableElems = 0;
  /// Non-zero enables deterministic fault injection (serve.h).
  uint64_t FaultSeed = 0;
};

/// One worker thread's state, kept across all of its jobs.
class Worker {
public:
  Worker(const RuntimeSettings &S, unsigned Index);

  /// Runs \p Job on \p Bytes: picks the engine per the session's policy,
  /// applies governance and any injected fault, then load, bind, invoke
  /// and recycle.
  BatchJobResult run(const BatchJob &Job, const std::vector<uint8_t> &Bytes);

  InstancePool Pool;
  bool SawDisk = false; ///< A job engine opened the disk level.
  uint64_t Faults = 0;  ///< Jobs perturbed by fault injection.

private:
  const RuntimeSettings &S;
  std::map<std::string, std::unique_ptr<Engine>> Warm;
  uint64_t Lcg = 0; ///< Fault-injection stream; 0 = injection off.
};

/// The worker pool: \p N threads, each owning one Worker, call \p Handle
/// for every item popped from the queue until it is closed and drained.
/// The destructor closes the queue and joins, so no thread outlives the
/// state the handler refers to.
template <class T> class WorkerPool {
public:
  using Handler = std::function<void(Worker &, T &)>;

  WorkerPool(const RuntimeSettings &S, unsigned N, JobQueue<T> &Q,
             Handler Handle)
      : Q(Q), Handle(std::move(Handle)) {
    for (unsigned I = 0; I < N; ++I)
      Workers.push_back(std::make_unique<Worker>(S, I));
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([this, I] {
        T Item;
        while (this->Q.pop(&Item))
          this->Handle(*Workers[I], Item);
      });
  }
  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;
  ~WorkerPool() { join(); }

  /// Closes the queue and waits until every admitted item is handled.
  void join() {
    Q.close();
    for (std::thread &Th : Threads)
      if (Th.joinable())
        Th.join();
  }

  /// Per-worker state; read it only after join().
  const std::vector<std::unique_ptr<Worker>> &workers() const {
    return Workers;
  }

private:
  JobQueue<T> &Q;
  Handler Handle;
  std::vector<std::unique_ptr<Worker>> Workers;
  std::vector<std::thread> Threads;
};

} // namespace wisp

#endif // WISP_SERVICE_RUNTIME_H
