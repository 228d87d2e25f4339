//===- perfbench/src/bench.h - shared pieces of the SQ-space benchmark -----===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's phases: the prepared inputs (suite
/// items with their reference results), the failure ledger, the metric
/// sink that renders the final JSON line, order statistics, the
/// in-memory span recorder used by traced runs, and the machine-speed
/// scale every reported host time carries.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_PERFBENCH_BENCH_H
#define WISP_PERFBENCH_BENCH_H

#include "engine/engine.h"
#include "runtime/value.h"
#include "support/clock.h"
#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using wisp::nowNs;

/// The six tiers of the paper's SQ-space, as registry configuration names:
/// in-place interpreter, threaded interpreter, single-pass, copy-and-patch,
/// two-pass and optimizing.
inline const std::vector<std::string> &sixTiers() {
  static const std::vector<std::string> T = {
      "wizard-int", "interp-threaded", "wizard-spc",
      "wasm-now",   "wazero",          "wasmtime"};
  return T;
}

/// One suite item plus everything set-up derives from it.
struct Item {
  std::string Name;             ///< "suite/item".
  std::vector<uint8_t> Bytes;   ///< Full `run` module.
  std::vector<uint8_t> M0Bytes; ///< Early-return variant.
  wisp::Value Ref;              ///< `run` result on the in-place interpreter.
  wisp::Value RefM0;            ///< Same for the m0 variant.
  std::string Path;             ///< Full module written for serve jobs.
};

/// What set-up prepares; shared read-only by every phase.
struct Inputs {
  std::vector<Item> Items;
  std::string DiskDir; ///< Disk-cache level populated by set-up.
};

/// Operations attempted and failed across the run. Every failure keeps a
/// one-line reason (the first few are printed to stderr).
struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Reasons;

  void ok() { ++Attempted; }
  void fail(const std::string &Why) {
    ++Attempted;
    ++Failed;
    if (Reasons.size() < 16)
      Reasons.push_back(Why);
  }
};

/// Named metrics in insertion order, rendered as the result line.
class Metrics {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, Unit, Value});
  }
  bool finite() const;
  std::string json() const;

private:
  struct Row {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Row> Rows;
};

/// Nearest-rank percentile (P in [0, 1]) of \p V; 0 for no samples.
inline double percentile(const std::vector<double> &Samples, double P) {
  if (Samples.empty())
    return 0;
  std::vector<double> V = Samples;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 0.5);
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

/// Fisher-Yates shuffle driven by the workload seed.
template <typename T> void shuffle(std::vector<T> &V, wisp::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

inline bool sameValue(const wisp::Value &A, const wisp::Value &B) {
  return A.Type == B.Type && A.Bits == B.Bits;
}

/// In-memory span recorder for traced runs. Spans nest through a parent
/// index; each carries the request (item/job) id it serves. Recording is
/// single-threaded: only the benchmark's own thread opens spans.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Start = 0, End = 0;
    int32_t Parent = -1;
    uint64_t Req = 0;
  };

  /// Opens a span on construction and closes it on destruction; does
  /// nothing while tracing is off.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Req) : T(T) {
      if (!T.On)
        return;
      Idx = int32_t(T.Spans.size());
      T.Spans.push_back({Name, nowNs(), 0, T.Open, Req});
      T.Open = Idx;
    }
    ~Scope() {
      if (Idx < 0)
        return;
      T.Spans[size_t(Idx)].End = nowNs();
      T.Open = T.Spans[size_t(Idx)].Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Idx = -1;
  };

  /// Records an already-measured interval as a child of the open span.
  void record(const char *Name, uint64_t Start, uint64_t End, uint64_t Req) {
    if (On)
      Spans.push_back({Name, Start, End, Open, Req});
  }

  /// Total and self (duration minus covered child time) nanoseconds of
  /// every span named \p Name.
  std::pair<uint64_t, uint64_t> totals(const char *Name) const;

  /// Writes every span as one JSON object per line, then per-name totals.
  bool write(const std::string &Path) const;

  bool On = false;
  std::vector<Span> Spans;

private:
  int32_t Open = -1;
};

/// Per-item rows of a traced run (kept out of the named metrics).
struct ItemRow {
  std::string Item, Config, Metric;
  double Value;
};

/// The fixed machine-speed reference job (perfbench/src/calib.cpp).
class ReferenceJob {
public:
  /// Builds the job's tables and writes its files under \p Dir.
  bool init(const std::string &Dir);
  /// Runs the job once; returns its host time in ns.
  double runNs();

private:
  std::vector<uint8_t> Code;
  std::vector<uint32_t> Mem;
  std::vector<std::string> Paths;
  volatile uint64_t Sink = 0;
};

/// Everything one run carries between phases.
struct Run {
  Inputs In;
  wisp::Rng Rand;
  Ledger L;
  Metrics M;
  Tracer T;
  std::vector<ItemRow> Rows;
  /// Set when a count that must repeat exactly did not: the run reports
  /// no result.
  std::string Fatal;
  /// Every host time is multiplied by Scale before it is recorded (see
  /// measureSpeed); RefNs keeps each reference-job time taken.
  ReferenceJob Ref;
  double Scale = 1;
  std::vector<double> RefNs;
  explicit Run(uint64_t Seed) : Rand(Seed) {}
};

/// The reference job's time on the reference machine. A host time
/// multiplied by ReferenceJobNs over the job's recent time on this machine
/// reads as it would on the reference machine.
constexpr double ReferenceJobNs = 2.5e6;

/// How many of the latest reference-job times the speed is the median of:
/// one run of the job is a noisy reading of a speed that drifts over
/// seconds and minutes.
constexpr int SpeedWindow = 5;

/// Runs the reference job, keeps its time in R.RefNs, and sets R.Scale to
/// ReferenceJobNs over the median of the last SpeedWindow times: host
/// times taken until the next call are scaled to the reference machine's
/// speed.
void measureSpeed(Run &R);

/// A registry configuration with the benchmark's fixed settings: no
/// artifact verification (a debug-build default) and no disk level.
wisp::EngineConfig configFor(const std::string &Name);

struct LoadOutcome {
  bool Ok = false;
  std::string Error;
  wisp::Value Result;
  wisp::LoadStats Stats;
};

/// Loads \p Bytes in a fresh engine and invokes `run` once.
LoadOutcome loadAndRun(const wisp::EngineConfig &Cfg,
                       const std::vector<uint8_t> &Bytes,
                       wisp::CompileCache *Cache);

/// One of the three phases. The run interleaves their units (a startup
/// pass, an exec round, a serve stretch; each a second or less) across its
/// whole length, so slow drift of the machine's speed reaches every metric
/// alike. With SplitTrace (the named phase of a traced run) a phase
/// alternates untraced and traced units and adds trace.overhead_pct.
class Phase {
public:
  virtual ~Phase() = default;
  /// Runs one unit.
  virtual void step() = 0;
  /// True once the phase has the samples its metrics need.
  virtual bool enough() const = 0;
  /// Adds the phase's metrics to the run.
  virtual void finish() = 0;
};

std::unique_ptr<Phase> startupPhase(Run &R, bool SplitTrace);
std::unique_ptr<Phase> execPhase(Run &R, bool SplitTrace);
/// Traced runs only (its figures are per-layer metrics); never split.
std::unique_ptr<Phase> servePhase(Run &R);
/// Traced runs only: times the public entry points of every src/ layer on
/// the same inputs and adds the per-layer metrics.
void layerSweep(Run &R);

} // namespace pb

#endif // WISP_PERFBENCH_BENCH_H
