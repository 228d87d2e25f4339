//===- perfbench/src/serve.cpp - the serve phase ---------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// An open-loop job stream fed to one runServe session (2 workers, the
// default admission queue) through a pipe. This thread is the generator
// and the collector: it writes each job line at its due time, drawn from
// a seeded Poisson schedule, and reads the protocol lines while it waits.
// Latency runs from a job's due time to the arrival of its done line, so
// a stall also charges the jobs queued behind it. Threads: this one, the
// runServe reader and the two workers.
//
// The stream is a sequence of stretches, each drained before the next: a
// warm-up that sends every (item, tier) pair twice, then reference chunks
// at ReferenceRate alternating with one stretch per rung of a fixed rate
// ladder, then reference chunks only. A stretch meets the
// limit when its p99 latency, with rejected jobs counted as missing it,
// is at most LimitMs -- equivalently, when at most 1% of its jobs miss --
// and its last answer comes within LimitMs of its last due time (no
// backlog left). serve_max_jps is where the miss share crosses 1%,
// interpolated between the rungs that bracket it: a single rung verdict
// rests on ~8 misses and flips from run to run, while the crossing point
// moves smoothly.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "service/batch.h"
#include "service/serve.h"

#include <cerrno>
#include <cstdlib>
#include <fcntl.h>
#include <poll.h>
#include <thread>
#include <unistd.h>

using namespace wisp;

namespace pb {

namespace {

/// Tier keys of the job lines: baseline JIT, threaded interpreter, tiered
/// and optimizing.
const char *const JobTiers[] = {"tier=spc", "tier=threaded",
                                "config=wizard-tiered", "tier=opt"};
constexpr uint32_t NumJobTiers = 4;

constexpr double ReferenceRate = 200; // jobs/s
constexpr double LimitMs = 50;         // p99 latency limit.
constexpr double Ladder[] = {500, 630, 800, 1000, 1250, 1600}; // jobs/s
constexpr size_t RungJobs = 400; // Per visit; the ladder is visited twice.
constexpr size_t ChunkJobs = 200; // Reference jobs per step.
constexpr size_t MinReferenceJobs = 1000; // p99 has 10 samples beyond it.

struct Job {
  uint32_t Item = 0, Tier = 0;
  uint64_t Due = 0, Sent = 0, Done = 0;
  bool Answered = false, Rejected = false;
};

/// Latency verdict of one stretch of the stream.
struct Verdict {
  std::vector<double> Ms; ///< Due -> done, answered jobs only.
  size_t Rejected = 0;
  double DrainMs = 0; ///< Last answer after the last due time.
  /// Share of jobs that missed LimitMs (rejections included); 1 when a
  /// backlog was left.
  double missShare() const {
    if (DrainMs > LimitMs)
      return 1;
    size_t Late = size_t(std::count_if(Ms.begin(), Ms.end(),
                                       [](double X) { return X > LimitMs; }));
    return double(Late + Rejected) / double(Ms.size() + Rejected);
  }
};

/// The rate at which the miss share crosses 1%: rates ascend, shares are
/// first made non-decreasing (pool adjacent violators), then interpolated
/// linearly in log(rate). 0 when even the first rate misses.
double crossing(const std::vector<double> &Rates, std::vector<double> Miss) {
  std::vector<std::pair<double, size_t>> Blocks; // (mean, count)
  for (double M : Miss) {
    Blocks.push_back({M, 1});
    while (Blocks.size() > 1 &&
           Blocks[Blocks.size() - 2].first > Blocks.back().first) {
      auto [M2, N2] = Blocks.back();
      Blocks.pop_back();
      auto &[M1, N1] = Blocks.back();
      M1 = (M1 * double(N1) + M2 * double(N2)) / double(N1 + N2);
      N1 += N2;
    }
  }
  Miss.clear();
  for (auto [M, N] : Blocks)
    Miss.insert(Miss.end(), N, M);
  if (Miss[0] > 0.01)
    return 0;
  for (size_t I = 1; I < Rates.size(); ++I)
    if (Miss[I] > 0.01) {
      double T = (0.01 - Miss[I - 1]) / (Miss[I] - Miss[I - 1]);
      return std::exp(std::log(Rates[I - 1]) +
                      T * (std::log(Rates[I]) - std::log(Rates[I - 1])));
    }
  return Rates.back();
}

/// One runServe session behind two pipes.
class Session {
public:
  explicit Session(Run &R) : R(R) {
    int InP[2], OutP[2];
    if (pipe2(InP, O_CLOEXEC) != 0 || pipe2(OutP, O_CLOEXEC) != 0) {
      R.Fatal = "serve: cannot create pipes";
      return;
    }
    WriteFd = InP[1];
    ReadFd = OutP[0];
    fcntl(ReadFd, F_SETFL, fcntl(ReadFd, F_GETFL) | O_NONBLOCK);
    fcntl(WriteFd, F_SETFL, fcntl(WriteFd, F_GETFL) | O_NONBLOCK);
    FILE *In = fdopen(InP[0], "r");
    FILE *Out = fdopen(OutP[1], "w");
    ServeOptions Opts;
    Opts.Workers = 2;
    Reader = std::thread([this, In, Out, Opts] {
      Stats = runServe(In, Out, Opts);
      fclose(In);
      fclose(Out); // EOF tells the collector the session is over.
    });
    for (const Item &It : R.In.Items)
      Expect.push_back("= " + valueText(It.Ref) + " ms=");
  }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  ~Session() {
    if (WriteFd >= 0)
      close(WriteFd);
    if (Reader.joinable()) {
      while (pump(nullptr)) {
      }
      Reader.join();
    }
    if (ReadFd >= 0)
      close(ReadFd);
  }

  /// Sends Jobs[First, First + Count) at the given rate, then waits until
  /// every one is answered. Returns the stretch's verdict.
  Verdict stretch(size_t First, size_t Count, double Rate, uint64_t Req) {
    Tracer::Scope S(R.T, "serve.stretch", Req);
    uint64_t Due = nowNs() + 2000000;
    for (size_t J = First; J < First + Count; ++J) {
      Jobs[J].Due = Due;
      Due += uint64_t(-std::log(1.0 - double(R.Rand.next() >> 11) * 0x1p-53) /
                      Rate * 1e9);
    }
    for (size_t J = First; J < First + Count && R.Fatal.empty(); ++J) {
      for (uint64_t Now = nowNs(); Now < Jobs[J].Due; Now = nowNs())
        if (!pump(&Jobs[J].Due))
          break;
      const Item &It = R.In.Items[Jobs[J].Item];
      std::string Line = It.Path + " " + JobTiers[Jobs[J].Tier] +
                         " id=" + std::to_string(J) + "\n";
      Jobs[J].Sent = nowNs();
      // Non-blocking: while the session's input is full, keep draining its
      // output, or both sides could wait on each other.
      for (size_t Off = 0; Off < Line.size() && R.Fatal.empty();) {
        ssize_t W = write(WriteFd, Line.data() + Off, Line.size() - Off);
        if (W > 0) {
          Off += size_t(W);
        } else if (W < 0 && (errno == EAGAIN || errno == EINTR)) {
          const uint64_t Until = nowNs() + 1000000;
          pump(&Until);
        } else {
          R.Fatal = "serve: job write failed";
        }
      }
      GenLateMs = std::max(GenLateMs,
                           double(Jobs[J].Sent - Jobs[J].Due) / 1e6);
    }
    uint64_t LastProgress = nowNs();
    while (R.Fatal.empty() && Answered < First + Count) {
      size_t Before = Answered;
      const uint64_t Until = nowNs() + 100000000;
      if (!pump(&Until))
        break;
      if (Answered != Before)
        LastProgress = nowNs();
      else if (nowNs() - LastProgress > 30000000000ull)
        R.Fatal = "serve: no answer for 30 s";
    }
    Verdict V;
    uint64_t LastDone = 0;
    for (size_t J = First; J < First + Count; ++J) {
      const Job &Jb = Jobs[J];
      if (Jb.Rejected)
        ++V.Rejected;
      else if (Jb.Answered)
        V.Ms.push_back(double(Jb.Done - Jb.Due) / 1e6);
      LastDone = std::max(LastDone, Jb.Done);
      R.T.record("serve.job", Jb.Due, Jb.Done ? Jb.Done : Jb.Sent, J);
    }
    uint64_t LastDue = Jobs[First + Count - 1].Due;
    V.DrainMs = LastDone > LastDue ? double(LastDone - LastDue) / 1e6 : 0;
    return V;
  }

  /// Ends the session and returns its statistics.
  const ServeStats &finish() {
    close(WriteFd);
    WriteFd = -1;
    while (pump(nullptr)) {
    }
    Reader.join();
    return Stats;
  }

  std::vector<Job> Jobs;
  double GenLateMs = 0;

private:
  /// Handles every complete protocol line until the steady-clock time
  /// \p Until, or, with null, until some output arrives. Timed waits spin
  /// rather than sleep: on a 4-vCPU virtual machine a sleeping generator
  /// woke up to 15 ms late, a spinning one mostly within 0.2 ms. Returns
  /// false at end of output.
  bool pump(const uint64_t *Until) {
    char Buf[65536];
    for (;;) {
      if (!Until) {
        pollfd P{ReadFd, POLLIN, 0};
        if (ppoll(&P, 1, nullptr, nullptr) < 0 && errno != EINTR)
          return false;
      }
      bool Any = false;
      for (;;) {
        ssize_t Got = read(ReadFd, Buf, sizeof(Buf));
        if (Got == 0)
          return false;
        if (Got < 0) {
          if (errno != EAGAIN && errno != EINTR)
            return false;
          break;
        }
        Any = true;
        uint64_t Now = nowNs();
        Pending.append(Buf, size_t(Got));
        size_t Start = 0, Nl;
        while ((Nl = Pending.find('\n', Start)) != std::string::npos) {
          line(Pending.substr(Start, Nl - Start), Now);
          Start = Nl + 1;
        }
        Pending.erase(0, Start);
      }
      if (!Until || Any || nowNs() >= *Until)
        return true;
    }
  }

  void line(const std::string &L, uint64_t Now) {
    if (L.empty() || L[0] == '#')
      return;
    bool Done = L.compare(0, 5, "done ") == 0;
    bool Reject = L.compare(0, 7, "reject ") == 0;
    size_t IdAt = Done ? 5 : 7;
    char *End = nullptr;
    unsigned long long Id = strtoull(L.c_str() + IdAt, &End, 10);
    if ((!Done && !Reject) || End == L.c_str() + IdAt || Id >= Jobs.size() ||
        Jobs[Id].Answered) {
      R.L.fail("serve: unexpected line '" + L + "'");
      return;
    }
    Job &J = Jobs[Id];
    J.Answered = true;
    J.Done = Now;
    ++Answered;
    const std::string Rest = End;
    if (Reject) {
      // Load shedding: a refusal, counted by the stretch's verdict.
      J.Rejected = true;
      R.L.ok();
    } else if (Rest.compare(1, Expect[J.Item].size(), Expect[J.Item]) != 0) {
      R.L.fail("serve: job " + std::to_string(Id) + " (" +
               R.In.Items[J.Item].Name + ") answered" + Rest);
    } else {
      R.L.ok();
    }
  }

  Run &R;
  int WriteFd = -1, ReadFd = -1;
  std::thread Reader;
  ServeStats Stats;
  std::string Pending;
  std::vector<std::string> Expect; ///< Per item: "= <value> ms=".
  size_t Answered = 0;
};

class ServePhase : public Phase {
public:
  explicit ServePhase(Run &R) : R(R), S(R) {
    for (uint32_t I = 0; I < R.In.Items.size(); ++I)
      for (uint32_t T = 0; T < NumJobTiers; ++T)
        Deck.push_back({I, T});
    Dealt = Deck.size();
  }

  /// The warm-up first; then reference chunks alternating with visits to
  /// the ladder's rungs (each rung twice) until the reference has its
  /// minimum, the remaining visits, and reference chunks after that.
  void step() override {
    if (!R.Fatal.empty())
      return;
    if (!WarmedUp) {
      // Two decks, so that both workers have most modules in their pools.
      S.stretch(add(2 * Deck.size()), 2 * Deck.size(), ReferenceRate, 0);
      WarmedUp = true;
    } else if (Visit < 2 * std::size(Ladder) &&
               (Steps++ % 2 == 1 || referenceDone())) {
      const size_t K = Visit++ % std::size(Ladder);
      merge(Rungs[K],
            S.stretch(add(RungJobs), RungJobs, Ladder[K], uint64_t(Ladder[K])));
    } else {
      merge(Reference, S.stretch(add(ChunkJobs), ChunkJobs, ReferenceRate, 1));
      ++Chunks;
    }
  }

  bool enough() const override {
    return !R.Fatal.empty() ||
           (WarmedUp && Visit == 2 * std::size(Ladder) && referenceDone());
  }

  void finish() override;

private:
  bool referenceDone() const { return Chunks * ChunkJobs >= MinReferenceJobs; }

  static void merge(Verdict &Into, const Verdict &V) {
    Into.Ms.insert(Into.Ms.end(), V.Ms.begin(), V.Ms.end());
    Into.Rejected += V.Rejected;
    Into.DrainMs = std::max(Into.DrainMs, V.DrainMs);
  }

  /// Appends \p Count jobs and returns the first. Jobs are dealt from a
  /// deck of every (item, tier) pair, reshuffled when it runs out, so every
  /// seed sends nearly the same mix and only order and timing differ: a
  /// uniform draw let the handful of long jobs that set p99 vary by seed.
  size_t add(size_t Count) {
    size_t First = S.Jobs.size();
    for (size_t J = 0; J < Count; ++J) {
      if (Dealt == Deck.size()) {
        shuffle(Deck, R.Rand);
        Dealt = 0;
      }
      auto [I, T] = Deck[Dealt++];
      S.Jobs.push_back({I, T, 0, 0, 0, false, false});
    }
    return First;
  }

  Run &R;
  Session S;
  std::vector<std::pair<uint32_t, uint32_t>> Deck; ///< (item, tier)
  size_t Dealt = 0;
  bool WarmedUp = false;
  size_t Steps = 0, Visit = 0, Chunks = 0;
  Verdict Reference;                ///< All reference chunks.
  Verdict Rungs[std::size(Ladder)]; ///< Both visits of each rung.
};

void ServePhase::finish() {
  if (!R.Fatal.empty())
    return;
  const ServeStats &Stats = S.finish();
  std::vector<double> Rates = {ReferenceRate}, Miss = {Reference.missShare()};
  size_t Shed = 0;
  for (size_t K = 0; K < std::size(Ladder); ++K) {
    const Verdict &V = Rungs[K];
    Rates.push_back(Ladder[K]);
    Miss.push_back(V.missShare());
    Shed += V.Rejected;
    fprintf(stderr,
            "serve: %4.0f jobs/s: p50 %.3f ms p99 %.3f ms (%zu answered, %zu "
            "rejected), drain %.3f ms, miss share %.4f\n",
            Ladder[K], percentile(V.Ms, 0.5), percentile(V.Ms, 0.99),
            V.Ms.size(), V.Rejected, V.DrainMs, V.missShare());
    for (auto [Metric, Value] : {std::pair{"p50_ms", percentile(V.Ms, 0.5)},
                                 std::pair{"p99_ms", percentile(V.Ms, 0.99)},
                                 std::pair{"miss_share", V.missShare()}})
      R.Rows.push_back({"serve@" + std::to_string(int(Ladder[K])), "mix",
                        Metric, Value});
  }
  const double MaxJps = crossing(Rates, Miss);

  R.M.add("serve_ms.p50", percentile(Reference.Ms, 0.50), "ms");
  R.M.add("serve_ms.p99", percentile(Reference.Ms, 0.99), "ms");
  R.M.add("serve_max_jps", MaxJps, "jobs/s");
  fprintf(stderr,
          "serve: reference %.0f jobs/s: p50 %.3f ms p99 %.3f ms (%zu "
          "samples, %zu rejected); max %.1f jobs/s; generator late <= %.3f "
          "ms\n",
          ReferenceRate, percentile(Reference.Ms, 0.5),
          percentile(Reference.Ms, 0.99), Reference.Ms.size(),
          Reference.Rejected, MaxJps, S.GenLateMs);

  std::vector<double> Wait, Service;
  for (size_t I = 0; I < Stats.LatenciesMs.size(); ++I) {
    Wait.push_back(Stats.LatenciesMs[I] - Stats.ServiceMs[I]);
    Service.push_back(Stats.ServiceMs[I]);
  }
  R.M.add("service.queue_wait_ms.p50", percentile(Wait, 0.50), "ms");
  R.M.add("service.queue_wait_ms.p99", percentile(Wait, 0.99), "ms");
  R.M.add("service.service_ms.p50", percentile(Service, 0.50), "ms");
  R.M.add("service.service_ms.p99", percentile(Service, 0.99), "ms");
  R.M.add("service.reject_share",
          double(Shed) / double(2 * RungJobs * std::size(Ladder)), "ratio");
  R.M.add("serve.gen_late_ms.max", S.GenLateMs, "ms");
}

} // namespace

std::unique_ptr<Phase> servePhase(Run &R) {
  return std::make_unique<ServePhase>(R);
}

} // namespace pb
