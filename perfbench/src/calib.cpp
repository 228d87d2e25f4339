//===- perfbench/src/calib.cpp - the machine-speed reference job -----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// A fixed job that does the kinds of work the program's timed regions do,
// through none of the program's code: switch dispatch over a byte program
// with loads and stores into a small table, small allocations in a hash
// map, anonymous mappings whose first touch faults a page in, and reads of
// small files. On a shared host the speed of such work drifts by tens of
// percent over minutes, and the kinds drift unevenly: an arithmetic loop
// barely moves while loads, which map memory and call the kernel, slow by
// half. The run times the job before every unit of measuring and scales
// the unit's host times by the median of its last few times (measureSpeed),
// so that the drift cancels out of the reported times while a change to
// the program still shows.
//
// The parts' sizes make dispatch and allocation about half of the job's
// time and mappings and file reads a quarter each, the mix that tracked
// the startup and exec timings best on a shared 4-vCPU VM.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <filesystem>
#include <sys/mman.h>
#include <unordered_map>

namespace pb {

namespace {

/// xorshift64*, fixed here so that the job never changes with the program.
uint64_t next(uint64_t &S) {
  S ^= S >> 12;
  S ^= S << 25;
  S ^= S >> 27;
  return S * 0x2545F4914F6CDD1Dull;
}

uint64_t dispatch(const std::vector<uint8_t> &Code, std::vector<uint32_t> &Mem,
                  int Reps) {
  const size_t Mask = Mem.size() - 1;
  uint64_t A = 1, B = 7;
  uint32_t Sp = 0, St[64] = {0};
  for (int R = 0; R < Reps; ++R)
    for (size_t Pc = 0; Pc < Code.size(); ++Pc)
      switch (Code[Pc]) {
      case 0: A += B; break;
      case 1: A ^= A >> 7; break;
      case 2: A *= 0x9E37; break;
      case 3: B = Mem[A & Mask]; break;
      case 4: Mem[(A >> 3) & Mask] = uint32_t(A); break;
      case 5: A = (A & 1) ? A + 3 : A - 1; break;
      case 6: St[Sp++ & 63] = uint32_t(A); break;
      case 7: A += St[--Sp & 63]; break;
      case 8: A = (A << 3) | (A >> 61); break;
      case 9: B += A & 0xff; break;
      case 10: Pc += (A >> 4) & 1; break;
      case 11: A -= B; break;
      case 12: A |= 1; break;
      case 13: B ^= A; break;
      case 14: A += Mem[B & Mask]; break;
      default: A += 1; break;
      }
  return A + B;
}

uint64_t churn(int N) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> M;
  uint64_t S = 7, Sum = 0;
  for (int I = 0; I < N; ++I) {
    uint64_t K = next(S) % 4096;
    auto It = M.find(K);
    if (It == M.end()) {
      M[K].resize(1 + K % 13);
    } else {
      Sum += It->second.size();
      M.erase(It);
    }
  }
  return Sum + M.size();
}

/// Maps 64 KiB, touches two pages, unmaps; \p N times.
uint64_t mapTouch(int N) {
  uint64_t Sum = 0;
  for (int I = 0; I < N; ++I) {
    void *P = mmap(nullptr, 1 << 16, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      continue;
    volatile uint8_t *B = static_cast<uint8_t *>(P);
    B[0] = 1;
    B[4096] = uint8_t(I);
    Sum += B[4096];
    munmap(P, 1 << 16);
  }
  return Sum;
}

uint64_t readFiles(const std::vector<std::string> &Paths, int N) {
  uint64_t Sum = 0;
  char Buf[8192];
  for (int I = 0; I < N; ++I) {
    FILE *F = fopen(Paths[size_t(I) % Paths.size()].c_str(), "rb");
    if (!F)
      continue;
    Sum += fread(Buf, 1, sizeof(Buf), F);
    fclose(F);
  }
  return Sum;
}

} // namespace

bool ReferenceJob::init(const std::string &Dir) {
  uint64_t S = 0x9E3779B97F4A7C15ull;
  Code.resize(4096);
  for (uint8_t &C : Code)
    C = uint8_t(next(S) % 16);
  Mem.resize(1u << 14);
  for (uint32_t &M : Mem)
    M = uint32_t(next(S));
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::vector<uint8_t> Bytes(6000);
  for (int I = 0; I < 16; ++I) {
    for (uint8_t &B : Bytes)
      B = uint8_t(next(S));
    Paths.push_back(Dir + "/" + std::to_string(I) + ".bin");
    FILE *F = fopen(Paths.back().c_str(), "wb");
    if (!F || fwrite(Bytes.data(), 1, Bytes.size(), F) != Bytes.size()) {
      if (F)
        fclose(F);
      return false;
    }
    if (fclose(F) != 0)
      return false;
  }
  runNs(); // Warms the tables and the page cache, untimed.
  return true;
}

double ReferenceJob::runNs() {
  uint64_t T0 = nowNs();
  uint64_t X = dispatch(Code, Mem, 20) + churn(4000) + mapTouch(60) +
               readFiles(Paths, 90);
  uint64_t T1 = nowNs();
  Sink = Sink + X;
  return double(T1 - T0);
}

void measureSpeed(Run &R) {
  R.RefNs.push_back(R.Ref.runNs());
  const size_t N = std::min<size_t>(R.RefNs.size(), SpeedWindow);
  R.Scale = ReferenceJobNs /
            median(std::vector<double>(R.RefNs.end() - long(N), R.RefNs.end()));
}

} // namespace pb
