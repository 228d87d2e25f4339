//===- machine/isa.cpp - ISA metadata and listings --------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "machine/isa.h"

#include "support/format.h"

#include <iterator>

using namespace wisp;

const char *wisp::mopName(MOp Op) {
  static const char *const Names[] = {
#define WISP_MOP(Name) #Name,
#include "machine/mops.def"
      "NumOps"};
  static_assert(std::size(Names) == size_t(MOp::NumOps) + 1,
                "mopName table out of sync with MOp");
  return size_t(Op) < std::size(Names) ? Names[size_t(Op)] : "<bad mop>";
}

std::string MCode::toString() const {
  std::string Out;
  Out += strFormat("; func %u, %zu insts, %u frame slots\n", FuncIndex,
                   Insts.size(), FrameSlots);
  for (size_t I = 0; I < Insts.size(); ++I) {
    const MInst &MI = Insts[I];
    Out += strFormat("%4zu: %-14s a=%-3u b=%-3u c=%-3u d=%-3u imm=%lld", I,
                     mopName(MI.Op), MI.A, MI.B, MI.C, MI.D,
                     (long long)MI.Imm);
    if (MI.Imm2)
      Out += strFormat(" imm2=%lld", (long long)MI.Imm2);
    Out += '\n';
  }
  for (size_t T = 0; T < BrTables.size(); ++T) {
    Out += strFormat("; table %zu:", T);
    for (uint32_t Pc : BrTables[T])
      Out += strFormat(" %u", Pc);
    Out += '\n';
  }
  return Out;
}
