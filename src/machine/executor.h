//===- machine/executor.h - simulated machine executor ----------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled MCode against the shared thread state (value stack,
/// frames, instance). The executor plays the role of the CPU for the
/// simulated target ISA: registers live here, the value stack and frames
/// live in the Thread exactly as for the interpreter, and a deterministic
/// cycle count is accumulated per instruction.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_MACHINE_EXECUTOR_H
#define WISP_MACHINE_EXECUTOR_H

#include "runtime/instance.h"
#include "runtime/thread.h"

namespace wisp {

/// Runs the top frame (which must be a Jit frame) and any JIT frames it
/// pushes, until control returns below \p EntryDepth, an interpreter-tier
/// frame becomes top-of-stack (mixed-tier call or deopt), or a trap occurs.
///
/// Pinned to a 64-byte boundary. The dispatch loop's speed depends on
/// where its hot branches fall relative to instruction-fetch blocks, so
/// without the pin any change to code linked ahead of it can move the
/// executor by tens of percent (DESIGN.md, "Interpreter dispatch
/// strategies").
__attribute__((aligned(64))) RunSignal
runExecutor(Thread &T, size_t EntryDepth);

} // namespace wisp

#endif // WISP_MACHINE_EXECUTOR_H
