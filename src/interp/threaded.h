//===- interp/threaded.h - threaded-dispatch interpreter --------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded-dispatch interpreter tier: executes the pre-decoded IR
/// built by predecode.h with computed-goto (token-threaded) dispatch, a
/// GCC/Clang extension this tier requires. Handler bodies are shared with
/// the in-place switch interpreter through interp/handlers.inc, so the two
/// tiers cannot drift semantically; frames stay in the bytecode Ip/Stp
/// coordinate system, so probes, OSR tier-up and deopt tier-down
/// interoperate unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_INTERP_THREADED_H
#define WISP_INTERP_THREADED_H

#include "runtime/instance.h"
#include "runtime/thread.h"

namespace wisp {

/// Runs the top frame (which must be an Interp frame) on the threaded
/// tier until control returns below \p EntryDepth, a JIT frame becomes the
/// top of stack, or a trap occurs. Frames without pre-decoded IR, or
/// resuming at an offset the IR cannot express (inside a fused
/// superinstruction after a deopt), delegate to the switch interpreter.
///
/// Pinned to a 64-byte boundary, like runExecutor (see executor.h).
__attribute__((aligned(64))) RunSignal
runThreadedInterpreter(Thread &T, size_t EntryDepth);

} // namespace wisp

#endif // WISP_INTERP_THREADED_H
