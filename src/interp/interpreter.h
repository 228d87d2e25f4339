//===- interp/interpreter.h - in-place Wasm interpreter ---------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-place interpreter (the paper's Wizard-INT): executes original
/// Wasm bytecode directly, using the validator-built side table for control
/// transfers. The value stack is explicit in memory and value tags are
/// written on every push when the tag lane is present, so the execution
/// state is always fully introspectable (tracing, probes, GC roots).
///
//===----------------------------------------------------------------------===//

#ifndef WISP_INTERP_INTERPRETER_H
#define WISP_INTERP_INTERPRETER_H

#include "runtime/instance.h"
#include "runtime/thread.h"

namespace wisp {

/// Runs the top frame (which must be an Interp frame) and any frames it
/// pushes, until control returns below \p EntryDepth, a JIT-tier frame
/// becomes the top of stack, or a trap occurs.
///
/// Pinned 16 bytes past a 64-byte boundary, where its dispatch loop reads
/// fastest (at 0 mod 64 it runs ~4% slower): the boundary comes from
/// `aligned`, the 16-byte offset from never-executed padding placed before
/// the entry point by `patchable_function_entry` (see executor.h for why
/// the dispatch loops are pinned at all).
__attribute__((aligned(64), patchable_function_entry(16, 16))) RunSignal
runInterpreter(Thread &T, size_t EntryDepth);

/// Pushes a frame for \p Func with arguments already placed at \p ArgBase
/// (absolute value-stack slot). Zero-initializes declared locals and their
/// tags. Returns false on stack overflow (trap is set). The frame kind is
/// chosen from Func->UseJit.
bool pushWasmFrame(Thread &T, FuncInstance *Func, uint32_t ArgBase);

/// Calls a host function with \p ArgBase as the first argument slot.
/// Reads/writes the value stack directly; sets a trap on host error.
/// Leaves results at ArgBase.
bool callHostFunc(Thread &T, FuncInstance *Func, uint32_t ArgBase,
                  uint32_t CallerIp);

} // namespace wisp

#endif // WISP_INTERP_INTERPRETER_H
