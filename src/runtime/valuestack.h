//===- runtime/valuestack.h - explicit value stack with tag lane -*- C++ -*-==//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit value stack shared by the interpreter and JIT code (paper
/// Fig. 2). Values are raw 64-bit slots; an optional parallel *tag lane*
/// holds one ValType byte per slot so stack walkers (GC, instrumentation,
/// debugging) can interpret any slot without metadata. Engines configured
/// without tags (the paper's `notags` baseline and the non-GC engines)
/// simply do not allocate the lane, saving its space.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_RUNTIME_VALUESTACK_H
#define WISP_RUNTIME_VALUESTACK_H

#include "runtime/pages.h"
#include "wasm/types.h"

#include <cstdint>
#include <new>
#include <vector>

namespace wisp {

/// A fixed-capacity value stack. Frames address it by absolute slot index.
///
/// The slot lane is a lazily zeroed page mapping (runtime/pages.h), not a
/// value-initialized vector: a fresh stack reads as zero everywhere, yet
/// an engine whose run touches a handful of slots pays for a page or two
/// rather than a memset of the whole lane (512 KiB at the default 64Ki
/// slots). The mapping does not count against setMemoryFaultCountdown —
/// that injector models linear-memory exhaustion — and failure throws
/// std::bad_alloc as the vector did. The tag lane stays a vector: its
/// unwritten entries must read as I32 (probes interpret unwritten tags
/// that way), which zero pages cannot provide.
class ValueStack {
public:
  explicit ValueStack(uint32_t NumSlots = 1u << 16, bool WithTags = true)
      : NumSlots(NumSlots),
        TagStore(WithTags ? NumSlots : 0, uint8_t(ValType::I32)),
        HasTags(WithTags) {
    if (NumSlots) {
      SlotStore = reinterpret_cast<uint64_t *>(
          mapZeroPages(size_t(NumSlots) * sizeof(uint64_t)));
      if (!SlotStore)
        throw std::bad_alloc();
    }
  }
  ~ValueStack() {
    if (SlotStore)
      unmapZeroPages(reinterpret_cast<uint8_t *>(SlotStore),
                     size_t(NumSlots) * sizeof(uint64_t));
  }
  ValueStack(const ValueStack &) = delete;
  ValueStack &operator=(const ValueStack &) = delete;

  uint32_t capacity() const { return NumSlots; }
  bool hasTags() const { return HasTags; }

  uint64_t *slots() { return SlotStore; }
  const uint64_t *slots() const { return SlotStore; }
  /// Null when the engine runs without value tags.
  uint8_t *tags() { return HasTags ? TagStore.data() : nullptr; }
  const uint8_t *tags() const { return HasTags ? TagStore.data() : nullptr; }

  uint64_t slot(uint32_t I) const { return SlotStore[I]; }
  void setSlot(uint32_t I, uint64_t Bits) { SlotStore[I] = Bits; }
  ValType tag(uint32_t I) const {
    assert(HasTags && "tag lane disabled");
    return ValType(TagStore[I]);
  }
  void setTag(uint32_t I, ValType T) {
    if (HasTags)
      TagStore[I] = uint8_t(T);
  }

private:
  uint32_t NumSlots;
  uint64_t *SlotStore = nullptr;
  std::vector<uint8_t> TagStore;
  bool HasTags;
};

} // namespace wisp

#endif // WISP_RUNTIME_VALUESTACK_H
