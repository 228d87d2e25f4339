//===- engine/registry.h - named engine configurations ----------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named engine configurations mirroring the execution tiers of the
/// paper's evaluation: the six baseline compilers of Figure 3 and the 18
/// tiers of Figure 10. Feature sets follow the paper's matrix; see
/// EXPERIMENTS.md for the mapping notes and deviations.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_ENGINE_REGISTRY_H
#define WISP_ENGINE_REGISTRY_H

#include "engine/engine.h"

#include <vector>

namespace wisp {

/// An entry in Figure 3's feature matrix.
struct BaselineFeatureRow {
  const char *Name;
  const char *Language;
  int Year;
  const char *Features;
  const char *Description;
};

/// The six baseline compiler configurations (paper Fig. 3).
std::vector<EngineConfig> baselineRegistry();

/// Figure 3's descriptive rows (printed by `bench_figures tab3`).
std::vector<BaselineFeatureRow> figure3Rows();

/// The 18 execution-tier configurations of Figure 10.
std::vector<EngineConfig> figure10Registry();

/// Looks up a configuration by name from either registry.
EngineConfig configByName(const std::string &Name);

} // namespace wisp

#endif // WISP_ENGINE_REGISTRY_H
