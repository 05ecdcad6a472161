// getTiming-style performance report (§6.2).
//
// The paper measures with GPTL timers inside Coupler 7, reduces with the
// maximum across ranks ("to account for potential load imbalance"), and
// converts to SYPD with the getTiming script. This module reproduces that
// pipeline on the observability layer: the driver records its phases as
// "run*" obs spans, CoupledModel::timing_summary() reduces them across ranks
// with obs::merge, and this summary reports component and whole-model SYPD,
// excluding initialization — exactly the paper's measurement basis.
#pragma once

#include <string>
#include <vector>

#include "obs/merge.hpp"

namespace ap3::cpl {

struct TimingSummary {
  /// The "run"-prefixed driver spans, sorted by name: total_max is the
  /// getTiming reduction (max across ranks), calls the max across ranks.
  std::vector<obs::MergedSpan> phases;
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;  ///< max across ranks of the run phase total
  /// Simulated-years-per-day, the paper's headline metric.
  double sypd() const;
  std::string to_string() const;
};

}  // namespace ap3::cpl
