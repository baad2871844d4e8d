// Test helper: a sweep's outcomes, collected through `on_emit`.
#ifndef MOBISIM_TESTS_COLLECT_SWEEP_H_
#define MOBISIM_TESTS_COLLECT_SWEEP_H_

#include <utility>
#include <vector>

#include "src/runner/sweep_runner.h"

namespace mobisim {

// Runs RunSweep over `points` and returns a copy of every outcome in the
// order `on_emit` saw them, after calling the `on_emit` `options` carries.
inline std::vector<SweepOutcome> CollectSweep(const std::vector<ExperimentPoint>& points,
                                              SweepOptions options) {
  std::vector<SweepOutcome> outcomes;
  options.on_emit = [&outcomes, inner = std::move(options.on_emit)](
                        const SweepOutcome& outcome) {
    if (inner) {
      inner(outcome);
    }
    outcomes.push_back(outcome);
  };
  RunSweep(points, options);
  return outcomes;
}

}  // namespace mobisim

#endif  // MOBISIM_TESTS_COLLECT_SWEEP_H_
