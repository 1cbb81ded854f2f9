// The four workloads. Each builds its own fresh stack and inputs in
// setup(), and measures, checks and guards in run().
#pragma once

#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the stack and generates the inputs under `dir` (must not exist),
  // then warms up. Called several times per run; each call replaces the
  // previous stack.
  virtual void setup(const std::string& dir) = 0;
  virtual void teardown() = 0;
  // Runs the timed window, then the output checks. Returns an empty string,
  // or why the run measured something other than the workload it names
  // (the run then reports no numbers).
  virtual std::string run(Outcome& out) = 0;
};

std::unique_ptr<Workload> make_predict_workload(const RunConfig& config,
                                                const ThreadBudget& budget, bool hot);
std::unique_ptr<Workload> make_search_workload(const RunConfig& config,
                                               const ThreadBudget& budget);
std::unique_ptr<Workload> make_finetune_workload(const RunConfig& config,
                                                 const ThreadBudget& budget);

}  // namespace perfbench
