// Per-call costs of the model and transforms layers, measured directly on a
// workload's own (program, schedule) pairs.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "ir/program.h"
#include "model/cost_model.h"
#include "transforms/schedule.h"

namespace perfbench {

struct PairRef {
  const tcm::ir::Program* program = nullptr;
  const tcm::transforms::Schedule* schedule = nullptr;
};

// Sets model.featurize_us, model.batch_assemble_us (per structure group),
// model.infer_us_per_row.b1/.b8/.b32, transforms.is_legal_us,
// transforms.apply_us and transforms.dependence_us.
void measure_pair_layers(const std::vector<PairRef>& pairs, tcm::model::SpeedupPredictor& model,
                         Metrics& m);

// Identifies a featurization's loop-tree shape; rows batch together only
// when their keys are equal.
std::string structure_key(const tcm::model::FeaturizedProgram& f);

}  // namespace perfbench
