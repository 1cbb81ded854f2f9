// Candidate evaluators for search methods (Section 5).
//
// A search method needs the (estimated or measured) speedup of many
// candidate schedules. Two implementations:
//   - ExecutionEvaluator: "runs" each candidate on the simulated machine
//     (compile + 30 noisy runs, median), the way BSE does in the paper.
//     Accounted cost per candidate: compile overhead + 30 x execution time,
//     in simulated seconds.
//   - ModelEvaluator: runs candidates through a serve::PredictionService,
//     which featurizes them (with caching), groups them by tree structure
//     and batches them through a trained SpeedupPredictor on a worker pool —
//     via the tape-free infer_batch path with per-worker inference arenas
//     (see nn/inference.h). Accounted cost: measured inference wall time.
// The accounted costs feed Table 2 (search time improvement).
#pragma once

#include <memory>
#include <vector>

#include "ir/program.h"
#include "model/cost_model.h"
#include "serve/prediction_service.h"
#include "sim/executor.h"
#include "transforms/schedule.h"

namespace tcm::search {

class CandidateEvaluator {
 public:
  virtual ~CandidateEvaluator() = default;

  // Speedups (vs. the untransformed program) for each candidate schedule.
  // Candidates must already be legal.
  virtual std::vector<double> evaluate(const ir::Program& p,
                                       const std::vector<transforms::Schedule>& candidates) = 0;

  // Cumulative cost a real toolchain would have paid for all evaluations so
  // far, in seconds.
  virtual double accounted_seconds() const = 0;
  virtual std::int64_t evaluations() const = 0;
  virtual const char* kind() const = 0;
};

class ExecutionEvaluator final : public CandidateEvaluator {
 public:
  explicit ExecutionEvaluator(sim::Executor executor);

  std::vector<double> evaluate(const ir::Program& p,
                               const std::vector<transforms::Schedule>& candidates) override;
  double accounted_seconds() const override { return accounted_seconds_; }
  std::int64_t evaluations() const override { return evaluations_; }
  const char* kind() const override { return "execution"; }

  sim::Executor& executor() { return executor_; }

 private:
  sim::Executor executor_;
  double accounted_seconds_ = 0;
  std::int64_t evaluations_ = 0;
};

class ModelEvaluator final : public CandidateEvaluator {
 public:
  // Serves predictions with default ServeOptions (featurization from
  // `features`, worker count matched to the hardware).
  ModelEvaluator(model::SpeedupPredictor* predictor, model::FeatureConfig features);

  // Full control over batching/threading/caching.
  ModelEvaluator(model::SpeedupPredictor* predictor, const serve::ServeOptions& options);

  // Scores through an externally owned service (the serving tier's live
  // instance). The caller keeps the service alive for the evaluator's
  // lifetime; search traffic shares the batcher, cache, and admission
  // machinery with interactive predictions.
  explicit ModelEvaluator(serve::PredictionService& service);

  // Absolute deadline attached to every subsequent evaluate() burst, so a
  // wedged batcher sheds the evaluation (serve::DeadlineExceededError
  // propagates out of evaluate) instead of stranding the search forever.
  void set_deadline(serve::RequestDeadline deadline) { deadline_ = deadline; }

  std::vector<double> evaluate(const ir::Program& p,
                               const std::vector<transforms::Schedule>& candidates) override;
  double accounted_seconds() const override { return accounted_seconds_; }
  std::int64_t evaluations() const override { return evaluations_; }
  const char* kind() const override { return "model"; }

  serve::PredictionService& service() { return *service_; }

 private:
  std::unique_ptr<serve::PredictionService> owned_service_;
  serve::PredictionService* service_ = nullptr;  // owned_service_.get() or external
  serve::RequestDeadline deadline_ = serve::kNoDeadline;
  double accounted_seconds_ = 0;
  std::int64_t evaluations_ = 0;
};

}  // namespace tcm::search
