#include "search/evaluator.h"

#include <stdexcept>
#include <thread>

#include "support/clock.h"
#include "transforms/apply.h"

namespace tcm::search {

ExecutionEvaluator::ExecutionEvaluator(sim::Executor executor) : executor_(std::move(executor)) {}

std::vector<double> ExecutionEvaluator::evaluate(
    const ir::Program& p, const std::vector<transforms::Schedule>& candidates) {
  std::vector<double> speedups;
  speedups.reserve(candidates.size());
  const double base = executor_.measure_seconds(p);
  for (const transforms::Schedule& s : candidates) {
    const ir::Program transformed = transforms::apply_schedule(p, s);
    const double t = executor_.measure_seconds(transformed);
    speedups.push_back(base / t);
    accounted_seconds_ += executor_.evaluation_cost_seconds(t);
    ++evaluations_;
  }
  return speedups;
}

namespace {

serve::ServeOptions default_serve_options(model::FeatureConfig features) {
  serve::ServeOptions options;
  options.features = features;
  const unsigned hw = std::thread::hardware_concurrency();
  options.num_threads = static_cast<int>(std::min(4u, std::max(1u, hw)));
  return options;
}

}  // namespace

ModelEvaluator::ModelEvaluator(model::SpeedupPredictor* predictor, model::FeatureConfig features)
    : ModelEvaluator(predictor, default_serve_options(features)) {}

ModelEvaluator::ModelEvaluator(model::SpeedupPredictor* predictor,
                               const serve::ServeOptions& options) {
  if (!predictor) throw std::invalid_argument("ModelEvaluator: null predictor");
  owned_service_ = std::make_unique<serve::PredictionService>(*predictor, options);
  service_ = owned_service_.get();
}

ModelEvaluator::ModelEvaluator(serve::PredictionService& service) : service_(&service) {}

std::vector<double> ModelEvaluator::evaluate(const ir::Program& p,
                                             const std::vector<transforms::Schedule>& candidates) {
  const auto t0 = support::now();
  std::vector<double> predictions;
  try {
    predictions = service_->predict_many(p, candidates, deadline_);
  } catch (const std::invalid_argument& e) {
    // Keep the historical error contract of the synchronous evaluator.
    throw std::invalid_argument(std::string("ModelEvaluator: ") + e.what());
  }
  accounted_seconds_ += support::seconds_since(t0);
  evaluations_ += static_cast<std::int64_t>(candidates.size());
  return predictions;
}

}  // namespace tcm::search
