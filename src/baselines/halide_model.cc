#include "baselines/halide_model.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/ops.h"
#include "support/clock.h"
#include "support/log.h"

namespace tcm::baselines {

HalideCostModel::HalideCostModel(const HalideModelConfig& config, Rng& rng) : config_(config) {
  std::vector<int> sizes;
  sizes.push_back(kHalideFeatureCount);
  sizes.insert(sizes.end(), config.hidden.begin(), config.hidden.end());
  sizes.push_back(1);
  stage_net_ = std::make_unique<nn::MLP>(sizes, config.dropout, rng, "halide_stage",
                                         /*activate_last=*/false);
  register_submodule("halide_stage", stage_net_.get());
}

nn::Variable HalideCostModel::forward_sample(
    const std::vector<std::vector<float>>& comp_features, bool training, Rng& rng) {
  if (comp_features.empty())
    throw std::invalid_argument("HalideCostModel: sample without computations");
  // Stack computations as rows, predict per-stage log cost, sum the
  // exponentials: time = sum_c exp(g(f_c)).
  const int n = static_cast<int>(comp_features.size());
  nn::Tensor x(n, kHalideFeatureCount);
  for (int i = 0; i < n; ++i) {
    if (static_cast<int>(comp_features[static_cast<std::size_t>(i)].size()) !=
        kHalideFeatureCount)
      throw std::invalid_argument("HalideCostModel: bad feature arity");
    for (int j = 0; j < kHalideFeatureCount; ++j)
      x.at(i, j) = comp_features[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  nn::Variable per_stage = nn::exp_bounded(stage_net_->forward(nn::Variable(x), training, rng),
                                           /*limit=*/24.0f);  // [n,1]
  // Sum of rows == n * mean.
  return nn::scale(nn::mean_all(per_stage), static_cast<float>(n));
}

double HalideCostModel::predict_seconds(const std::vector<std::vector<float>>& comp_features) {
  Rng rng(0);
  return static_cast<double>(forward_sample(comp_features, false, rng).value().item());
}

double HalideCostModel::predict_seconds(const ir::Program& transformed,
                                        const sim::MachineSpec& spec) {
  std::vector<std::vector<float>> feats;
  feats.reserve(transformed.comps.size());
  for (const ir::Computation& c : transformed.comps)
    feats.push_back(halide_features(transformed, c.id, spec));
  return predict_seconds(feats);
}

double HalideCostModel::train_step(const std::vector<const HalideSample*>& batch,
                                   nn::AdamW& optimizer, Rng& rng) {
  optimizer.zero_grad();
  // MSE on log seconds, averaged over the batch.
  nn::Variable loss;
  for (const HalideSample* sample : batch) {
    nn::Variable pred = forward_sample(sample->comp_features, /*training=*/true, rng);
    const float log_target = static_cast<float>(std::log(std::max(1e-12, sample->measured_seconds)));
    nn::Variable diff = nn::sub(nn::log_op(pred), nn::Variable(nn::Tensor::scalar(log_target)));
    nn::Variable sq = nn::mul(diff, diff);
    loss = loss.defined() ? nn::add(loss, sq) : sq;
  }
  loss = nn::scale(loss, 1.0f / static_cast<float>(batch.size()));
  nn::backward(loss);
  optimizer.step();
  return static_cast<double>(loss.value().item());
}

std::vector<double> train_halide_model(HalideCostModel& model,
                                       const std::vector<HalideSample>& samples,
                                       const HalideTrainOptions& options) {
  if (samples.empty()) throw std::invalid_argument("train_halide_model: no samples");
  Rng rng(options.seed);
  nn::AdamWOptions ao;
  ao.weight_decay = options.weight_decay;
  nn::AdamW optimizer(model.parameters(), ao);
  const std::int64_t steps_per_epoch =
      (static_cast<std::int64_t>(samples.size()) + options.batch_size - 1) / options.batch_size;
  nn::OneCycleLR schedule(&optimizer, options.max_lr,
                          std::max<std::int64_t>(1, options.epochs * steps_per_epoch));

  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> losses;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    double sum = 0;
    std::int64_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(options.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(options.batch_size));
      std::vector<const HalideSample*> batch;
      batch.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) batch.push_back(&samples[order[i]]);
      sum += model.train_step(batch, optimizer, rng);
      schedule.step();
      ++batches;
    }
    losses.push_back(sum / static_cast<double>(batches));
    if (options.verbose && (epoch % 10 == 0 || epoch + 1 == options.epochs))
      log_info() << "halide-baseline epoch " << epoch << " mse(log t) " << losses.back();
  }
  return losses;
}

HalideEvaluator::HalideEvaluator(HalideCostModel* model, sim::MachineSpec spec)
    : model_(model), spec_(spec) {
  if (!model_) throw std::invalid_argument("HalideEvaluator: null model");
}

std::vector<double> HalideEvaluator::evaluate(
    const ir::Program& p, const std::vector<transforms::Schedule>& candidates) {
  const auto t0 = support::now();
  const double base = model_->predict_seconds(p, spec_);
  std::vector<double> speedups;
  speedups.reserve(candidates.size());
  for (const transforms::Schedule& s : candidates) {
    const ir::Program transformed = transforms::apply_schedule(p, s);
    speedups.push_back(base / model_->predict_seconds(transformed, spec_));
    ++evaluations_;
  }
  accounted_seconds_ += support::seconds_since(t0);
  return speedups;
}

}  // namespace tcm::baselines
