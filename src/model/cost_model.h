// The paper's cost model (Section 4.4, Figure 2) plus the two ablation
// architectures of the "Other Neural Network Models Explored" paragraph.
//
//   CostModel      : computation embedding MLP -> recursive loop embedding
//                    (two LSTMs + merge FF per loop node, applied along the
//                    program tree) -> regression MLP. Predicts the speedup
//                    of (program, schedule) relative to the untransformed
//                    program.
//   LstmOnlyModel  : same computation embeddings, but a flat LSTM over the
//                    sequence of computations (no loop hierarchy).
//   FeedForwardModel: concatenated computation embeddings (up to a fixed
//                    number of computations) into the regression MLP.
#pragma once

#include <memory>
#include <string>

#include "model/dataset.h"
#include "nn/inference.h"
#include "nn/modules.h"
#include "nn/ops.h"

namespace tcm::model {

struct ModelConfig {
  FeatureConfig features;
  std::vector<int> embed_hidden = {600, 350, 200};  // paper's appendix A.1
  int embed_size = 180;
  std::vector<int> merge_hidden = {200};
  std::vector<int> regress_hidden = {200, 180};
  float dropout = 0.225f;
  int ff_max_comps = 4;  // FeedForwardModel capacity (the paper used 4)
  // Speedups span several orders of magnitude (0.005..100 in the paper's
  // Figure 4); the regression layer therefore predicts log-speedup and the
  // head exponentiates (bounded), keeping predictions positive by design.
  float exp_head_limit = 16.0f;

  static ModelConfig paper() {
    ModelConfig c;
    c.features = FeatureConfig::paper();
    return c;
  }

  // Reduced widths for minutes-scale experiments; same architecture.
  // Dropout is disabled: the paper's 0.225 regularizes 700-epoch training on
  // 1.8M samples, while at this scale it just prevents the fit (measured in
  // the training-recipe sweep, see EXPERIMENTS.md).
  static ModelConfig fast() {
    ModelConfig c;
    c.features = FeatureConfig::fast();
    c.embed_hidden = {160, 96};
    c.embed_size = 64;
    c.merge_hidden = {80};
    c.regress_hidden = {80, 48};
    c.dropout = 0.0f;
    return c;
  }
};

// Common interface for everything that predicts a batch of speedups; lets
// the trainer, the evaluator, the search and the serving subsystem treat all
// three architectures uniformly.
class SpeedupPredictor {
 public:
  virtual ~SpeedupPredictor() = default;
  // Returns predictions [B, 1] for a structure-homogeneous batch.
  //
  // Thread-safety contract (relied on by serve::PredictionService): with
  // training=false the call must be safe to run concurrently from multiple
  // threads on one instance — it may only read module parameters and must
  // not draw from `rng` (dropout is inference-disabled, so implementations
  // built from nn:: modules satisfy this by construction). Callers still
  // pass a per-call Rng so a training=true path can never silently share a
  // stream across threads. Concurrent calls during training (parameter
  // updates in flight) are undefined.
  virtual nn::Variable forward_batch(const Batch& batch, bool training, Rng& rng) = 0;

  // Tape-free inference fast path: predictions [B, 1] without constructing
  // any autograd graph; each architecture implements it as a fused,
  // allocation-free walk. The returned reference points into `arena` and is
  // valid until the arena's next alloc()/reset() — the call itself resets
  // the arena first, so back-to-back calls on one arena just reuse buffers.
  //
  // Thread-safety: same as forward_batch(training=false) provided every
  // thread passes its own arena. The first call may lazily build a
  // packed-weight plan; that build is internally synchronized. Numerically,
  // infer_batch computes each batch row independently (batch-composition
  // invariant) but is NOT bitwise-identical to the autograd path: the packed
  // LSTM sums gate pre-activations in a different order. Parity is within
  // 1e-5 relative error (asserted by inference_test).
  //
  // Deduplication (CostModel): rows are compared by the bytes of their
  // inputs, never with float ==. Each distinct computation vector is
  // embedded once, and each loop node runs once per distinct tuple of the
  // classes below it; results are copied out to every row of the class.
  // Because rows are computed independently, the output is bitwise
  // identical to scoring every row alone (a batch of one).
  virtual const nn::Tensor& infer_batch(const Batch& batch, nn::InferenceArena& arena) = 0;

  // Drops any cached packed-weight plan. Call after mutating parameters
  // (an optimizer step, load_parameters) and before the next infer_batch;
  // must not run concurrently with infer_batch.
  virtual void invalidate_inference() {}

  virtual nn::Module& module() = 0;
  virtual std::string name() const = 0;
};

class CostModel final : public nn::Module, public SpeedupPredictor {
 public:
  CostModel(const ModelConfig& config, Rng& rng);

  nn::Variable forward_batch(const Batch& batch, bool training, Rng& rng) override;
  const nn::Tensor& infer_batch(const Batch& batch, nn::InferenceArena& arena) override;
  void invalidate_inference() override { plan_.invalidate(); }
  nn::Module& module() override { return *this; }
  std::string name() const override { return "recursive-lstm"; }

  const ModelConfig& config() const { return config_; }

 private:
  struct Plan;
  struct Walk;

  nn::Variable embed_node(const LoopTreeNode& node,
                          const std::vector<nn::Variable>& comp_embeds, int batch,
                          bool training, Rng& rng) const;
  // Returns the node's distinct embeddings [U, E] and writes each batch
  // row's class among them (index into those U rows) to row_class[0, B).
  const nn::Tensor& infer_node(const LoopTreeNode& node, const Walk& walk,
                               int* row_class) const;

  ModelConfig config_;
  std::unique_ptr<nn::MLP> comp_embedding_;
  std::unique_ptr<nn::LSTMCell> comps_lstm_;
  std::unique_ptr<nn::LSTMCell> loops_lstm_;
  std::unique_ptr<nn::MLP> merge_;
  std::unique_ptr<nn::MLP> regression_;
  nn::PlanCache<Plan> plan_;
};

class LstmOnlyModel final : public nn::Module, public SpeedupPredictor {
 public:
  LstmOnlyModel(const ModelConfig& config, Rng& rng);

  nn::Variable forward_batch(const Batch& batch, bool training, Rng& rng) override;
  const nn::Tensor& infer_batch(const Batch& batch, nn::InferenceArena& arena) override;
  void invalidate_inference() override { plan_.invalidate(); }
  nn::Module& module() override { return *this; }
  std::string name() const override { return "lstm-only"; }

 private:
  struct Plan;

  ModelConfig config_;
  std::unique_ptr<nn::MLP> comp_embedding_;
  std::unique_ptr<nn::LSTMCell> lstm_;
  std::unique_ptr<nn::MLP> regression_;
  nn::PlanCache<Plan> plan_;
};

class FeedForwardModel final : public nn::Module, public SpeedupPredictor {
 public:
  FeedForwardModel(const ModelConfig& config, Rng& rng);

  // Throws std::invalid_argument when the batch has more computations than
  // ff_max_comps (the architecture's documented limitation).
  nn::Variable forward_batch(const Batch& batch, bool training, Rng& rng) override;
  const nn::Tensor& infer_batch(const Batch& batch, nn::InferenceArena& arena) override;
  void invalidate_inference() override { plan_.invalidate(); }
  nn::Module& module() override { return *this; }
  std::string name() const override { return "feedforward-only"; }

 private:
  struct Plan;

  ModelConfig config_;
  std::unique_ptr<nn::MLP> comp_embedding_;
  std::unique_ptr<nn::MLP> regression_;
  nn::PlanCache<Plan> plan_;
};

// Execution order of computations: a pre-order walk of the tree.
std::vector<int> comps_in_tree_order(const LoopTreeNode& root);
// Allocation-friendly variant: appends into a caller-owned (reusable) vector.
void append_comps_in_tree_order(const LoopTreeNode& root, std::vector<int>& order);

}  // namespace tcm::model
