#include "model/cost_model.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace tcm::model {
namespace {

std::vector<int> concat_sizes(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

}  // namespace

std::vector<int> comps_in_tree_order(const LoopTreeNode& root) {
  std::vector<int> order;
  append_comps_in_tree_order(root, order);
  return order;
}

void append_comps_in_tree_order(const LoopTreeNode& root, std::vector<int>& order) {
  for (int c : root.comps) order.push_back(c);
  for (const LoopTreeNode& child : root.children) append_comps_in_tree_order(child, order);
}

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

CostModel::CostModel(const ModelConfig& config, Rng& rng) : config_(config) {
  const int f = config.features.computation_vector_size();
  const int e = config.embed_size;
  comp_embedding_ = std::make_unique<nn::MLP>(concat_sizes(f, config.embed_hidden, e),
                                              config.dropout, rng, "comp_embed");
  comps_lstm_ = std::make_unique<nn::LSTMCell>(e, e, rng, "comps_lstm");
  loops_lstm_ = std::make_unique<nn::LSTMCell>(e, e, rng, "loops_lstm");
  merge_ = std::make_unique<nn::MLP>(concat_sizes(2 * e, config.merge_hidden, e), config.dropout,
                                     rng, "merge");
  regression_ = std::make_unique<nn::MLP>(concat_sizes(e, config.regress_hidden, 1),
                                          config.dropout, rng, "regression",
                                          /*activate_last=*/false);
  register_submodule("comp_embed", comp_embedding_.get());
  register_submodule("comps_lstm", comps_lstm_.get());
  register_submodule("loops_lstm", loops_lstm_.get());
  register_submodule("merge", merge_.get());
  register_submodule("regression", regression_.get());
}

nn::Variable CostModel::embed_node(const LoopTreeNode& node,
                                   const std::vector<nn::Variable>& comp_embeds, int batch,
                                   bool training, Rng& rng) const {
  // First LSTM: computations nested directly at this level, in order.
  nn::LSTMCell::State comp_state = comps_lstm_->initial_state(batch);
  for (int ci : node.comps)
    comp_state = comps_lstm_->forward(comp_embeds[static_cast<std::size_t>(ci)], comp_state);

  // Second LSTM: child loop embeddings, in order.
  nn::LSTMCell::State loop_state = loops_lstm_->initial_state(batch);
  for (const LoopTreeNode& child : node.children)
    loop_state =
        loops_lstm_->forward(embed_node(child, comp_embeds, batch, training, rng), loop_state);

  return merge_->forward(nn::concat_cols(comp_state.h, loop_state.h), training, rng);
}

nn::Variable CostModel::forward_batch(const Batch& batch, bool training, Rng& rng) {
  if (!batch.tree) throw std::invalid_argument("CostModel: batch without tree");
  std::vector<nn::Variable> comp_embeds;
  comp_embeds.reserve(batch.comp_inputs.size());
  for (const nn::Tensor& x : batch.comp_inputs)
    comp_embeds.push_back(comp_embedding_->forward(nn::Variable(x), training, rng));
  const nn::Variable program_embedding =
      embed_node(*batch.tree, comp_embeds, batch.batch_size(), training, rng);
  return nn::exp_bounded(regression_->forward(program_embedding, training, rng),
                         config_.exp_head_limit);
}

struct CostModel::Plan {
  nn::PackedMLP comp_embed, merge, regression;
  nn::PackedLSTMCell comps_lstm, loops_lstm;
};

// State shared by one deduplicated walk. Computation c of batch row r is
// embedded in row comp_rows[c * batch + r] of comp_embeds; rows of equal
// bytes share one embedding.
struct CostModel::Walk {
  const Plan& plan;
  nn::InferenceArena& arena;
  int batch;
  const nn::Tensor& comp_embeds;
  const int* comp_rows;
};

namespace {

// dst row i = src row keys[reps[i] * stride]: the input of distinct row i,
// read through the key of the batch row that represents it.
void gather_rows(const nn::Tensor& src, const int* keys, int stride, const int* reps,
                 nn::Tensor& dst) {
  const std::size_t cols = static_cast<std::size_t>(src.cols());
  for (int i = 0; i < dst.rows(); ++i) {
    const float* row = src.data() + static_cast<std::size_t>(keys[reps[i] * stride]) * cols;
    std::copy(row, row + cols, dst.data() + static_cast<std::size_t>(i) * cols);
  }
}

}  // namespace

const nn::Tensor& CostModel::infer_node(const LoopTreeNode& node, const Walk& walk,
                                        int* row_class) const {
  const int b = walk.batch;
  const int e = config_.embed_size;
  const int nc = static_cast<int>(node.comps.size());
  const int k = nc + static_cast<int>(node.children.size());
  nn::InferenceArena& arena = walk.arena;

  // Key of each batch row: its computations' embedding rows, then its
  // children's classes. Rows with equal keys have bitwise-equal inputs at
  // every step below, hence equal outputs.
  const std::span<int> keys = arena.alloc_ints(static_cast<std::size_t>(b) * k);
  for (int j = 0; j < nc; ++j) {
    const int* rows = walk.comp_rows + static_cast<std::size_t>(node.comps[j]) * b;
    for (int r = 0; r < b; ++r) keys[static_cast<std::size_t>(r) * k + j] = rows[r];
  }
  // Child embeddings are stacked on ptr_scratch; each call pops what it pushed.
  std::vector<const nn::Tensor*>& child_embeds = arena.ptr_scratch();
  const std::size_t base = child_embeds.size();
  const std::span<int> child_class = arena.alloc_ints(static_cast<std::size_t>(b));
  for (int j = nc; j < k; ++j) {
    child_embeds.push_back(
        &infer_node(node.children[static_cast<std::size_t>(j - nc)], walk, child_class.data()));
    for (int r = 0; r < b; ++r) keys[static_cast<std::size_t>(r) * k + j] = child_class[r];
  }
  const std::span<int> reps = arena.alloc_ints(static_cast<std::size_t>(b));
  const int u = nn::row_classes(keys.data(), b, k, row_class, reps.data(),
                                arena.alloc_ints(nn::row_classes_scratch(b)).data());

  // First LSTM: computations nested directly at this level, in order.
  nn::Tensor& comp_h = arena.alloc(u, e);
  nn::Tensor& comp_c = arena.alloc(u, e);
  comp_h.fill(0.0f);
  comp_c.fill(0.0f);
  for (int j = 0; j < nc; ++j) {
    nn::Tensor& x = arena.alloc(u, e);
    gather_rows(walk.comp_embeds, keys.data() + j, k, reps.data(), x);
    walk.plan.comps_lstm.step(x, comp_h, comp_c, arena);
  }

  // Second LSTM: child loop embeddings, in order.
  nn::Tensor& loop_h = arena.alloc(u, e);
  nn::Tensor& loop_c = arena.alloc(u, e);
  loop_h.fill(0.0f);
  loop_c.fill(0.0f);
  for (int j = nc; j < k; ++j) {
    nn::Tensor& x = arena.alloc(u, e);
    gather_rows(*child_embeds[base + static_cast<std::size_t>(j - nc)], keys.data() + j, k,
                reps.data(), x);
    walk.plan.loops_lstm.step(x, loop_h, loop_c, arena);
  }
  child_embeds.resize(base);

  nn::Tensor& merged_in = arena.alloc(u, 2 * e);
  for (int r = 0; r < u; ++r) {
    float* dst = merged_in.data() + static_cast<std::size_t>(r) * 2 * e;
    std::copy(comp_h.data() + static_cast<std::size_t>(r) * e,
              comp_h.data() + static_cast<std::size_t>(r + 1) * e, dst);
    std::copy(loop_h.data() + static_cast<std::size_t>(r) * e,
              loop_h.data() + static_cast<std::size_t>(r + 1) * e, dst + e);
  }
  return walk.plan.merge.forward(merged_in, arena);
}

const nn::Tensor& CostModel::infer_batch(const Batch& batch, nn::InferenceArena& arena) {
  if (!batch.tree) throw std::invalid_argument("CostModel: batch without tree");
  const Plan& plan = plan_.get([this] {
    Plan p;
    p.comp_embed = nn::PackedMLP::pack(*comp_embedding_);
    p.merge = nn::PackedMLP::pack(*merge_);
    p.regression = nn::PackedMLP::pack(*regression_);
    p.comps_lstm = nn::PackedLSTMCell::pack(*comps_lstm_);
    p.loops_lstm = nn::PackedLSTMCell::pack(*loops_lstm_);
    return p;
  });
  arena.reset();
  const int b = batch.batch_size();
  const int f = config_.features.computation_vector_size();
  const std::size_t nc = batch.comp_inputs.size();

  // Byte-equality classes of every computation's rows; the distinct rows of
  // all computations are embedded together in one MLP pass.
  const std::span<int> comp_rows = arena.alloc_ints(nc * b);
  const std::span<int> reps = arena.alloc_ints(nc * b);
  const std::span<int> distinct = arena.alloc_ints(nc);
  const std::span<int> table = arena.alloc_ints(nn::row_classes_scratch(b));
  int total = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    const nn::Tensor& x = batch.comp_inputs[c];
    if (x.rows() != b || x.cols() != f)
      throw std::invalid_argument("CostModel: computation input " + x.shape_string() +
                                  ", expected [" + std::to_string(b) + ", " +
                                  std::to_string(f) + "]");
    int* rows = comp_rows.data() + c * b;
    distinct[c] = nn::row_classes(x.data(), b, f, rows, reps.data() + c * b, table.data());
    for (int r = 0; r < b; ++r) rows[r] += total;
    total += distinct[c];
  }
  nn::Tensor& comp_in = arena.alloc(total, f);
  float* dst = comp_in.data();
  for (std::size_t c = 0; c < nc; ++c)
    for (int i = 0; i < distinct[c]; ++i) {
      const float* src = batch.comp_inputs[c].data() +
                         static_cast<std::size_t>(reps[c * b + i]) * static_cast<std::size_t>(f);
      dst = std::copy(src, src + f, dst);
    }
  const Walk walk{plan, arena, b, plan.comp_embed.forward(comp_in, arena), comp_rows.data()};

  const std::span<int> root_class = arena.alloc_ints(static_cast<std::size_t>(b));
  const nn::Tensor& program_embedding = infer_node(*batch.tree, walk, root_class.data());
  nn::Tensor& head = plan.regression.forward(program_embedding, arena);
  nn::exp_bounded_inplace(head, config_.exp_head_limit);
  nn::Tensor& out = arena.alloc(b, 1);
  for (int r = 0; r < b; ++r) out.data()[r] = head.data()[root_class[r]];
  return out;
}

// ---------------------------------------------------------------------------
// LstmOnlyModel
// ---------------------------------------------------------------------------

LstmOnlyModel::LstmOnlyModel(const ModelConfig& config, Rng& rng) : config_(config) {
  const int f = config.features.computation_vector_size();
  const int e = config.embed_size;
  comp_embedding_ = std::make_unique<nn::MLP>(concat_sizes(f, config.embed_hidden, e),
                                              config.dropout, rng, "comp_embed");
  lstm_ = std::make_unique<nn::LSTMCell>(e, e, rng, "lstm");
  regression_ = std::make_unique<nn::MLP>(concat_sizes(e, config.regress_hidden, 1),
                                          config.dropout, rng, "regression",
                                          /*activate_last=*/false);
  register_submodule("comp_embed", comp_embedding_.get());
  register_submodule("lstm", lstm_.get());
  register_submodule("regression", regression_.get());
}

nn::Variable LstmOnlyModel::forward_batch(const Batch& batch, bool training, Rng& rng) {
  if (!batch.tree) throw std::invalid_argument("LstmOnlyModel: batch without tree");
  nn::LSTMCell::State state = lstm_->initial_state(batch.batch_size());
  for (int ci : comps_in_tree_order(*batch.tree)) {
    const nn::Variable embed = comp_embedding_->forward(
        nn::Variable(batch.comp_inputs[static_cast<std::size_t>(ci)]), training, rng);
    state = lstm_->forward(embed, state);
  }
  return nn::exp_bounded(regression_->forward(state.h, training, rng), config_.exp_head_limit);
}

struct LstmOnlyModel::Plan {
  nn::PackedMLP comp_embed, regression;
  nn::PackedLSTMCell lstm;
};

const nn::Tensor& LstmOnlyModel::infer_batch(const Batch& batch, nn::InferenceArena& arena) {
  if (!batch.tree) throw std::invalid_argument("LstmOnlyModel: batch without tree");
  const Plan& plan = plan_.get([this] {
    Plan p;
    p.comp_embed = nn::PackedMLP::pack(*comp_embedding_);
    p.regression = nn::PackedMLP::pack(*regression_);
    p.lstm = nn::PackedLSTMCell::pack(*lstm_);
    return p;
  });
  arena.reset();
  const int b = batch.batch_size();
  const int e = config_.embed_size;
  std::vector<int>& order = arena.index_scratch();
  append_comps_in_tree_order(*batch.tree, order);
  nn::Tensor& h = arena.alloc(b, e);
  nn::Tensor& c = arena.alloc(b, e);
  h.fill(0.0f);
  c.fill(0.0f);
  for (int ci : order) {
    const nn::Tensor& embed =
        plan.comp_embed.forward(batch.comp_inputs[static_cast<std::size_t>(ci)], arena);
    plan.lstm.step(embed, h, c, arena);
  }
  nn::Tensor& out = plan.regression.forward(h, arena);
  nn::exp_bounded_inplace(out, config_.exp_head_limit);
  return out;
}

// ---------------------------------------------------------------------------
// FeedForwardModel
// ---------------------------------------------------------------------------

FeedForwardModel::FeedForwardModel(const ModelConfig& config, Rng& rng) : config_(config) {
  const int f = config.features.computation_vector_size();
  const int e = config.embed_size;
  comp_embedding_ = std::make_unique<nn::MLP>(concat_sizes(f, config.embed_hidden, e),
                                              config.dropout, rng, "comp_embed");
  regression_ = std::make_unique<nn::MLP>(
      concat_sizes(e * config.ff_max_comps, config.regress_hidden, 1), config.dropout, rng,
      "regression", /*activate_last=*/false);
  register_submodule("comp_embed", comp_embedding_.get());
  register_submodule("regression", regression_.get());
}

nn::Variable FeedForwardModel::forward_batch(const Batch& batch, bool training, Rng& rng) {
  if (!batch.tree) throw std::invalid_argument("FeedForwardModel: batch without tree");
  if (batch.num_comps() > config_.ff_max_comps)
    throw std::invalid_argument("FeedForwardModel: program has " +
                                std::to_string(batch.num_comps()) + " computations, supports <= " +
                                std::to_string(config_.ff_max_comps));
  nn::Variable concat;
  const std::vector<int> order = comps_in_tree_order(*batch.tree);
  for (int ci : order) {
    const nn::Variable embed = comp_embedding_->forward(
        nn::Variable(batch.comp_inputs[static_cast<std::size_t>(ci)]), training, rng);
    concat = concat.defined() ? nn::concat_cols(concat, embed) : embed;
  }
  // Zero-pad to the fixed capacity.
  const int missing = config_.ff_max_comps - static_cast<int>(order.size());
  if (missing > 0) {
    nn::Variable pad(nn::Tensor::zeros(batch.batch_size(), missing * config_.embed_size));
    concat = concat.defined() ? nn::concat_cols(concat, pad) : pad;
  }
  return nn::exp_bounded(regression_->forward(concat, training, rng), config_.exp_head_limit);
}

struct FeedForwardModel::Plan {
  nn::PackedMLP comp_embed, regression;
};

const nn::Tensor& FeedForwardModel::infer_batch(const Batch& batch, nn::InferenceArena& arena) {
  if (!batch.tree) throw std::invalid_argument("FeedForwardModel: batch without tree");
  if (batch.num_comps() > config_.ff_max_comps)
    throw std::invalid_argument("FeedForwardModel: program has " +
                                std::to_string(batch.num_comps()) + " computations, supports <= " +
                                std::to_string(config_.ff_max_comps));
  const Plan& plan = plan_.get([this] {
    Plan p;
    p.comp_embed = nn::PackedMLP::pack(*comp_embedding_);
    p.regression = nn::PackedMLP::pack(*regression_);
    return p;
  });
  arena.reset();
  const int b = batch.batch_size();
  const int e = config_.embed_size;
  std::vector<int>& order = arena.index_scratch();
  append_comps_in_tree_order(*batch.tree, order);
  // Concatenated comp embeddings, zero-padded to the fixed capacity.
  nn::Tensor& concat = arena.alloc(b, e * config_.ff_max_comps);
  concat.fill(0.0f);
  int col = 0;
  for (int ci : order) {
    const nn::Tensor& embed =
        plan.comp_embed.forward(batch.comp_inputs[static_cast<std::size_t>(ci)], arena);
    for (int r = 0; r < b; ++r)
      std::copy(embed.data() + static_cast<std::size_t>(r) * e,
                embed.data() + static_cast<std::size_t>(r + 1) * e,
                concat.data() + static_cast<std::size_t>(r) * concat.cols() + col);
    col += e;
  }
  nn::Tensor& out = plan.regression.forward(concat, arena);
  nn::exp_bounded_inplace(out, config_.exp_head_limit);
  return out;
}

}  // namespace tcm::model
