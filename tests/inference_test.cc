// Tests for the tape-free fused inference engine (src/nn/inference.h):
// arena reuse and the zero-allocation steady state, fused-kernel
// correctness, autograd-vs-inference numerical parity for all three
// architectures over randomized program structures, plan invalidation after
// parameter mutation, concurrent infer_batch on one model, and the
// byte-equality row classes behind CostModel's deduplicated walk, checked
// bitwise against batch-of-1 scoring on beam-search bursts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "datagen/dataset_builder.h"
#include "datagen/generator.h"
#include "model/cost_model.h"
#include "model/train.h"
#include "nn/inference.h"
#include "nn/ops.h"
#include "search/beam_search.h"

namespace tcm::nn {
namespace {

Tensor random_tensor(int rows, int cols, Rng& rng) {
  Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng.uniform_real(-1.5, 1.5));
  return t;
}

// ---------------------------------------------------------------------------
// InferenceArena
// ---------------------------------------------------------------------------

TEST(InferenceArena, ReusesBuffersAfterReset) {
  InferenceArena arena;
  Tensor& a = arena.alloc(4, 8);
  Tensor& b = arena.alloc(2, 2);
  EXPECT_EQ(arena.buffers(), 2u);
  EXPECT_EQ(arena.heap_allocations(), 2u);
  float* pa = a.data();
  arena.reset();
  Tensor& a2 = arena.alloc(4, 8);
  Tensor& b2 = arena.alloc(2, 2);
  EXPECT_EQ(&a, &a2);            // same slot, in order
  EXPECT_EQ(&b, &b2);
  EXPECT_EQ(a2.data(), pa);      // same storage: no reallocation
  EXPECT_EQ(arena.heap_allocations(), 2u);
}

TEST(InferenceArena, ShrinkingReshapeDoesNotAllocate) {
  InferenceArena arena;
  arena.alloc(8, 8);
  const std::uint64_t after_first = arena.heap_allocations();
  arena.reset();
  Tensor& t = arena.alloc(2, 3);  // smaller: fits in the existing capacity
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(arena.heap_allocations(), after_first);
  arena.reset();
  arena.alloc(32, 32);  // growth is counted
  EXPECT_GT(arena.heap_allocations(), after_first);
}

TEST(InferenceArena, LaterAllocsDoNotInvalidateEarlierBuffers) {
  InferenceArena arena;
  Tensor& first = arena.alloc(2, 2);
  first.fill(7.0f);
  for (int i = 0; i < 100; ++i) arena.alloc(16, 16);
  EXPECT_EQ(first.at(1, 1), 7.0f);  // deque pool: no relocation
}

TEST(InferenceArena, IntBlocksAreCountedAndReused) {
  InferenceArena arena;
  arena.alloc_ints(10);
  arena.alloc_ints(20);
  EXPECT_EQ(arena.heap_allocations(), 2u);
  arena.reset();
  EXPECT_EQ(arena.alloc_ints(8).size(), 8u);
  arena.alloc_ints(20);
  EXPECT_EQ(arena.heap_allocations(), 2u);
  arena.reset();
  arena.alloc_ints(11);  // larger than the first slot's capacity
  EXPECT_EQ(arena.heap_allocations(), 3u);
}

// ---------------------------------------------------------------------------
// row_classes
// ---------------------------------------------------------------------------

TEST(RowClasses, ByteEqualityNotFloatEquality) {
  const float nan_a = std::bit_cast<float>(0x7fc00001u);
  const float nan_b = std::bit_cast<float>(0x7fc00002u);
  // Rows of two floats: 0.0 and -0.0 compare equal as floats, NaNs never do.
  const float rows[] = {0.0f, 1.0f, -0.0f, 1.0f, nan_a, 2.0f,
                        nan_b, 2.0f, 0.0f, 1.0f, nan_a, 2.0f};
  int class_of[6], reps[6];
  std::vector<int> scratch(row_classes_scratch(6));
  ASSERT_EQ(row_classes(rows, 6, 2, class_of, reps, scratch.data()), 4);
  EXPECT_EQ(std::vector<int>(class_of, class_of + 6), (std::vector<int>{0, 1, 2, 3, 0, 2}));
  EXPECT_EQ(std::vector<int>(reps, reps + 4), (std::vector<int>{0, 1, 2, 3}));
}

TEST(RowClasses, MatchesPairwiseMemcmpOnManyRows) {
  // 300 int rows drawn from 23 patterns: enough rows for long probe chains.
  const int n = 300, words = 3;
  Rng rng(5);
  std::vector<int> keys(static_cast<std::size_t>(n) * words);
  for (int r = 0; r < n; ++r) {
    const int pattern = static_cast<int>(rng.uniform_int(0, 22));
    for (int w = 0; w < words; ++w)
      keys[static_cast<std::size_t>(r) * words + w] = pattern * (w + 7);
  }
  std::vector<int> class_of(n), reps(n), scratch(row_classes_scratch(n));
  const int u = row_classes(keys.data(), n, words, class_of.data(), reps.data(), scratch.data());
  EXPECT_LE(u, 23);
  for (int a = 0; a < n; ++a) {
    EXPECT_LE(reps[static_cast<std::size_t>(class_of[a])], a);
    for (int b = 0; b < a; ++b) {
      const bool same = std::memcmp(&keys[static_cast<std::size_t>(a) * words],
                                    &keys[static_cast<std::size_t>(b) * words],
                                    words * sizeof(int)) == 0;
      EXPECT_EQ(class_of[a] == class_of[b], same) << a << " vs " << b;
    }
  }
}

TEST(RowClasses, ZeroWidthRowsAreOneClass) {
  int class_of[3], reps[3];
  std::vector<int> scratch(row_classes_scratch(3));
  EXPECT_EQ(row_classes(nullptr, 3, 0, class_of, reps, scratch.data()), 1);
  EXPECT_EQ(std::vector<int>(class_of, class_of + 3), (std::vector<int>{0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Fused kernels vs the autograd ops
// ---------------------------------------------------------------------------

TEST(FusedKernels, LinearForwardMatchesOps) {
  Rng rng(1);
  const Tensor x = random_tensor(5, 7, rng);
  const Tensor w = random_tensor(7, 3, rng);
  const Tensor b = random_tensor(1, 3, rng);
  InferenceArena arena;
  Tensor& out = arena.alloc(5, 3);
  linear_forward(x, w, b, out);
  const Variable ref = add(matmul(Variable(x), Variable(w)), Variable(b));
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(out.at(r, c), ref.value().at(r, c), 1e-6f);
}

TEST(FusedKernels, LinearEluMatchesOps) {
  Rng rng(2);
  const Tensor x = random_tensor(4, 6, rng);
  const Tensor w = random_tensor(6, 5, rng);
  const Tensor b = random_tensor(1, 5, rng);
  InferenceArena arena;
  Tensor& out = arena.alloc(4, 5);
  linear_elu(x, w, b, out);
  const Variable ref = elu(add(matmul(Variable(x), Variable(w)), Variable(b)));
  // The fused ELU uses the polynomial exp: compare within the engine's
  // documented tolerance, not bitwise.
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 5; ++c) EXPECT_NEAR(out.at(r, c), ref.value().at(r, c), 1e-5f);
}

TEST(FusedKernels, ExpBoundedInplaceMatchesOps) {
  Rng rng(3);
  Tensor x = random_tensor(3, 4, rng);
  const Variable ref = exp_bounded(Variable(x), 16.0f);
  exp_bounded_inplace(x, 16.0f);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_NEAR(x.at(r, c) / ref.value().at(r, c), 1.0f, 1e-5f);
}

TEST(FusedKernels, PackedLstmStepMatchesCell) {
  Rng rng(4);
  LSTMCell cell(6, 5, rng);
  const PackedLSTMCell packed = PackedLSTMCell::pack(cell);
  EXPECT_EQ(packed.w.rows(), 6 + 5);
  EXPECT_EQ(packed.w.cols(), 4 * 5);

  const int batch = 3;
  const Tensor x1 = random_tensor(batch, 6, rng);
  const Tensor x2 = random_tensor(batch, 6, rng);

  // Reference: two autograd steps.
  LSTMCell::State state = cell.initial_state(batch);
  state = cell.forward(Variable(x1), state);
  state = cell.forward(Variable(x2), state);

  // Fused: two in-place steps.
  InferenceArena arena;
  Tensor& h = arena.alloc(batch, 5);
  Tensor& c = arena.alloc(batch, 5);
  h.fill(0.0f);
  c.fill(0.0f);
  packed.step(x1, h, c, arena);
  packed.step(x2, h, c, arena);

  for (int r = 0; r < batch; ++r)
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(h.at(r, j), state.h.value().at(r, j), 1e-5f);
      EXPECT_NEAR(c.at(r, j), state.c.value().at(r, j), 1e-5f);
    }
}

}  // namespace
}  // namespace tcm::nn

namespace tcm::model {
namespace {

Dataset structured_dataset(int programs, int schedules, std::uint64_t seed = 7) {
  datagen::DatasetBuildOptions opt;
  opt.num_programs = programs;
  opt.schedules_per_program = schedules;
  opt.features = FeatureConfig::fast();
  opt.seed = seed;
  return datagen::build_dataset(opt);
}

// Maximum relative error between fused inference and the autograd forward
// over every batch of the dataset the predictor accepts. `skipped` counts
// batches the architecture rejects (FeedForwardModel capacity).
double max_parity_rel_err(SpeedupPredictor& m, const std::vector<Batch>& batches,
                          int* skipped = nullptr) {
  nn::InferenceArena arena;
  Rng rng(0);
  double worst = 0;
  for (const Batch& b : batches) {
    nn::Variable ref;
    try {
      ref = m.forward_batch(b, /*training=*/false, rng);
    } catch (const std::invalid_argument&) {
      if (skipped) ++*skipped;
      continue;
    }
    const nn::Tensor& fast = m.infer_batch(b, arena);
    EXPECT_EQ(fast.rows(), b.batch_size());
    EXPECT_EQ(fast.cols(), 1);
    for (int r = 0; r < fast.rows(); ++r) {
      const double a = static_cast<double>(fast.at(r, 0));
      const double e = static_cast<double>(ref.value().at(r, 0));
      worst = std::max(worst, std::abs(a - e) / std::max(std::abs(e), 1e-12));
    }
  }
  return worst;
}

// The acceptance bar: inference-vs-autograd parity within 1e-5 relative
// error for all three architectures over randomized program structures.
TEST(InferenceParity, AllArchitecturesWithinRelTolerance) {
  const Dataset ds = structured_dataset(6, 6);
  const auto batches = make_batches(ds, 8);
  ASSERT_GT(batches.size(), 1u);

  Rng r1(1), r2(2), r3(3);
  CostModel cost(ModelConfig::fast(), r1);
  LstmOnlyModel lstm(ModelConfig::fast(), r2);
  FeedForwardModel ff(ModelConfig::fast(), r3);

  EXPECT_LE(max_parity_rel_err(cost, batches), 1e-5);
  EXPECT_LE(max_parity_rel_err(lstm, batches), 1e-5);
  int ff_skipped = 0;
  EXPECT_LE(max_parity_rel_err(ff, batches, &ff_skipped), 1e-5);
  // The ff model must have actually scored something.
  EXPECT_LT(static_cast<std::size_t>(ff_skipped), batches.size());
}

TEST(InferenceParity, FeedForwardRejectsOversizedBatchOnFastPath) {
  const Dataset ds = structured_dataset(6, 4);
  ModelConfig cfg = ModelConfig::fast();
  cfg.ff_max_comps = 1;
  Rng rng(1);
  FeedForwardModel ff(cfg, rng);
  nn::InferenceArena arena;
  bool found_multi = false;
  for (const Batch& b : make_batches(ds, 4)) {
    if (b.num_comps() > 1) {
      found_multi = true;
      EXPECT_THROW(ff.infer_batch(b, arena), std::invalid_argument);
    }
  }
  EXPECT_TRUE(found_multi);
}

// Copies of `f` whose computation vectors differ from every other copy's.
std::vector<FeaturizedProgram> perturbed_copies(const FeaturizedProgram& f, int n) {
  std::vector<FeaturizedProgram> copies(static_cast<std::size_t>(n), f);
  for (int r = 0; r < n; ++r)
    for (std::vector<float>& v : copies[static_cast<std::size_t>(r)].comp_vectors)
      v[0] = 0.5f + 0.25f * static_cast<float>(r);
  return copies;
}

// Rows of one structure whose batch score differs, in any bit, from
// scoring the row alone in a batch of one.
int rows_differing_from_alone(CostModel& m, const std::vector<const FeaturizedProgram*>& rows) {
  nn::InferenceArena arena;
  const nn::Tensor& out = m.infer_batch(make_inference_batch(rows), arena);
  const std::vector<float> together(out.data(), out.data() + out.size());
  int differ = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const float alone = m.infer_batch(make_inference_batch({rows[r]}), arena).at(0, 0);
    if (std::bit_cast<std::uint32_t>(alone) != std::bit_cast<std::uint32_t>(together[r])) ++differ;
  }
  return differ;
}

// Scores every beam-search burst the way the serving tier batches it (one
// batch per tree structure) and checks each batch against batch-of-1 scoring.
class BurstCheckingEvaluator final : public search::CandidateEvaluator {
 public:
  explicit BurstCheckingEvaluator(CostModel& m) : model_(m) {}

  std::vector<double> evaluate(const ir::Program& p,
                               const std::vector<transforms::Schedule>& candidates) override {
    std::vector<FeaturizedProgram> feats;
    std::vector<std::size_t> index;  // candidate of each featurized row
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (auto f = featurize(p, candidates[i], model_.config().features)) {
        feats.push_back(std::move(*f));
        index.push_back(i);
      }
    std::vector<double> scores(candidates.size(), 0.0);
    std::vector<bool> done(feats.size(), false);
    for (std::size_t i = 0; i < feats.size(); ++i) {
      if (done[i]) continue;
      std::vector<const FeaturizedProgram*> rows;
      std::vector<std::size_t> members;
      for (std::size_t j = i; j < feats.size(); ++j)
        if (!done[j] && feats[j].same_structure(feats[i])) {
          done[j] = true;
          rows.push_back(&feats[j]);
          members.push_back(j);
        }
      const Batch batch = make_inference_batch(rows);
      const nn::Tensor& out = model_.infer_batch(batch, arena_);
      for (std::size_t r = 0; r < members.size(); ++r)
        scores[index[members[r]]] = static_cast<double>(out.at(static_cast<int>(r), 0));
      for (const nn::Tensor& x : batch.comp_inputs) {
        std::vector<int> class_of(rows.size()), reps(rows.size()),
            scratch(nn::row_classes_scratch(x.rows()));
        if (nn::row_classes(x.data(), x.rows(), x.cols(), class_of.data(), reps.data(),
                            scratch.data()) < x.rows()) {
          ++batches_with_duplicates;
          break;
        }
      }
      mismatches += rows_differing_from_alone(model_, rows);
      rows_checked += static_cast<int>(rows.size());
    }
    evaluations_ += static_cast<std::int64_t>(candidates.size());
    return scores;
  }
  double accounted_seconds() const override { return 0; }
  std::int64_t evaluations() const override { return evaluations_; }
  const char* kind() const override { return "burst-check"; }

  int rows_checked = 0;
  int mismatches = 0;
  int batches_with_duplicates = 0;

 private:
  CostModel& model_;
  nn::InferenceArena arena_;
  std::int64_t evaluations_ = 0;
};

// The deduplicated walk on real search traffic: every burst beam search
// sends for three generated programs scores bitwise-equal to batch-of-1.
TEST(InferenceDedup, BeamSearchBurstsMatchBatchOfOneBitwise) {
  Rng rng(3);
  CostModel m(ModelConfig::fast(), rng);
  BurstCheckingEvaluator eval(m);
  const datagen::RandomProgramGenerator gen;
  int programs = 0;
  for (std::uint64_t seed = 1; programs < 3; ++seed) {
    const ir::Program p = gen.generate(seed);
    if (p.comps.empty()) continue;
    ++programs;
    search::beam_search(p, eval, {});
  }
  EXPECT_GT(eval.rows_checked, 100);
  EXPECT_GT(eval.batches_with_duplicates, 0);
  EXPECT_EQ(eval.mismatches, 0);
}

TEST(InferenceDedup, IdenticalAndAllDistinctRowsMatchBatchOfOneBitwise) {
  const Dataset ds = structured_dataset(2, 2);
  Rng rng(4);
  CostModel m(ModelConfig::fast(), rng);
  for (const DataPoint& point : ds.points) {
    const std::vector<const FeaturizedProgram*> identical(16, &point.feats);
    EXPECT_EQ(rows_differing_from_alone(m, identical), 0);
    const std::vector<FeaturizedProgram> copies = perturbed_copies(point.feats, 16);
    std::vector<const FeaturizedProgram*> distinct;
    for (const FeaturizedProgram& f : copies) distinct.push_back(&f);
    EXPECT_EQ(rows_differing_from_alone(m, distinct), 0);
  }
}

// The acceptance bar: steady-state infer_batch performs zero heap
// allocations, asserted via the arena allocation counter — including when
// differently-shaped structures, duplicate-heavy and all-distinct batches
// alternate through one arena.
TEST(InferenceArenaSteadyState, ZeroAllocationsOnceWarm) {
  const Dataset ds = structured_dataset(5, 6);
  std::vector<Batch> batches = make_batches(ds, 8);
  const FeaturizedProgram& f = ds.points.front().feats;
  const std::vector<FeaturizedProgram> copies = perturbed_copies(f, 12);
  std::vector<const FeaturizedProgram*> distinct, duplicates;
  for (const FeaturizedProgram& c : copies) distinct.push_back(&c);
  for (int r = 0; r < 24; ++r) duplicates.push_back(r % 5 == 0 ? &copies[1] : &f);
  batches.push_back(make_inference_batch(distinct));
  batches.push_back(make_inference_batch(duplicates));
  Rng rng(1);
  CostModel m(ModelConfig::fast(), rng);
  nn::InferenceArena arena;
  // Warm-up pass: buffers are created and sized.
  for (const Batch& b : batches) m.infer_batch(b, arena);
  const std::uint64_t warm = arena.heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int rep = 0; rep < 10; ++rep)
    for (const Batch& b : batches) m.infer_batch(b, arena);
  EXPECT_EQ(arena.heap_allocations(), warm);
}

TEST(InferencePlan, StaleAfterParameterMutationUntilInvalidated) {
  const Dataset ds = structured_dataset(2, 4);
  const auto batches = make_batches(ds, 8);
  Rng rng(1);
  CostModel m(ModelConfig::fast(), rng);
  nn::InferenceArena arena;
  const float before = m.infer_batch(batches[0], arena).at(0, 0);

  // Mutate the parameters the way training would (in place).
  for (nn::Parameter* p : m.parameters()) p->var.mutable_value().scale_(1.05f);

  // The packed LSTM weights were copied at pack time, so without
  // invalidation the fast path is (by design) allowed to be stale; after
  // invalidate_inference it must track the autograd forward again.
  m.invalidate_inference();
  Rng r0(0);
  const float ref = m.forward_batch(batches[0], /*training=*/false, r0).value().at(0, 0);
  const float after = m.infer_batch(batches[0], arena).at(0, 0);
  EXPECT_NE(before, after);
  EXPECT_NEAR(after / ref, 1.0f, 1e-5f);
}

// predict() rides the fast path and must agree with a hand-rolled autograd
// evaluation loop (this is what per-epoch validation during training uses).
TEST(InferencePredict, MatchesAutogradEvaluation) {
  const Dataset ds = structured_dataset(3, 5);
  Rng rng(9);
  CostModel m(ModelConfig::fast(), rng);
  const std::vector<double> fast = predict(m, ds, 16);
  ASSERT_EQ(fast.size(), ds.size());
  Rng r0(0);
  for (const Batch& b : make_batches(ds, 16)) {
    const nn::Variable ref = m.forward_batch(b, /*training=*/false, r0);
    for (int r = 0; r < ref.rows(); ++r) {
      const double e = static_cast<double>(ref.value().at(r, 0));
      EXPECT_NEAR(fast[b.point_indices[static_cast<std::size_t>(r)]] / e, 1.0, 1e-5);
    }
  }
}

// Concurrent infer_batch on one model instance: per-thread arenas, a shared
// lazily-built plan (first calls race on purpose), bitwise-identical results
// across threads and repetitions.
TEST(InferenceConcurrency, ConcurrentInferBatchIsDeterministic) {
  const Dataset ds = structured_dataset(4, 6);
  const auto batches = make_batches(ds, 8);
  Rng rng(1);
  CostModel m(ModelConfig::fast(), rng);

  // Single-thread reference through a private arena (fresh model state: the
  // plan gets built lazily by whichever caller is first).
  std::vector<std::vector<float>> expected;
  {
    nn::InferenceArena arena;
    for (const Batch& b : batches) {
      const nn::Tensor& p = m.infer_batch(b, arena);
      std::vector<float> row(p.data(), p.data() + p.size());
      expected.push_back(std::move(row));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      nn::InferenceArena arena;
      for (int rep = 0; rep < 5; ++rep)
        for (std::size_t bi = 0; bi < batches.size(); ++bi) {
          const nn::Tensor& p = m.infer_batch(batches[bi], arena);
          for (std::size_t i = 0; i < p.size(); ++i)
            if (p.data()[i] != expected[bi][i]) ++mismatches;
        }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace tcm::model
