#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "benchsuite/benchmarks.h"
#include "datagen/generator.h"
#include "search/beam_search.h"
#include "search/mcts.h"
#include "transforms/apply.h"

namespace tcm::search {
namespace {

ir::Program small_benchmark() { return benchsuite::make_heat2d(256, 256); }

// ---------------------------------------------------------------------------
// Decision space
// ---------------------------------------------------------------------------

TEST(Candidates, DecisionPointsCoverAllKinds) {
  const ir::Program p = benchsuite::make_conv_relu(2, 3, 64, 64, 2, 3);
  const auto points = decision_points(p, {});
  int fusion = 0, skew = 0, inter = 0, tile = 0, unroll = 0;
  for (const auto& d : points) {
    switch (d.kind) {
      case DecisionPoint::Kind::Fusion: ++fusion; break;
      case DecisionPoint::Kind::Skew: ++skew; break;
      case DecisionPoint::Kind::Interchange: ++inter; break;
      case DecisionPoint::Kind::Tile: ++tile; break;
      case DecisionPoint::Kind::Unroll: ++unroll; break;
    }
  }
  EXPECT_EQ(fusion, 1);  // one adjacent nest pair
  EXPECT_EQ(skew, 2);
  EXPECT_EQ(inter, 2);
  EXPECT_EQ(tile, 2);
  EXPECT_EQ(unroll, 2);
}

TEST(Candidates, SkewExpansionEnumeratesFactorsAndWavefronts) {
  const ir::Program p = small_benchmark();
  SearchSpaceOptions space;
  space.skew_factors = {1, 2};
  const auto points = decision_points(p, space);
  const auto it = std::find_if(points.begin(), points.end(), [](const DecisionPoint& d) {
    return d.kind == DecisionPoint::Kind::Skew;
  });
  ASSERT_NE(it, points.end());
  const auto alts = expand_decision(p, {}, *it, space);
  ASSERT_GT(alts.size(), 1u);
  int skew_only = 0, wavefront = 0;
  for (const auto& s : alts) {
    EXPECT_TRUE(transforms::is_legal(p, s)) << s.to_string();
    if (s.skews.empty()) continue;
    (s.interchanges.empty() ? skew_only : wavefront) += 1;
  }
  EXPECT_GT(skew_only, 0);
  EXPECT_GT(wavefront, 0);
}

TEST(Candidates, ExpansionAlwaysIncludesSkip) {
  const ir::Program p = small_benchmark();
  const auto points = decision_points(p, {});
  for (const auto& d : points) {
    const auto alts = expand_decision(p, {}, d, {});
    ASSERT_GE(alts.size(), 1u);
    EXPECT_TRUE(alts[0].empty());  // the unmodified prefix
  }
}

TEST(Candidates, AllExpansionsAreLegal) {
  const ir::Program p = benchsuite::make_conv_relu(2, 3, 64, 64, 2, 3);
  const auto points = decision_points(p, {});
  transforms::Schedule prefix;
  for (const auto& d : points) {
    const auto alts = expand_decision(p, prefix, d, {});
    for (const auto& s : alts) EXPECT_TRUE(transforms::is_legal(p, s)) << s.to_string();
    prefix = alts.back();  // walk a non-trivial path
  }
}

TEST(Candidates, TileAlternativesRespectExtents) {
  const ir::Program p = benchsuite::make_heat2d(40, 40);  // extents 38
  SearchSpaceOptions space;
  space.tile_sizes = {16, 32, 64};
  const auto points = decision_points(p, space);
  for (const auto& d : points) {
    if (d.kind != DecisionPoint::Kind::Tile) continue;
    for (const auto& s : expand_decision(p, {}, d, space))
      for (const auto& t : s.tiles)
        for (std::int64_t size : t.sizes) EXPECT_LE(size, 38);
  }
}

TEST(Candidates, InterchangePairCap) {
  const ir::Program p = benchsuite::make_convolution(2, 3, 64, 64, 2, 3);  // depth 7
  SearchSpaceOptions space;
  space.max_interchange_pairs = 3;
  for (const auto& d : decision_points(p, space)) {
    if (d.kind != DecisionPoint::Kind::Interchange) continue;
    EXPECT_LE(expand_decision(p, {}, d, space).size(), 4u);  // skip + 3
  }
}

TEST(Heuristics, ParallelizeOutermostAndVectorizeInnermost) {
  const ir::Program p = small_benchmark();
  const transforms::Schedule s = apply_parallel_vector_heuristics(p, {}, {});
  ASSERT_EQ(s.parallels.size(), 1u);
  EXPECT_EQ(s.parallels[0].level, 0);
  ASSERT_EQ(s.vectorizes.size(), 1u);
  EXPECT_TRUE(transforms::is_legal(p, s));
}

TEST(Heuristics, SkipsReductionOuterLoopCorrectly) {
  // mvt: both computations are reductions over j; level 0 (i) is legal.
  const ir::Program p = benchsuite::make_mvt(128);
  const transforms::Schedule s = apply_parallel_vector_heuristics(p, {}, {});
  EXPECT_EQ(s.parallels.size(), 2u);
  EXPECT_TRUE(transforms::is_legal(p, s));
}

// The heuristic pass by re-application: every parallelize/vectorize try
// re-applies the extended schedule from scratch. This is the reference the
// single-application pass in apply_parallel_vector_heuristics must match.
transforms::Schedule heuristics_by_reapplication(const ir::Program& p,
                                                 const transforms::Schedule& schedule,
                                                 const SearchSpaceOptions& options) {
  transforms::Schedule result = schedule;
  for (const ir::Computation& c : p.comps) {
    const std::vector<std::int64_t> extents = p.extents_of(c.id);
    for (int level = 0; level < std::min<int>(2, static_cast<int>(extents.size())); ++level) {
      if (extents[static_cast<std::size_t>(level)] < 4) continue;
      transforms::Schedule candidate = result;
      candidate.parallels.push_back({c.id, level});
      if (transforms::try_apply_schedule(p, candidate).ok) {
        result = std::move(candidate);
        break;
      }
    }
  }
  for (const ir::Computation& c : p.comps) {
    const std::vector<std::int64_t> extents = p.extents_of(c.id);
    if (extents.back() < options.vector_width) continue;
    transforms::Schedule candidate = result;
    candidate.vectorizes.push_back({c.id, options.vector_width});
    if (transforms::try_apply_schedule(p, candidate).ok) result = std::move(candidate);
  }
  return result;
}

TEST(Heuristics, SingleApplicationMatchesReapplication) {
  int programs = 0, multi_root = 0, shared_root = 0, schedules = 0, annotated = 0;
  for (const bool tiny : {false, true}) {
    const datagen::RandomProgramGenerator gen(tiny ? datagen::GeneratorOptions::tiny()
                                                   : datagen::GeneratorOptions{});
    const datagen::RandomScheduleGenerator sgen;
    SearchSpaceOptions space;
    space.vector_width = tiny ? 4 : 8;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      const ir::Program p = gen.generate(seed);
      ++programs;
      std::set<int> roots;
      for (const ir::Computation& c : p.comps) roots.insert(p.nest_of(c.id).front());
      multi_root += p.roots.size() > 1;
      shared_root += roots.size() < p.comps.size();
      auto check = [&](const transforms::Schedule& s) {
        const transforms::Schedule expected = heuristics_by_reapplication(p, s, space);
        EXPECT_EQ(apply_parallel_vector_heuristics(p, s, space), expected)
            << "tiny=" << tiny << " seed=" << seed << " schedule: " << s.to_string();
        ++schedules;
        return expected;
      };
      // Every alternative at every decision point, walking a random path.
      Rng rng(seed + 1);
      transforms::Schedule prefix;
      for (const DecisionPoint& d : decision_points(p, space)) {
        const std::vector<transforms::Schedule> alts = expand_decision(p, prefix, d, space);
        for (const transforms::Schedule& s : alts) check(s);
        prefix = alts[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(alts.size()) - 1))];
      }
      // Schedules that already carry parallels and vectorizes: a finished
      // candidate, and random legal schedules from the data generator.
      const transforms::Schedule finished = check(prefix);
      annotated += !finished.parallels.empty() || !finished.vectorizes.empty();
      check(finished);
      for (int trial = 0; trial < 3; ++trial) {
        const transforms::Schedule s = sgen.generate(p, rng);
        annotated += !s.parallels.empty() || !s.vectorizes.empty();
        check(s);
      }
    }
  }
  EXPECT_GE(programs, 200);
  EXPECT_GT(multi_root, 0);
  EXPECT_GT(shared_root, 0);
  EXPECT_GT(annotated, 0);
  EXPECT_GT(schedules, 10 * programs);
}

TEST(Heuristics, IllegalScheduleIsReturnedUnchanged) {
  const ir::Program p = benchsuite::make_mvt(128);
  transforms::Schedule illegal;
  illegal.tiles.push_back({0, 0, {256, 256}});  // tile larger than the extent
  ASSERT_FALSE(transforms::is_legal(p, illegal));
  EXPECT_EQ(apply_parallel_vector_heuristics(p, illegal, {}), illegal);
  EXPECT_EQ(heuristics_by_reapplication(p, illegal, {}), illegal);
}

// ---------------------------------------------------------------------------
// Beam search
// ---------------------------------------------------------------------------

TEST(BeamSearch, FindsScheduleAtLeastAsGoodAsHeuristicsOnly) {
  const ir::Program p = small_benchmark();
  ExecutionEvaluator eval{sim::Executor()};
  const auto result = beam_search(p, eval, {});
  EXPECT_TRUE(transforms::is_legal(p, result.best_schedule));
  ExecutionEvaluator check{sim::Executor()};
  const transforms::Schedule heur = apply_parallel_vector_heuristics(p, {}, {});
  const double heur_speedup = check.evaluate(p, {heur})[0];
  EXPECT_GE(result.best_score, 0.95 * heur_speedup);
}

TEST(BeamSearch, AccountingIsPopulated) {
  const ir::Program p = small_benchmark();
  ExecutionEvaluator eval{sim::Executor()};
  const auto result = beam_search(p, eval, {});
  EXPECT_GT(result.evaluations, 0);
  EXPECT_GT(result.accounted_seconds, 0.0);
  EXPECT_GE(result.wall_seconds, 0.0);
  EXPECT_EQ(eval.evaluations(), result.evaluations);
}

TEST(BeamSearch, WiderBeamNeverLosesWithExactEvaluator) {
  const ir::Program p = benchsuite::make_mvt(256);
  sim::ExecutorOptions exact;
  exact.noise_sigma = 0.0;
  BeamSearchOptions narrow, wide;
  narrow.beam_width = 1;
  wide.beam_width = 6;
  ExecutionEvaluator e1{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator e2{sim::Executor(sim::MachineModel(), exact)};
  const auto r1 = beam_search(p, e1, narrow);
  const auto r2 = beam_search(p, e2, wide);
  EXPECT_GE(r2.best_score, 0.999 * r1.best_score);
}

TEST(BeamSearch, DeterministicWithNoiseFreeEvaluator) {
  const ir::Program p = small_benchmark();
  sim::ExecutorOptions exact;
  exact.noise_sigma = 0.0;
  ExecutionEvaluator e1{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator e2{sim::Executor(sim::MachineModel(), exact)};
  const auto r1 = beam_search(p, e1, {});
  const auto r2 = beam_search(p, e2, {});
  EXPECT_EQ(r1.best_schedule.to_string(), r2.best_schedule.to_string());
  EXPECT_DOUBLE_EQ(r1.best_score, r2.best_score);
}

// ---------------------------------------------------------------------------
// MCTS
// ---------------------------------------------------------------------------

TEST(Mcts, ReturnsLegalScheduleWithMeasuredSpeedup) {
  const ir::Program p = small_benchmark();
  ExecutionEvaluator model_stub{sim::Executor()};  // exact "model" for the test
  ExecutionEvaluator exec{sim::Executor()};
  MctsOptions opt;
  opt.iterations = 40;
  const auto result = mcts_search(p, model_stub, exec, opt);
  EXPECT_TRUE(transforms::is_legal(p, result.best_schedule));
  EXPECT_GT(result.best_measured_speedup, 0.0);
  EXPECT_GT(result.model_evaluations, 0);
  EXPECT_GT(result.accounted_seconds, 0.0);
}

TEST(Mcts, ExecutesAtMostTopKCandidates) {
  const ir::Program p = small_benchmark();
  ExecutionEvaluator model_stub{sim::Executor()};
  ExecutionEvaluator exec{sim::Executor()};
  MctsOptions opt;
  opt.iterations = 30;
  opt.top_k = 3;
  mcts_search(p, model_stub, exec, opt);
  EXPECT_LE(exec.evaluations(), 3);
}

TEST(Mcts, DeterministicInSeed) {
  const ir::Program p = small_benchmark();
  sim::ExecutorOptions exact;
  exact.noise_sigma = 0.0;
  MctsOptions opt;
  opt.iterations = 25;
  ExecutionEvaluator m1{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator x1{sim::Executor(sim::MachineModel(), exact)};
  const auto r1 = mcts_search(p, m1, x1, opt);
  ExecutionEvaluator m2{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator x2{sim::Executor(sim::MachineModel(), exact)};
  const auto r2 = mcts_search(p, m2, x2, opt);
  EXPECT_EQ(r1.best_schedule.to_string(), r2.best_schedule.to_string());
}

TEST(Mcts, MoreIterationsDoNotHurtWithExactModel) {
  const ir::Program p = benchsuite::make_mvt(256);
  sim::ExecutorOptions exact;
  exact.noise_sigma = 0.0;
  MctsOptions few, many;
  few.iterations = 10;
  many.iterations = 120;
  ExecutionEvaluator m1{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator x1{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator m2{sim::Executor(sim::MachineModel(), exact)};
  ExecutionEvaluator x2{sim::Executor(sim::MachineModel(), exact)};
  const auto r_few = mcts_search(p, m1, x1, few);
  const auto r_many = mcts_search(p, m2, x2, many);
  EXPECT_GE(r_many.best_measured_speedup, 0.9 * r_few.best_measured_speedup);
}

// ---------------------------------------------------------------------------
// Evaluators
// ---------------------------------------------------------------------------

TEST(Evaluators, ExecutionEvaluatorMatchesExecutor) {
  const ir::Program p = small_benchmark();
  sim::ExecutorOptions exact;
  exact.noise_sigma = 0.0;
  ExecutionEvaluator eval{sim::Executor(sim::MachineModel(), exact)};
  transforms::Schedule s;
  s.parallels.push_back({0, 0});
  const auto speedups = eval.evaluate(p, {s});
  sim::Executor direct{sim::MachineModel(), exact};
  EXPECT_NEAR(speedups[0], direct.measure_speedup(p, s), 1e-9);
  EXPECT_EQ(eval.evaluations(), 1);
  EXPECT_GT(eval.accounted_seconds(), 0.0);
  EXPECT_STREQ(eval.kind(), "execution");
}

TEST(Evaluators, ModelEvaluatorBatchesMixedStructures) {
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  // A two-nest program: fusion changes structure, so candidates mix trees.
  ir::Program p;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 30 && !found; ++seed) {
    p = gen.generate(seed);
    found = p.roots.size() >= 2;
  }
  ASSERT_TRUE(found);
  Rng rng(1);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  ModelEvaluator eval(&cost_model, model::FeatureConfig::fast());
  datagen::RandomScheduleGenerator sgen;
  Rng srng(2);
  std::vector<transforms::Schedule> candidates;
  for (int i = 0; i < 6; ++i) candidates.push_back(sgen.generate(p, srng));
  const auto speedups = eval.evaluate(p, candidates);
  EXPECT_EQ(speedups.size(), candidates.size());
  for (double s : speedups) EXPECT_GT(s, 0.0);
  EXPECT_EQ(eval.evaluations(), 6);
}

}  // namespace
}  // namespace tcm::search
