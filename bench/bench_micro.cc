// Microbenchmarks (google-benchmark): throughput of the pieces that bound
// the end-to-end pipeline — featurization, model inference (autograd and
// tape-free fused paths), schedule application, the search's candidate
// enumeration and parallelize/vectorize heuristics, machine-model evaluation,
// and NN training steps. Besides the console table, results are written as
// google-benchmark JSON to BENCH_micro.json so the perf trajectory is
// trackable across PRs.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "benchsuite/benchmarks.h"
#include "datagen/dataset_builder.h"
#include "model/train.h"
#include "nn/inference.h"
#include "nn/optim.h"
#include "search/candidates.h"
#include "sim/machine_model.h"
#include "transforms/apply.h"

using namespace tcm;

namespace {

const ir::Program& conv_program() {
  static const ir::Program p = benchsuite::make_convolution(8, 3, 256, 256, 2, 3);
  return p;
}

transforms::Schedule conv_schedule() {
  transforms::Schedule s;
  s.interchanges.push_back({0, 4, 5});
  s.tiles.push_back({0, 2, {32, 32}});
  s.unrolls.push_back({0, 2});
  s.parallels.push_back({0, 0});
  s.vectorizes.push_back({0, 2});  // innermost is the 3-wide kernel loop
  return s;
}

void BM_ApplySchedule(benchmark::State& state) {
  const ir::Program& p = conv_program();
  const transforms::Schedule s = conv_schedule();
  for (auto _ : state) benchmark::DoNotOptimize(transforms::apply_schedule(p, s));
}
BENCHMARK(BM_ApplySchedule);

void BM_LegalityCheck(benchmark::State& state) {
  const ir::Program& p = conv_program();
  const transforms::Schedule s = conv_schedule();
  for (auto _ : state) benchmark::DoNotOptimize(transforms::is_legal(p, s));
}
BENCHMARK(BM_LegalityCheck);

// The search's final step on every scored candidate: the structural part of
// conv_schedule(), finished by the parallelize/vectorize heuristics.
void BM_ParallelVectorHeuristics(benchmark::State& state) {
  const ir::Program& p = conv_program();
  transforms::Schedule s = conv_schedule();
  s.parallels.clear();
  s.vectorizes.clear();
  const search::SearchSpaceOptions space;
  for (auto _ : state)
    benchmark::DoNotOptimize(search::apply_parallel_vector_heuristics(p, s, space));
}
BENCHMARK(BM_ParallelVectorHeuristics);

// One decision point's enumeration, as beam search runs it for every beam
// state. Arg 0 expands the empty schedule (all perfbench's
// search.enumerate_us sees); arg 1 expands the tile decision under a prefix
// that already interchanges, so every alternative re-applies that prefix.
void BM_ExpandDecision(benchmark::State& state) {
  const ir::Program& p = conv_program();
  const search::SearchSpaceOptions space;
  const std::vector<search::DecisionPoint> points = search::decision_points(p, space);
  std::size_t tile = 0;
  while (points[tile].kind != search::DecisionPoint::Kind::Tile) ++tile;
  transforms::Schedule prefix;
  if (state.range(0) == 1) {
    for (std::size_t d = 0; d < tile; ++d)
      prefix = search::expand_decision(p, prefix, points[d], space).back();
    if (prefix.empty()) state.SkipWithError("prefix is empty");
  }
  std::size_t candidates = 0;
  for (auto _ : state) {
    const auto alternatives = search::expand_decision(p, prefix, points[tile], space);
    candidates += alternatives.size();
    benchmark::DoNotOptimize(alternatives.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_ExpandDecision)->Arg(0)->Arg(1);

void BM_Featurize(benchmark::State& state) {
  const ir::Program& p = conv_program();
  const transforms::Schedule s = conv_schedule();
  const model::FeatureConfig cfg = model::FeatureConfig::fast();
  for (auto _ : state) benchmark::DoNotOptimize(model::featurize(p, s, cfg));
}
BENCHMARK(BM_Featurize);

void BM_MachineModelEval(benchmark::State& state) {
  const ir::Program t = transforms::apply_schedule(conv_program(), conv_schedule());
  sim::MachineModel m;
  for (auto _ : state) benchmark::DoNotOptimize(m.execution_time_seconds(t));
}
BENCHMARK(BM_MachineModelEval);

void BM_ProgramGeneration(benchmark::State& state) {
  datagen::RandomProgramGenerator gen;
  std::uint64_t seed = 0;
  for (auto _ : state) benchmark::DoNotOptimize(gen.generate(seed++));
}
BENCHMARK(BM_ProgramGeneration);

void BM_CostModelInference(benchmark::State& state) {
  datagen::DatasetBuildOptions opt;
  opt.num_programs = 1;
  opt.schedules_per_program = static_cast<int>(state.range(0));
  opt.features = model::FeatureConfig::fast();
  const model::Dataset ds = datagen::build_dataset(opt);
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(model::predict(m, ds, 64));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CostModelInference)->Arg(1)->Arg(32);

// The tentpole comparison: the autograd forward (tape construction per op)
// vs the tape-free fused infer_batch on identical batches. The fused
// benchmark also reports allocs/pred from the arena counter — ~0 once warm.
model::Dataset inference_dataset(int schedules) {
  datagen::DatasetBuildOptions opt;
  opt.num_programs = 1;
  opt.schedules_per_program = schedules;
  opt.features = model::FeatureConfig::fast();
  return datagen::build_dataset(opt);
}

void BM_CostModelForwardAutograd(benchmark::State& state) {
  const model::Dataset ds = inference_dataset(static_cast<int>(state.range(0)));
  const auto batches = model::make_batches(ds, 64);
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  Rng frng(0);
  for (auto _ : state)
    for (const model::Batch& b : batches)
      benchmark::DoNotOptimize(m.forward_batch(b, /*training=*/false, frng));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CostModelForwardAutograd)->Arg(1)->Arg(32);

void BM_CostModelInferBatch(benchmark::State& state) {
  const model::Dataset ds = inference_dataset(static_cast<int>(state.range(0)));
  const auto batches = model::make_batches(ds, 64);
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  nn::InferenceArena arena;
  for (const model::Batch& b : batches) m.infer_batch(b, arena);  // warm the arena
  const std::uint64_t allocs_before = arena.heap_allocations();
  std::int64_t preds = 0;
  for (auto _ : state) {
    for (const model::Batch& b : batches) {
      benchmark::DoNotOptimize(&m.infer_batch(b, arena));
      preds += b.batch_size();
    }
  }
  state.counters["allocs_per_pred"] =
      preds > 0 ? static_cast<double>(arena.heap_allocations() - allocs_before) /
                      static_cast<double>(preds)
                : 0.0;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CostModelInferBatch)->Arg(1)->Arg(32);

// The dedup walk's worst case: one structure, every row's computation
// vectors perturbed, so no two rows share a computation or loop subtree and
// the class bookkeeping is pure overhead.
void BM_CostModelInferBatchDistinct(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const model::Dataset ds = inference_dataset(1);
  std::vector<model::FeaturizedProgram> copies(static_cast<std::size_t>(rows),
                                               ds.points.front().feats);
  std::vector<const model::FeaturizedProgram*> ptrs;
  for (int r = 0; r < rows; ++r) {
    for (std::vector<float>& v : copies[static_cast<std::size_t>(r)].comp_vectors)
      v[0] = 0.5f + 0.25f * static_cast<float>(r);
    ptrs.push_back(&copies[static_cast<std::size_t>(r)]);
  }
  const model::Batch batch = model::make_inference_batch(ptrs);
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  nn::InferenceArena arena;
  m.infer_batch(batch, arena);  // warm the arena
  for (auto _ : state) benchmark::DoNotOptimize(&m.infer_batch(batch, arena));
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_CostModelInferBatchDistinct)->Arg(32);

void BM_TrainingStep(benchmark::State& state) {
  datagen::DatasetBuildOptions opt;
  opt.num_programs = 2;
  opt.schedules_per_program = 32;
  opt.features = model::FeatureConfig::fast();
  const model::Dataset ds = datagen::build_dataset(opt);
  const auto batches = model::make_batches(ds, 32);
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  nn::AdamW opt_adam(m.parameters(), {});
  Rng trng(2);
  std::size_t bi = 0;
  for (auto _ : state) {
    const model::Batch& b = batches[bi++ % batches.size()];
    opt_adam.zero_grad();
    nn::Variable pred = m.forward_batch(b, true, trng);
    nn::Variable loss = nn::log_ratio_loss(pred, b.targets);
    nn::backward(loss);
    opt_adam.step();
  }
}
BENCHMARK(BM_TrainingStep);

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Tensor a(n, n), b(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<float>(rng.uniform_real());
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = static_cast<float>(rng.uniform_real());
  for (auto _ : state) benchmark::DoNotOptimize(nn::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): defaults --benchmark_out to
// BENCH_micro.json (JSON format) so every run leaves a machine-readable
// report for cross-PR tracking; explicit --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Exact flag only: "--benchmark_out_format" alone must not suppress the
    // default report path.
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!has_out) std::cout << "wrote BENCH_micro.json\n";
  benchmark::Shutdown();
  return 0;
}
