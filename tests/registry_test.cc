// Tests for the model registry (src/registry/): versioned checkpoints,
// manifest integrity, promote/rollback, and the continual-learning loop.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "datagen/generator.h"
#include "model/cost_model.h"
#include "model/train.h"
#include "registry/continual_scheduler.h"
#include "registry/continual_trainer.h"
#include "registry/model_registry.h"
#include "serve/drift_monitor.h"
#include "serve/feedback_buffer.h"
#include "serve/prediction_service.h"
#include "test_clock.h"

namespace fs = std::filesystem;

namespace tcm::registry {
namespace {

// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tcm_registry_" + name);
  fs::remove_all(dir);
  return dir.string();
}

ir::Program test_program(std::uint64_t seed = 0) {
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  return gen.generate(seed);
}

std::vector<double> direct_predictions(model::SpeedupPredictor& m,
                                       const std::vector<model::FeaturizedProgram>& feats) {
  std::vector<double> out;
  Rng rng(0);
  for (const auto& f : feats) {
    const model::Batch batch = model::make_inference_batch({&f});
    out.push_back(static_cast<double>(
        m.forward_batch(batch, /*training=*/false, rng).value().at(0, 0)));
  }
  return out;
}

// gtest's ASSERT_ macros require a void function; fill through a pointer.
void sample_requests_into(int count, std::vector<model::FeaturizedProgram>* out) {
  datagen::RandomScheduleGenerator sgen;
  Rng rng(3);
  for (int i = 0; i < count; ++i) {
    const ir::Program p = test_program(static_cast<std::uint64_t>(i % 3));
    const transforms::Schedule s = sgen.generate(p, rng);
    auto f = model::featurize(p, s, model::FeatureConfig::fast());
    ASSERT_TRUE(f.has_value()) << "test featurization failed";
    out->push_back(std::move(*f));
  }
}

ModelManifest fast_manifest(const std::string& provenance = "test") {
  ModelManifest m;
  m.config = model::ModelConfig::fast();
  m.provenance = provenance;
  return m;
}

// ---------------------------------------------------------------------------
// Feature-config hashing and manifest round-trip
// ---------------------------------------------------------------------------

TEST(FeatureConfigHash, DeterministicAndDiscriminating) {
  const model::FeatureConfig fast = model::FeatureConfig::fast();
  EXPECT_EQ(feature_config_hash(fast), feature_config_hash(model::FeatureConfig::fast()));
  EXPECT_NE(feature_config_hash(fast), feature_config_hash(model::FeatureConfig::paper()));
  model::FeatureConfig tweaked = fast;
  tweaked.log_transform = !tweaked.log_transform;
  EXPECT_NE(feature_config_hash(fast), feature_config_hash(tweaked));
}

TEST(ModelManifest, TextRoundTripPreservesEverything) {
  ModelManifest m = fast_manifest("fine-tuned v3 on 2400 fresh samples");
  m.version = 7;
  m.model_kind = "recursive-lstm";
  m.parent_version = 3;
  m.created_unix = 1700000000;
  m.feature_hash = feature_config_hash(m.config.features);
  m.metrics.mape = 0.21875;
  m.metrics.pearson = 0.875;
  m.metrics.spearman = 0.9375;
  m.metrics.r2 = 0.8125;
  m.metrics.mse = 0.0625;
  m.metrics.n = 480;

  const ModelManifest r = manifest_from_string(manifest_to_string(m));
  EXPECT_EQ(r.version, m.version);
  EXPECT_EQ(r.model_kind, m.model_kind);
  EXPECT_EQ(r.parent_version, m.parent_version);
  EXPECT_EQ(r.created_unix, m.created_unix);
  EXPECT_EQ(r.feature_hash, m.feature_hash);
  EXPECT_EQ(r.provenance, m.provenance);
  EXPECT_EQ(r.config.features.max_depth, m.config.features.max_depth);
  EXPECT_EQ(r.config.features.max_accesses, m.config.features.max_accesses);
  EXPECT_EQ(r.config.embed_hidden, m.config.embed_hidden);
  EXPECT_EQ(r.config.embed_size, m.config.embed_size);
  EXPECT_EQ(r.config.merge_hidden, m.config.merge_hidden);
  EXPECT_EQ(r.config.regress_hidden, m.config.regress_hidden);
  EXPECT_EQ(r.config.dropout, m.config.dropout);
  EXPECT_EQ(r.config.exp_head_limit, m.config.exp_head_limit);
  EXPECT_EQ(r.metrics.mape, m.metrics.mape);
  EXPECT_EQ(r.metrics.spearman, m.metrics.spearman);
  EXPECT_EQ(r.metrics.n, m.metrics.n);
}

TEST(ModelManifest, RejectsGarbage) {
  EXPECT_THROW(manifest_from_string(""), std::runtime_error);
  EXPECT_THROW(manifest_from_string("not-a-manifest 1\nversion 1\n"), std::runtime_error);
  EXPECT_THROW(manifest_from_string("tcm-manifest 99\n"), std::runtime_error);
  // Parseable header but no version/kind.
  EXPECT_THROW(manifest_from_string("tcm-manifest 1\nparent 0\n"), std::runtime_error);
  // A torn scalar value must throw, not silently keep the field's default.
  EXPECT_THROW(manifest_from_string(
                   "tcm-manifest 1\nversion 1\nmodel recursive-lstm\nembed_size garbage\n"),
               std::runtime_error);
  EXPECT_THROW(manifest_from_string(
                   "tcm-manifest 1\nversion 1\nmodel recursive-lstm\nmetrics.mape x\n"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Registry storage
// ---------------------------------------------------------------------------

TEST(ModelRegistry, RegisteredModelReloadsBitwiseIdentical) {
  ModelRegistry registry(scratch_dir("roundtrip"));
  Rng rng(42);
  model::CostModel original(model::ModelConfig::fast(), rng);

  const int version = registry.register_version(original, fast_manifest());
  EXPECT_EQ(version, 1);

  std::vector<model::FeaturizedProgram> requests;
  sample_requests_into(12, &requests);
  const std::vector<double> before = direct_predictions(original, requests);

  std::unique_ptr<model::SpeedupPredictor> reloaded = registry.load(version);
  EXPECT_EQ(reloaded->name(), "recursive-lstm");
  const std::vector<double> after = direct_predictions(*reloaded, requests);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << "request " << i;  // bitwise, not approx
}

TEST(ModelRegistry, RegisterFillsManifestFields) {
  ModelRegistry registry(scratch_dir("fields"));
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  ModelManifest manifest = fast_manifest("from scratch");
  manifest.version = 999;       // overwritten by register_version
  manifest.feature_hash = 123;  // recomputed from the config
  const int version = registry.register_version(m, manifest);

  const ModelManifest stored = registry.manifest(version);
  EXPECT_EQ(stored.version, version);
  EXPECT_EQ(stored.model_kind, "recursive-lstm");  // defaulted from model.name()
  EXPECT_EQ(stored.feature_hash, feature_config_hash(manifest.config.features));
  EXPECT_GT(stored.created_unix, 0);
  EXPECT_EQ(stored.provenance, "from scratch");
}

TEST(ModelRegistry, MismatchedFeatureHashRejectedAtLoad) {
  ModelRegistry registry(scratch_dir("tamper"));
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  const int version = registry.register_version(m, fast_manifest());

  // Tamper with the stored featurization (as a config drift or torn write
  // would): the hash no longer matches and serving must refuse the load.
  ModelManifest tampered = registry.manifest(version);
  tampered.config.features.max_accesses += 1;
  {
    std::ofstream f(registry.manifest_path(version), std::ios::trunc);
    f << manifest_to_string(tampered);
  }
  EXPECT_THROW(registry.load(version), std::runtime_error);
  // The manifest itself still parses; only load-for-serving rejects.
  EXPECT_NO_THROW(registry.manifest(version));
}

TEST(ModelRegistry, PreSchemaRevCheckpointRejectedWhileIncumbentServes) {
  // A checkpoint written before the featurization schema rev (skew /
  // unimodular features) has no features.schema_version key and a feature
  // hash that never mixed the schema version. Loading it must fail with a
  // message naming the hash mismatch, and the already-promoted incumbent
  // must keep serving.
  ModelRegistry registry(scratch_dir("schema_rev"));
  Rng rng(1);
  model::CostModel incumbent(model::ModelConfig::fast(), rng);
  model::CostModel old_model(model::ModelConfig::fast(), rng);
  const int v1 = registry.register_version(incumbent, fast_manifest("incumbent"));
  registry.promote(v1);
  const int v2 = registry.register_version(old_model, fast_manifest("pre-rev checkpoint"));

  // Rewrite v2's manifest as the pre-rev code would have written it: no
  // schema_version line. The parser defaults it to 1, so the recomputed
  // hash can no longer match the stored one.
  std::string text = manifest_to_string(registry.manifest(v2));
  const std::size_t line = text.find("features.schema_version");
  ASSERT_NE(line, std::string::npos);
  text.erase(line, text.find('\n', line) - line + 1);
  {
    std::ofstream f(registry.manifest_path(v2), std::ios::trunc);
    f << text;
  }

  try {
    registry.load(v2);
    FAIL() << "pre-rev checkpoint must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hash mismatch"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("feature schema"), std::string::npos) << e.what();
  }
  // promote() would hand traffic to an unservable model; the load failure
  // surfaces before any pointer flips, so the incumbent stays active.
  EXPECT_EQ(registry.active_version(), v1);
  EXPECT_NO_THROW(registry.load_active());
  const ModelManifest parsed = manifest_from_string(text);
  EXPECT_EQ(parsed.config.features.schema_version, 1);  // old default
}

TEST(ModelRegistry, LoadRejectsUnknownVersionAndKind) {
  ModelRegistry registry(scratch_dir("unknown"));
  EXPECT_THROW(registry.load(1), std::runtime_error);
  EXPECT_THROW(registry.manifest(7), std::runtime_error);
  EXPECT_THROW(make_model([] {
                 ModelManifest m = fast_manifest();
                 m.model_kind = "transformer-xxl";
                 return m;
               }()),
               std::runtime_error);
}

TEST(ModelRegistry, NoStagingLeftoversAfterRegister) {
  const std::string root = scratch_dir("clean");
  ModelRegistry registry(root);
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  registry.register_version(m, fast_manifest());
  registry.promote(1);
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".staging"), std::string::npos) << name;
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(ModelRegistry, PromoteRollbackAndList) {
  ModelRegistry registry(scratch_dir("lifecycle"));
  Rng rng(1);
  model::CostModel a(model::ModelConfig::fast(), rng);
  model::CostModel b(model::ModelConfig::fast(), rng);
  EXPECT_EQ(registry.active_version(), 0);
  EXPECT_THROW(registry.load_active(), std::runtime_error);
  EXPECT_THROW(registry.rollback(), std::runtime_error);

  ModelManifest mb = fast_manifest("v2");
  mb.parent_version = 1;
  const int v1 = registry.register_version(a, fast_manifest("v1"));
  const int v2 = registry.register_version(b, mb);
  EXPECT_EQ(v1, 1);
  EXPECT_EQ(v2, 2);

  registry.promote(v1);
  EXPECT_EQ(registry.active_version(), v1);
  EXPECT_EQ(registry.previous_version(), 0);
  EXPECT_THROW(registry.rollback(), std::runtime_error);  // nothing before v1

  registry.promote(v2);
  EXPECT_EQ(registry.active_version(), v2);
  EXPECT_EQ(registry.previous_version(), v1);

  EXPECT_EQ(registry.rollback(), v1);
  EXPECT_EQ(registry.active_version(), v1);
  EXPECT_EQ(registry.previous_version(), v2);  // roll-forward stays possible

  EXPECT_THROW(registry.promote(99), std::runtime_error);

  const std::vector<ModelManifest> all = registry.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].version, 1);
  EXPECT_EQ(all[1].version, 2);
  EXPECT_EQ(all[1].parent_version, 1);
  EXPECT_NO_THROW(registry.load_active());
}

TEST(ModelRegistry, ReopeningSeesExistingState) {
  const std::string root = scratch_dir("reopen");
  {
    ModelRegistry registry(root);
    Rng rng(1);
    model::CostModel m(model::ModelConfig::fast(), rng);
    registry.register_version(m, fast_manifest());
    registry.promote(1);
  }
  ModelRegistry reopened(root);
  EXPECT_EQ(reopened.active_version(), 1);
  EXPECT_EQ(reopened.list().size(), 1u);
  Rng rng(2);
  model::CostModel another(model::ModelConfig::fast(), rng);
  EXPECT_EQ(reopened.register_version(another, fast_manifest()), 2);
}

// ---------------------------------------------------------------------------
// Retention GC
// ---------------------------------------------------------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(ModelRegistry, GcKeepsActiveLineageAndNewestAndExpiresRejected) {
  ModelRegistry registry(scratch_dir("gc"));
  Rng rng(3);
  model::CostModel m(model::ModelConfig::fast(), rng);

  // v1 -> v2 promoted lineage; v3..v5 rejected candidates parented to v2.
  const int v1 = registry.register_version(m, fast_manifest("seed"));
  ModelManifest child = fast_manifest("promoted child");
  child.parent_version = v1;
  const int v2 = registry.register_version(m, child);
  registry.promote(v1);
  registry.promote(v2);  // active v2, previous v1
  std::vector<int> rejected;
  for (int i = 0; i < 3; ++i) {
    ModelManifest r = fast_manifest("rejected candidate");
    r.parent_version = v2;
    rejected.push_back(registry.register_version(m, r));
  }
  ASSERT_EQ(rejected.back(), 5);

  const std::string active_weights_before = read_bytes(registry.weights_path(v2));
  ASSERT_FALSE(active_weights_before.empty());

  GcPolicy policy;
  policy.keep_last = 1;  // newest (v5) survives as the post-mortem window
  const GcReport report = registry.gc(policy);
  EXPECT_EQ(report.removed, (std::vector<int>{3, 4}));
  EXPECT_EQ(report.kept, (std::vector<int>{1, 2, 5}));

  // ACTIVE and the rollback target stay loadable, bit for bit.
  EXPECT_EQ(read_bytes(registry.weights_path(v2)), active_weights_before);
  EXPECT_NO_THROW(registry.load_active());
  EXPECT_NO_THROW(registry.load(v1));
  EXPECT_EQ(registry.active_version(), v2);
  EXPECT_EQ(registry.previous_version(), v1);

  // Expired versions are gone from disk and from the listing.
  EXPECT_THROW(registry.load(3), std::runtime_error);
  EXPECT_FALSE(fs::exists(registry.version_dir(4)));
  const std::vector<ModelManifest> all = registry.list();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.back().version, 5);

  // Idempotent: a second pass with the same policy removes nothing.
  EXPECT_TRUE(registry.gc(policy).removed.empty());
  // No trash or staging residue survives a collection.
  for (const auto& entry : fs::directory_iterator(registry.root()))
    EXPECT_EQ(entry.path().filename().string().find(".gc-"), std::string::npos);

  // New versions keep numbering past collected ids: no id reuse.
  EXPECT_EQ(registry.register_version(m, fast_manifest("after gc")), 6);
}

TEST(ModelRegistry, GcWithoutActivePointerKeepsOnlyNewest) {
  ModelRegistry registry(scratch_dir("gc_noactive"));
  Rng rng(4);
  model::CostModel m(model::ModelConfig::fast(), rng);
  for (int i = 0; i < 4; ++i) registry.register_version(m, fast_manifest());
  GcPolicy policy;
  policy.keep_last = 2;
  const GcReport report = registry.gc(policy);
  EXPECT_EQ(report.removed, (std::vector<int>{1, 2}));
  EXPECT_EQ(report.kept, (std::vector<int>{3, 4}));
}

// ---------------------------------------------------------------------------
// Crash-injection durability: a writer killed between staging and rename
// must leave a registry that reopens clean, with committed state intact.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, ReopenSweepsCrashedWriterLeftovers) {
  const std::string root = scratch_dir("crash");
  std::string weights_before;
  {
    ModelRegistry registry(root);
    Rng rng(1);
    model::CostModel m(model::ModelConfig::fast(), rng);
    registry.register_version(m, fast_manifest());
    registry.promote(1);
    weights_before = read_bytes(registry.weights_path(1));
  }

  // Simulate a crash at every vulnerable point of the write protocol:
  // mid-register (a staged version directory with a half-written manifest),
  // mid-promote (an ACTIVE.tmp that was never renamed), and mid-gc (a trash
  // directory that was unpublished but not yet deleted).
  fs::create_directories(fs::path(root) / ".staging-v0002");
  { std::ofstream f(fs::path(root) / ".staging-v0002" / "weights.bin"); f << "torn"; }
  { std::ofstream f(fs::path(root) / ".staging-v0002" / "manifest.txt.tmp"); f << "to"; }
  { std::ofstream f(fs::path(root) / "ACTIVE.tmp"); f << "tcm-active 1\nactive 99\n"; }
  fs::create_directories(fs::path(root) / ".gc-v0003");
  { std::ofstream f(fs::path(root) / ".gc-v0003" / "weights.bin"); f << "junk"; }

  ModelRegistry reopened(root);
  // Stale state is swept...
  EXPECT_FALSE(fs::exists(fs::path(root) / ".staging-v0002"));
  EXPECT_FALSE(fs::exists(fs::path(root) / "ACTIVE.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(root) / ".gc-v0003"));
  // ...committed state is untouched: same active version, bitwise-identical
  // checkpoint, and registration resumes at the next id.
  EXPECT_EQ(reopened.active_version(), 1);
  EXPECT_EQ(reopened.list().size(), 1u);
  EXPECT_EQ(read_bytes(reopened.weights_path(1)), weights_before);
  EXPECT_NO_THROW(reopened.load_active());
  Rng rng(2);
  model::CostModel another(model::ModelConfig::fast(), rng);
  EXPECT_EQ(reopened.register_version(another, fast_manifest()), 2);
}

// ---------------------------------------------------------------------------
// ContinualTrainer
// ---------------------------------------------------------------------------

datagen::DatasetBuildOptions tiny_data() {
  datagen::DatasetBuildOptions data;
  data.num_programs = 10;
  data.schedules_per_program = 6;
  data.generator = datagen::GeneratorOptions::tiny();
  data.features = model::FeatureConfig::fast();
  return data;
}

serve::ServeOptions trainer_serve_options() {
  serve::ServeOptions options;
  options.num_threads = 2;
  options.features = model::FeatureConfig::fast();
  options.max_queue_latency = std::chrono::microseconds(500);
  return options;
}

TEST(ContinualTrainer, RequiresActiveVersionAndMatchingFeatures) {
  ModelRegistry registry(scratch_dir("trainer_guards"));
  Rng rng(1);
  model::CostModel m(model::ModelConfig::fast(), rng);
  serve::PredictionService service(m, trainer_serve_options());

  ContinualTrainerOptions opts;
  opts.data = tiny_data();
  EXPECT_THROW(ContinualTrainer(registry, service, opts), std::runtime_error);  // no active

  registry.register_version(m, fast_manifest());
  registry.promote(1);
  ContinualTrainerOptions mismatched = opts;
  mismatched.data.features = model::FeatureConfig::paper();
  EXPECT_THROW(ContinualTrainer(registry, service, mismatched), std::runtime_error);
  EXPECT_NO_THROW(ContinualTrainer(registry, service, opts));
}

TEST(ContinualTrainer, CyclePromotesAndHotSwapsOrRejectsCleanly) {
  ModelRegistry registry(scratch_dir("trainer_cycle"));
  Rng rng(5);
  model::CostModel seed_model(model::ModelConfig::fast(), rng);
  const int v1 = registry.register_version(seed_model, fast_manifest("seed"));
  registry.promote(v1);

  std::shared_ptr<model::SpeedupPredictor> serving = registry.load_active();
  serve::PredictionService service(serving, v1, trainer_serve_options());
  EXPECT_EQ(service.active_version(), v1);

  ContinualTrainerOptions opts;
  opts.data = tiny_data();
  opts.train.epochs = 3;
  opts.train.seed = 9;
  // An untrained incumbent fine-tuned on real measurements improves, but the
  // gate must hold either way; accept promotion generously here.
  opts.max_mape_regression = 10.0;
  opts.min_shadow_spearman = -1.0;
  ContinualTrainer trainer(registry, service, opts);

  const CycleReport report = trainer.run_cycle();
  EXPECT_EQ(report.incumbent_version, v1);
  EXPECT_EQ(report.candidate_version, v1 + 1);
  EXPECT_GT(report.shadow_requests, 0u);
  EXPECT_EQ(report.shadow_failures, 0u);
  ASSERT_TRUE(report.promoted) << report.decision;
  EXPECT_EQ(registry.active_version(), report.candidate_version);
  EXPECT_EQ(service.active_version(), report.candidate_version);
  EXPECT_EQ(registry.manifest(report.candidate_version).parent_version, v1);

  // A second cycle with an impossible gate must reject without touching the
  // active version or the serving snapshot.
  ContinualTrainerOptions strict = opts;
  strict.max_mape_regression = -1.0;  // ceiling below any achievable MAPE
  ContinualTrainer strict_trainer(registry, service, strict);
  const CycleReport rejected = strict_trainer.run_cycle();
  EXPECT_FALSE(rejected.promoted);
  EXPECT_EQ(registry.active_version(), report.candidate_version);
  EXPECT_EQ(service.active_version(), report.candidate_version);
  // The rejected candidate still exists in the registry for post-mortems.
  EXPECT_EQ(registry.list().back().version, rejected.candidate_version);

  // Rollback restores the original seed version end to end.
  EXPECT_EQ(trainer.rollback(), v1);
  EXPECT_EQ(registry.active_version(), v1);
  EXPECT_EQ(service.active_version(), v1);
}

// ---------------------------------------------------------------------------
// ContinualScheduler: the drift-triggered autopilot
// ---------------------------------------------------------------------------

// Replays a burst of raw (program, schedule) pairs so the service's
// recent-prediction window and (when wired) feedback buffer fill up.
void drive_traffic(serve::PredictionService& service, int requests, std::uint64_t seed) {
  datagen::RandomScheduleGenerator sgen;
  Rng rng(seed);
  std::vector<std::future<serve::Prediction>> futures;
  for (int i = 0; i < requests; ++i) {
    const ir::Program p = test_program(static_cast<std::uint64_t>(i % 4));
    futures.push_back(service.submit(p, sgen.generate(p, rng)));
  }
  service.flush();
  for (auto& f : futures) f.get();
  service.quiesce();
}

TEST(ContinualScheduler, InjectedDriftTriggersCyclePromotesAndGcs) {
  ModelRegistry registry(scratch_dir("autopilot"));
  Rng rng(9);
  model::CostModel seed_model(model::ModelConfig::fast(), rng);
  const int v1 = registry.register_version(seed_model, fast_manifest("seed"));
  registry.promote(v1);
  // Two stale rejected candidates from "earlier runs": GC fodder.
  model::CostModel stale_a(model::ModelConfig::fast(), rng);
  model::CostModel stale_b(model::ModelConfig::fast(), rng);
  ModelManifest stale = fast_manifest("stale rejected candidate");
  stale.parent_version = v1;
  const int v2 = registry.register_version(stale_a, stale);
  const int v3 = registry.register_version(stale_b, stale);

  serve::PredictionService service(registry.load_active(), v1, trainer_serve_options());
  auto feedback = std::make_shared<serve::FeedbackBuffer>(serve::FeedbackBufferOptions{
      /*capacity=*/64, /*sample_fraction=*/1.0, /*seed=*/5});
  service.set_feedback(feedback);

  ContinualTrainerOptions topts;
  topts.data = tiny_data();
  topts.train.epochs = 2;
  topts.max_mape_regression = 10.0;  // generous gate: promotion is expected
  topts.min_shadow_spearman = -1.0;
  topts.feedback = feedback;
  topts.feedback_fraction = 0.5;
  ContinualTrainer trainer(registry, service, topts);

  ContinualSchedulerOptions sopts;
  sopts.drift.min_samples = 32;
  // Distribution signals off: with windows this small their sampling noise
  // is not negligible, and this test wants a fully deterministic trigger.
  sopts.drift.psi_threshold = 0.0;
  sopts.drift.ks_threshold = 0.0;
  // Standing-shadow disagreement as the injected, deterministic drift
  // signal: any disagreement at all over this bound fires.
  sopts.drift.max_shadow_mape = 1e-3;
  sopts.drift.min_shadow_requests = 16;
  sopts.drift.cooldown_observations = 2;
  sopts.gc.keep_last = 1;
  sopts.max_cycles = 1;
  ContinualScheduler scheduler(registry, service, trainer, sopts);

  // Calm traffic, then the first poll freezes the drift baseline.
  drive_traffic(service, 48, 1);
  EXPECT_FALSE(scheduler.poll_once());
  EXPECT_GT(scheduler.last_report().reference_size, 0u);
  EXPECT_EQ(scheduler.cycles_run(), 0u);

  // Healthy steady state: more calm traffic, still no trigger.
  drive_traffic(service, 48, 2);
  EXPECT_FALSE(scheduler.poll_once());

  // Inject drift: a standing shadow that disagrees with the incumbent.
  Rng shadow_rng(123);
  auto divergent =
      std::make_shared<model::CostModel>(model::ModelConfig::fast(), shadow_rng);
  service.set_shadow(divergent, 99, /*sample_fraction=*/1.0);
  drive_traffic(service, 48, 3);
  service.clear_shadow();

  // The autopilot: no manual run_cycle() — the poll detects drift, runs one
  // full cycle, promotes, and applies retention GC.
  ASSERT_TRUE(scheduler.poll_once());
  ASSERT_EQ(scheduler.cycles_run(), 1u);
  const std::vector<SchedulerEvent> events = scheduler.history();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].cycle_failed);
  EXPECT_TRUE(events[0].drift.shadow_mape.fired) << events[0].drift.reason;
  ASSERT_TRUE(events[0].cycle.promoted) << events[0].cycle.decision;
  const int candidate = events[0].cycle.candidate_version;
  EXPECT_EQ(candidate, v3 + 1);
  EXPECT_EQ(registry.active_version(), candidate);
  EXPECT_EQ(service.active_version(), candidate);

  // Measured feedback flowed into the fine-tune set.
  EXPECT_GT(events[0].cycle.feedback_samples, 0u);

  // Post-cycle GC: the stale rejected candidates expired; the active
  // candidate, its fine-tune parent (= rollback target) survive.
  EXPECT_EQ(events[0].gc.removed, (std::vector<int>{v2, v3}));
  EXPECT_EQ(events[0].gc.kept, (std::vector<int>{v1, candidate}));
  EXPECT_NO_THROW(registry.load_active());
  EXPECT_NO_THROW(registry.load(v1));

  // The monitor re-baselined and the budget is spent: sustained shadow
  // disagreement cannot trigger a second cycle.
  service.set_shadow(divergent, 99, 1.0);
  drive_traffic(service, 48, 4);
  EXPECT_FALSE(scheduler.poll_once());  // new baseline freezes here
  drive_traffic(service, 48, 5);
  EXPECT_FALSE(scheduler.poll_once());  // budget exhausted
  EXPECT_EQ(scheduler.cycles_run(), 1u);
}

TEST(ContinualScheduler, BackgroundThreadPollsQuietlyWithoutDrift) {
  ManualClock clock;  // the poller wakes only when the test steps time
  support::ScopedClock use_clock(clock);
  ModelRegistry registry(scratch_dir("autopilot_idle"));
  Rng rng(11);
  model::CostModel seed_model(model::ModelConfig::fast(), rng);
  registry.promote(registry.register_version(seed_model, fast_manifest("seed")));
  serve::PredictionService service(registry.load_active(), 1, trainer_serve_options());
  ContinualTrainerOptions topts;
  topts.data = tiny_data();
  ContinualTrainer trainer(registry, service, topts);

  ContinualSchedulerOptions sopts;
  sopts.poll_interval = std::chrono::milliseconds(5);
  ContinualScheduler scheduler(registry, service, trainer, sopts);
  scheduler.start();
  scheduler.start();  // idempotent
  drive_traffic(service, 16, 6);
  // A step only wakes a poller already waiting on the clock, so keep
  // stepping until three polls have landed.
  while (scheduler.polls() < 3) {
    clock.advance(sopts.poll_interval);
    std::this_thread::yield();
  }
  scheduler.stop();
  const std::uint64_t polls_after_stop = scheduler.polls();
  clock.advance(sopts.poll_interval * 4);
  EXPECT_EQ(scheduler.polls(), polls_after_stop);  // really stopped
  EXPECT_EQ(scheduler.cycles_run(), 0u);
  EXPECT_TRUE(scheduler.history().empty());
  scheduler.stop();  // idempotent
}

}  // namespace
}  // namespace tcm::registry
