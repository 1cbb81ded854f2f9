// Tests for the async autoscheduling job service (src/jobs/): the
// SearchJobManager lifecycle (submit / poll / stream / cancel), cooperative
// cancellation and deadline shedding, admission control on the job queue,
// the persistent ScheduleMemory (exact hit, shape warm start, durability,
// corrupt-file recovery), and the api::Service façade integration including
// schedule reuse across a full service restart.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "benchsuite/benchmarks.h"
#include "datagen/generator.h"
#include "jobs/job_manager.h"
#include "jobs/schedule_memory.h"
#include "model/cost_model.h"
#include "registry/model_registry.h"
#include "search/beam_search.h"
#include "serve/errors.h"
#include "serve/fingerprint.h"
#include "serve/prediction_service.h"
#include "transforms/apply.h"

namespace fs = std::filesystem;

namespace tcm::jobs {
namespace {

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tcm_jobs_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// mvt: two independent nests — a multi-root program (the acceptance case).
ir::Program multi_root_program() { return benchsuite::make_mvt(96); }

// A deeper program whose beam search spends long enough for a cancel or a
// tight deadline to land mid-flight.
ir::Program slow_program() { return benchsuite::make_conv_relu(2, 3, 48, 48, 2, 3); }

serve::ServeOptions serve_options(int threads = 2) {
  serve::ServeOptions options;
  options.num_threads = threads;
  options.features = model::FeatureConfig::fast();
  options.max_queue_latency = std::chrono::microseconds(200);
  return options;
}

SearchJobInfo wait_terminal(SearchJobManager& manager, const std::string& id,
                            std::chrono::seconds timeout = std::chrono::seconds(120)) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::optional<SearchJobInfo> info = manager.info(id);
    EXPECT_TRUE(info.has_value()) << "job " << id << " vanished";
    if (!info) return {};
    if (info->state == JobState::kDone || info->state == JobState::kFailed ||
        info->state == JobState::kCancelled)
      return *info;
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "job " << id << " did not reach a terminal state";
      return *info;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---------------------------------------------------------------------------
// ScheduleMemory
// ---------------------------------------------------------------------------

MemoryEntry make_entry(std::uint64_t program_fp, std::uint64_t shape_fp, double speedup) {
  MemoryEntry e;
  e.program_fp = program_fp;
  e.shape_fp = shape_fp;
  e.predicted_speedup = speedup;
  e.evaluations = 10;
  e.method = "beam";
  e.schedule.parallels.push_back({0, 0});
  return e;
}

TEST(ScheduleMemory, ExactHitShapeHitAndMissAccounting) {
  ScheduleMemory memory("");  // in-memory only
  EXPECT_FALSE(memory.lookup(1).has_value());
  memory.store(make_entry(1, 100, 2.0));
  memory.store(make_entry(2, 100, 3.0));
  ASSERT_TRUE(memory.lookup(1).has_value());
  EXPECT_DOUBLE_EQ(memory.lookup(1)->predicted_speedup, 2.0);

  // Warm starts: same shape, excluding the asking program itself, best first.
  const auto seeds = memory.warm_starts(100, /*exclude_program_fp=*/1);
  ASSERT_EQ(seeds.size(), 1u);
  const auto stats = memory.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.exact_hits, 2u);
  EXPECT_EQ(stats.shape_hits, 1u);
  EXPECT_EQ(stats.stores, 2u);
}

TEST(ScheduleMemory, UpsertKeepsTheBetterSchedule) {
  ScheduleMemory memory("");
  memory.store(make_entry(7, 70, 3.0));
  memory.store(make_entry(7, 70, 1.5));  // worse: ignored
  EXPECT_DOUBLE_EQ(memory.lookup(7)->predicted_speedup, 3.0);
  memory.store(make_entry(7, 70, 4.0));  // better: replaces
  EXPECT_DOUBLE_EQ(memory.lookup(7)->predicted_speedup, 4.0);
  EXPECT_EQ(memory.size(), 1u);
}

TEST(ScheduleMemory, PersistsAcrossReopen) {
  const std::string path = scratch_dir("memory_reopen") + "/memory.json";
  {
    ScheduleMemory memory(path);
    MemoryEntry e = make_entry(42, 420, 2.5);
    e.schedule.tiles.push_back({0, 0, {32, 32}});
    memory.store(e);
  }
  ScheduleMemory reopened(path);
  ASSERT_EQ(reopened.size(), 1u);
  std::optional<MemoryEntry> hit = reopened.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->shape_fp, 420u);
  EXPECT_DOUBLE_EQ(hit->predicted_speedup, 2.5);
  EXPECT_EQ(hit->method, "beam");
  ASSERT_EQ(hit->schedule.tiles.size(), 1u);
  EXPECT_EQ(hit->schedule.tiles[0].sizes, (std::vector<std::int64_t>{32, 32}));
}

TEST(ScheduleMemory, CorruptFileIsDiscardedNotFatal) {
  const std::string path = scratch_dir("memory_corrupt") + "/memory.json";
  { std::ofstream(path) << "{\"format\":\"tcm-schedule-memory\",\"entries\":[trunca"; }
  ScheduleMemory memory(path);
  EXPECT_EQ(memory.size(), 0u);
  memory.store(make_entry(1, 10, 2.0));  // and it keeps working
  EXPECT_EQ(ScheduleMemory(path).size(), 1u);
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  return lines;
}

std::string file_text(std::istream& in) {
  in.clear();
  in.seekg(0);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

constexpr const char* kJournalHeader = "{\"format\":\"tcm-schedule-memory\",\"version\":2}";

TEST(ScheduleMemoryJournal, StoresAppendOneLineWithoutRewriting) {
  const std::string path = scratch_dir("journal_append") + "/memory.json";
  constexpr std::uint64_t kN = 6, kK = 5;
  {
    ScheduleMemory memory(path);
    for (std::uint64_t fp = 1; fp <= kN; ++fp) memory.store(make_entry(fp, 100, 2.0));
  }
  ScheduleMemory memory(path);
  ASSERT_EQ(memory.size(), kN);
  // A stream opened on the file keeps reading the same inode: a rewrite
  // (stage + rename) would leave it on the old content.
  std::ifstream before(path, std::ios::binary);
  ASSERT_TRUE(before.good());
  for (std::uint64_t fp = kN + 1; fp <= kN + kK; ++fp) memory.store(make_entry(fp, 100, 2.0));
  const std::vector<std::string> lines = file_lines(path);
  ASSERT_EQ(lines.size(), 1 + kN + kK);
  EXPECT_EQ(lines.front(), kJournalHeader);
  std::ifstream after(path, std::ios::binary);
  EXPECT_EQ(file_text(before), file_text(after)) << "the file was rewritten";
  EXPECT_EQ(ScheduleMemory(path).size(), kN + kK);
}

TEST(ScheduleMemoryJournal, TornTrailingLineKeepsEarlierEntries) {
  const std::string path = scratch_dir("journal_torn") + "/memory.json";
  {
    ScheduleMemory memory(path);
    for (std::uint64_t fp = 1; fp <= 3; ++fp) memory.store(make_entry(fp, 100, 2.0));
  }
  { std::ofstream(path, std::ios::app) << "{\"program_fp\":\"4\",\"shape_fp\":\"1"; }
  ScheduleMemory memory(path);
  EXPECT_EQ(memory.size(), 3u);
  EXPECT_FALSE(memory.lookup(4).has_value());
  memory.store(make_entry(5, 100, 2.0));
  const std::vector<std::string> lines = file_lines(path);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines.front(), kJournalHeader);
  for (const std::string& line : lines) EXPECT_TRUE(api::Json::parse(line).ok()) << line;
  std::ifstream in(path, std::ios::binary);
  const std::string text = file_text(in);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(ScheduleMemory(path).size(), 4u);
}

TEST(ScheduleMemoryJournal, VersionOneFileIsReadAndCompacted) {
  const std::string path = scratch_dir("journal_v1") + "/memory.json";
  {
    api::Json entries = api::Json::array();
    for (int fp = 1; fp <= 3; ++fp) {
      api::Json e = api::Json::object();
      e.set("program_fp", std::to_string(fp));
      e.set("shape_fp", "77");
      e.set("speedup", 1.5 * fp);
      e.set("evaluations", 10);
      e.set("method", "mcts");
      e.set("hits", "4");
      e.set("schedule", api::to_json(make_entry(0, 0, 0).schedule));
      entries.push_back(std::move(e));
    }
    api::Json doc = api::Json::object();
    doc.set("format", "tcm-schedule-memory");
    doc.set("version", 1);
    doc.set("entries", std::move(entries));
    std::ofstream(path) << doc.dump();
  }
  ScheduleMemory memory(path);
  ASSERT_EQ(memory.size(), 3u);
  std::optional<MemoryEntry> hit = memory.lookup(3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->predicted_speedup, 4.5);
  EXPECT_EQ(hit->shape_fp, 77u);
  EXPECT_EQ(hit->method, "mcts");
  EXPECT_EQ(hit->hits, 5u);
  ASSERT_EQ(hit->schedule.parallels.size(), 1u);
  const std::vector<std::string> lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines.front(), kJournalHeader);
  EXPECT_EQ(ScheduleMemory(path).size(), 3u);
}

TEST(ScheduleMemoryJournal, CompactionPastTwiceKeepsBestSpeedup) {
  const std::string path = scratch_dir("journal_compact") + "/memory.json";
  ScheduleMemory memory(path);
  memory.store(make_entry(1, 100, 1.0));
  memory.store(make_entry(2, 100, 1.0));
  ASSERT_TRUE(memory.lookup(1).has_value());  // one hit, written at compaction
  // Improvements of program 1 append until the file holds more than twice
  // as many entry lines as live entries, which rewrites it to the live set.
  const std::vector<std::pair<double, std::size_t>> steps = {
      {2.0, 4}, {3.0, 5}, {0.5, 5}, {4.0, 3}, {5.0, 4}};
  for (const auto& [speedup, lines] : steps) {
    memory.store(make_entry(1, 100, speedup));
    EXPECT_EQ(file_lines(path).size(), lines) << "after storing speedup " << speedup;
  }
  ScheduleMemory reopened(path);
  ASSERT_EQ(reopened.size(), 2u);
  std::optional<MemoryEntry> best = reopened.lookup(1);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->predicted_speedup, 5.0);
  EXPECT_EQ(best->hits, 2u);  // the persisted hit plus this lookup
  EXPECT_DOUBLE_EQ(reopened.lookup(2)->predicted_speedup, 1.0);
}

TEST(ShapeFingerprint, SameLoopNestDifferentArithmeticCollides) {
  ir::Program a = multi_root_program();
  ir::Program b = multi_root_program();
  ASSERT_FALSE(a.comps.empty());
  // Different arithmetic, same loop tree: exact fingerprints diverge, shape
  // fingerprints must not.
  b.comps[0].rhs = ir::Expr::add(b.comps[0].rhs, ir::Expr::constant(1.0));
  EXPECT_NE(serve::fingerprint(a), serve::fingerprint(b));
  EXPECT_EQ(serve::shape_fingerprint(a), serve::shape_fingerprint(b));
}

// ---------------------------------------------------------------------------
// SearchJobManager lifecycle
// ---------------------------------------------------------------------------

TEST(SearchJobManager, BeamJobRunsToDoneAndBeatsBaseline) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManagerOptions options;
  options.workers = 1;
  SearchJobManager manager(service, options);

  SearchJobRequest request;
  request.program = multi_root_program();
  request.beam_width = 2;
  const std::string id = manager.submit(request);
  EXPECT_EQ(id.rfind("sj-", 0), 0u);

  const SearchJobInfo info = wait_terminal(manager, id);
  EXPECT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_FALSE(info.reused);
  EXPECT_DOUBLE_EQ(info.progress, 1.0);
  EXPECT_GT(info.evaluations, 0);
  // Acceptance criterion: never worse than the untransformed program.
  EXPECT_GE(info.best_speedup, info.baseline_speedup);
  EXPECT_TRUE(transforms::is_legal(request.program, info.best_schedule));

  const SearchJobStats stats = manager.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.memory.stores, 1u);
}

TEST(SearchJobManager, IdenticalResubmitIsServedFromMemory) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManager manager(service, {});

  SearchJobRequest request;
  request.program = multi_root_program();
  const std::string first = manager.submit(request);
  const SearchJobInfo first_info = wait_terminal(manager, first);
  ASSERT_EQ(first_info.state, JobState::kDone) << first_info.error;

  // Same program again: born DONE, no search, same schedule.
  const std::string second = manager.submit(request);
  std::optional<SearchJobInfo> second_info = manager.info(second);
  ASSERT_TRUE(second_info.has_value());
  EXPECT_EQ(second_info->state, JobState::kDone);
  EXPECT_TRUE(second_info->reused);
  EXPECT_EQ(second_info->evaluations, 0);
  EXPECT_DOUBLE_EQ(second_info->best_speedup, first_info.best_speedup);
  EXPECT_EQ(second_info->best_schedule.to_string(), first_info.best_schedule.to_string());
  EXPECT_EQ(manager.stats().reused, 1u);
}

TEST(SearchJobManager, SameShapedProgramWarmStartsTheBeam) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManager manager(service, {});

  SearchJobRequest request;
  request.program = multi_root_program();
  const std::string cold = manager.submit(request);
  ASSERT_EQ(wait_terminal(manager, cold).state, JobState::kDone);

  // Same loop shape, different arithmetic: a near miss, not an exact hit.
  SearchJobRequest near_miss = request;
  near_miss.program.comps[0].rhs =
      ir::Expr::add(near_miss.program.comps[0].rhs, ir::Expr::constant(1.0));
  const std::string warm = manager.submit(near_miss);
  const SearchJobInfo info = wait_terminal(manager, warm);
  EXPECT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_FALSE(info.reused);       // it did search
  EXPECT_TRUE(info.warm_started);  // but from remembered seeds
  EXPECT_GT(info.evaluations, 0);
  EXPECT_GE(manager.stats().memory.shape_hits, 1u);
}

TEST(SearchJobManager, EventStreamCarriesProgressAndEndsTerminal) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManager manager(service, {});

  SearchJobRequest request;
  request.program = multi_root_program();
  const std::string id = manager.submit(request);

  std::vector<std::string> lines;
  std::size_t cursor = 0;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    const SearchJobManager::EventBatch batch =
        manager.events_since(id, cursor, std::chrono::milliseconds(100));
    for (const std::string& line : batch.lines) lines.push_back(line);
    cursor += batch.lines.size();
    if (batch.done && batch.lines.empty()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "stream never terminated";
  }
  // At least: submit snapshot, RUNNING, >=1 progress line, terminal DONE.
  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines.front().find("\"QUEUED\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"DONE\""), std::string::npos);
  bool saw_running = false;
  for (const std::string& line : lines)
    if (line.find("\"RUNNING\"") != std::string::npos) saw_running = true;
  EXPECT_TRUE(saw_running);

  // Unknown ids terminate immediately instead of blocking the stream.
  EXPECT_TRUE(manager.events_since("sj-999999", 0, std::chrono::milliseconds(1)).done);
}

TEST(SearchJobManager, CancelQueuedJobIsImmediate) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManagerOptions options;
  options.workers = 1;
  SearchJobManager manager(service, options);

  SearchJobRequest request;
  request.program = slow_program();
  const std::string running = manager.submit(request);
  SearchJobRequest queued_request;
  queued_request.program = multi_root_program();
  const std::string queued = manager.submit(queued_request);

  ASSERT_TRUE(manager.cancel(queued));
  std::optional<SearchJobInfo> info = manager.info(queued);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_FALSE(manager.cancel("sj-999999"));
  manager.cancel(running);  // don't wait out the full search in the test
  wait_terminal(manager, running);
}

TEST(SearchJobManager, CancelMidSearchReturnsCancelledWithinOneBatch) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManagerOptions options;
  options.workers = 1;
  SearchJobManager manager(service, options);

  SearchJobRequest request;
  request.program = slow_program();
  request.beam_width = 6;
  const std::string id = manager.submit(request);
  // Wait until the job is actually running, then cancel mid-search.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (manager.info(id)->state == JobState::kQueued &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(manager.cancel(id));
  const SearchJobInfo info = wait_terminal(manager, id);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_LT(info.progress, 1.0);
}

TEST(SearchJobManager, ExpiredDeadlineFailsInsteadOfHanging) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());

  // The manager's clock advances one hour per read, however long the search
  // really takes. Its reads for this job run: 1 submit (enqueued_at), 2 the
  // worker's expired-while-queued check, 3 arming the first scoring
  // deadline, then per progress callback 4 wall_seconds and 5 the deadline
  // check. A deadline at 3.5 hours therefore passes while the first beam
  // decision is being scored and is seen after that batch. The clock runs
  // ahead of steady_clock, so the scoring deadlines the PredictionService
  // sees stay in the real future.
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::seconds step(3600);
  std::atomic<int> reads{0};
  SearchJobManagerOptions options;
  options.now_fn = [&] { return start + step * (reads.fetch_add(1) + 1); };
  SearchJobManager manager(service, options);

  SearchJobRequest request;
  request.program = slow_program();
  request.deadline = start + 3 * step + step / 2;
  const std::string id = manager.submit(request);
  const SearchJobInfo info = wait_terminal(manager, id);
  EXPECT_EQ(info.state, JobState::kFailed);
  EXPECT_NE(info.error.find("DEADLINE_EXCEEDED"), std::string::npos) << info.error;
  // Failed mid-search, not by the expired-while-queued check.
  EXPECT_GT(info.evaluations, 0) << info.error;
  EXPECT_LT(info.progress, 1.0) << info.error;
}

TEST(SearchJobManager, QueueCapShedsWithAdmissionRejected) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManagerOptions options;
  options.workers = 1;
  options.queue_cap = 1;
  SearchJobManager manager(service, options);

  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  bool rejected = false;
  std::vector<std::string> admitted;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SearchJobRequest request;
    request.program = gen.generate(seed);
    if (request.program.comps.empty()) continue;
    try {
      admitted.push_back(manager.submit(request));
    } catch (const serve::AdmissionRejectedError&) {
      rejected = true;
      break;
    }
  }
  EXPECT_TRUE(rejected) << "queue cap never engaged";
  for (const std::string& id : admitted) manager.cancel(id);
  for (const std::string& id : admitted) wait_terminal(manager, id);
}

TEST(SearchJobManager, ConcurrentClientsAllReachDone) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options(2));
  SearchJobManagerOptions options;
  options.workers = 2;
  options.queue_cap = 0;  // no shedding in this test
  SearchJobManager manager(service, options);

  // Distinct tiny programs (identical ones would collapse into reuse).
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  std::vector<ir::Program> programs;
  for (std::uint64_t seed = 0; programs.size() < 4 && seed < 64; ++seed) {
    ir::Program p = gen.generate(seed);
    if (!p.comps.empty()) programs.push_back(std::move(p));
  }
  ASSERT_EQ(programs.size(), 4u);

  std::vector<std::string> ids(programs.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < programs.size(); ++i)
    clients.emplace_back([&, i] {
      SearchJobRequest request;
      request.program = programs[i];
      ids[i] = manager.submit(request);
    });
  for (std::thread& t : clients) t.join();

  for (const std::string& id : ids) {
    const SearchJobInfo info = wait_terminal(manager, id);
    EXPECT_EQ(info.state, JobState::kDone) << info.error;
    EXPECT_GE(info.best_speedup, info.baseline_speedup);
  }
  EXPECT_EQ(manager.stats().done, 4u);
  EXPECT_EQ(manager.list().size(), 4u);
}

TEST(SearchJobManager, MctsJobRunsToDone) {
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  SearchJobManager manager(service, {});

  SearchJobRequest request;
  request.program = multi_root_program();
  request.method = SearchMethod::kMcts;
  request.mcts_iterations = 10;
  const std::string id = manager.submit(request);
  const SearchJobInfo info = wait_terminal(manager, id);
  EXPECT_EQ(info.state, JobState::kDone) << info.error;
  EXPECT_GE(info.best_speedup, info.baseline_speedup);
  EXPECT_TRUE(transforms::is_legal(request.program, info.best_schedule));
}

TEST(SearchJobManager, MemoryPersistsAcrossManagerRestart) {
  const std::string path = scratch_dir("manager_restart") + "/memory.json";
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());

  SearchJobRequest request;
  request.program = multi_root_program();
  double first_speedup = 0;
  {
    SearchJobManagerOptions options;
    options.memory_path = path;
    SearchJobManager manager(service, options);
    const std::string id = manager.submit(request);
    const SearchJobInfo info = wait_terminal(manager, id);
    ASSERT_EQ(info.state, JobState::kDone) << info.error;
    first_speedup = info.best_speedup;
  }
  {
    SearchJobManagerOptions options;
    options.memory_path = path;
    SearchJobManager manager(service, options);  // fresh manager, same file
    const std::string id = manager.submit(request);
    std::optional<SearchJobInfo> info = manager.info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, JobState::kDone);
    EXPECT_TRUE(info->reused);
    EXPECT_DOUBLE_EQ(info->best_speedup, first_speedup);
  }
}

// Cooperative stop at the search layer: the progress callback returning
// false must end the beam within one evaluation batch, keeping best-so-far.
TEST(BeamSearchProgress, CallbackStopsSearchDeterministically) {
  const ir::Program p = slow_program();
  Rng rng(7);
  model::CostModel cost_model(model::ModelConfig::fast(), rng);
  serve::PredictionService service(cost_model, serve_options());
  search::ModelEvaluator evaluator(service);
  search::BeamSearchOptions options;
  int calls = 0;
  options.on_progress = [&](const search::SearchProgress& progress) {
    EXPECT_GT(progress.evaluations, 0);
    return ++calls < 2;  // stop after the second report
  };
  const search::SearchResult result = search::beam_search(p, evaluator, options);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(transforms::is_legal(p, result.best_schedule));
}

// ---------------------------------------------------------------------------
// api::Service integration
// ---------------------------------------------------------------------------

std::string make_registry(const std::string& name) {
  const std::string root = scratch_dir(name);
  registry::ModelRegistry reg(root);
  Rng rng(100);
  model::CostModel m(model::ModelConfig::fast(), rng);
  registry::ModelManifest manifest;
  manifest.config = model::ModelConfig::fast();
  manifest.provenance = "jobs_test";
  reg.register_version(m, manifest);
  reg.promote(1);
  return root;
}

api::ServiceOptions service_options(const std::string& root) {
  api::ServiceOptions opt;
  opt.registry_root = root;
  opt.serve.num_threads = 2;
  opt.serve.features = model::FeatureConfig::fast();
  opt.serve.max_queue_latency = std::chrono::microseconds(200);
  opt.search.workers = 1;
  return opt;
}

api::SearchRequest service_search_request() {
  api::SearchRequest request;
  request.program = multi_root_program();
  request.beam_width = 2;
  return request;
}

TEST(ServiceSearch, SubmitPollCancelAndStatsSurface) {
  const std::string root = make_registry("svc_lifecycle");
  auto service = api::Service::open(service_options(root));
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  api::Result<SearchJobInfo> submitted = (*service)->submit_search(service_search_request());
  ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  const std::string id = submitted->id;

  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  api::Result<SearchJobInfo> polled = (*service)->search_job(id);
  while (polled.ok() && polled->state != JobState::kDone &&
         polled->state != JobState::kFailed && polled->state != JobState::kCancelled) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    polled = (*service)->search_job(id);
  }
  ASSERT_TRUE(polled.ok()) << polled.status().to_string();
  EXPECT_EQ(polled->state, JobState::kDone) << polled->error;
  EXPECT_GE(polled->best_speedup, polled->baseline_speedup);

  // The schedule round-trips through predict and scores identically.
  api::PredictRequest check;
  check.program = service_search_request().program;
  check.schedules.push_back(polled->best_schedule);
  api::Result<api::PredictResponse> prediction = (*service)->predict(check);
  ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
  EXPECT_NEAR(prediction->predictions[0].speedup, polled->best_speedup,
              1e-9 * polled->best_speedup);

  EXPECT_EQ((*service)->search_job("sj-999999").status().code(), api::StatusCode::kNotFound);
  EXPECT_EQ((*service)->cancel_search("sj-999999").status().code(),
            api::StatusCode::kNotFound);
  // Cancelling a DONE job keeps it DONE (cancel is not un-done).
  api::Result<SearchJobInfo> cancelled = (*service)->cancel_search(id);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, JobState::kDone);

  const api::StatsSnapshot stats = (*service)->stats();
  EXPECT_TRUE(stats.search.enabled);
  EXPECT_EQ(stats.search.jobs.submitted, 1u);
  EXPECT_EQ(stats.search.jobs.done, 1u);
  ASSERT_TRUE((*service)->list_searches().ok());
  EXPECT_EQ((*service)->list_searches()->size(), 1u);
}

TEST(ServiceSearch, ScheduleReuseSurvivesServiceRestart) {
  const std::string root = make_registry("svc_restart");
  double first_speedup = 0;
  {
    auto service = api::Service::open(service_options(root));
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    api::Result<SearchJobInfo> job = (*service)->submit_search(service_search_request());
    ASSERT_TRUE(job.ok()) << job.status().to_string();
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    api::Result<SearchJobInfo> polled = (*service)->search_job(job->id);
    while (polled.ok() && polled->state != JobState::kDone &&
           polled->state != JobState::kFailed) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      polled = (*service)->search_job(job->id);
    }
    ASSERT_TRUE(polled.ok());
    ASSERT_EQ(polled->state, JobState::kDone) << polled->error;
    first_speedup = polled->best_speedup;
    (*service)->shutdown();
  }
  // The memory file lives under the registry root by default, so a fresh
  // service over the same root answers instantly.
  EXPECT_TRUE(fs::exists(fs::path(root) / "schedule_memory.json"));
  auto service = api::Service::open(service_options(root));
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  api::Result<SearchJobInfo> job = (*service)->submit_search(service_search_request());
  ASSERT_TRUE(job.ok()) << job.status().to_string();
  EXPECT_EQ(job->state, JobState::kDone);
  EXPECT_TRUE(job->reused);
  EXPECT_DOUBLE_EQ(job->best_speedup, first_speedup);
}

TEST(ServiceSearch, DisabledSearchAnswersUnimplemented) {
  const std::string root = make_registry("svc_disabled");
  api::ServiceOptions opt = service_options(root);
  opt.enable_search = false;
  auto service = api::Service::open(std::move(opt));
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(service.value()->submit_search(service_search_request()).status().code(),
            api::StatusCode::kUnimplemented);
  EXPECT_EQ(service.value()->search_jobs(), nullptr);
  EXPECT_FALSE(service.value()->stats().search.enabled);
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST(SearchWire, RequestDecodingValidates) {
  const ir::Program p = multi_root_program();
  api::Json body = api::Json::object();
  body.set("program", api::to_json(p));
  body.set("method", api::Json(std::string("mcts")));
  body.set("iterations", api::Json(static_cast<std::int64_t>(25)));
  api::Result<api::SearchRequest> decoded = api::search_request_from_json(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->method, SearchMethod::kMcts);
  EXPECT_EQ(decoded->mcts_iterations, 25);

  body.set("method", api::Json(std::string("annealing")));
  EXPECT_EQ(api::search_request_from_json(body).status().code(),
            api::StatusCode::kInvalidArgument);
  body.set("method", api::Json(std::string("beam")));
  body.set("beam_width", api::Json(static_cast<std::int64_t>(0)));
  EXPECT_EQ(api::search_request_from_json(body).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(api::search_request_from_json(api::Json(std::string("x"))).status().code(),
            api::StatusCode::kInvalidArgument);
}

TEST(SearchWire, JobInfoEncodingRoundTripsTheSchedule) {
  SearchJobInfo info;
  info.id = "sj-000001";
  info.state = JobState::kDone;
  info.reused = true;
  info.progress = 1.0;
  info.evaluations = 12;
  info.best_speedup = 2.25;
  info.baseline_speedup = 1.0;
  info.program_fingerprint = 18446744073709551615ull;  // u64 max: string field
  info.best_schedule.tiles.push_back({0, 0, {32, 32}});
  const api::Json j = api::to_json(info);
  EXPECT_EQ(j.find("job_id")->as_string(), "sj-000001");
  EXPECT_EQ(j.find("state")->as_string(), "DONE");
  EXPECT_TRUE(j.find("reused")->as_bool());
  EXPECT_EQ(j.find("program_fingerprint")->as_string(), "18446744073709551615");
  api::Result<transforms::Schedule> schedule = api::schedule_from_json(*j.find("schedule"));
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->to_string(), info.best_schedule.to_string());
}

}  // namespace
}  // namespace tcm::jobs
