// Tests for the tcm::api façade layer (src/api/): the Status/Result error
// model, the dependency-free JSON codec, the v1 wire encodings of programs
// and schedules, and the Service façade semantics — no exception ever
// crosses the boundary, corrupt checkpoints surface as statuses while the
// incumbent keeps serving, and the measured-feedback reservoir survives
// restarts without double-counting.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/service.h"
#include "api/status.h"
#include "api/wire.h"
#include "datagen/generator.h"
#include "ir/builder.h"
#include "model/cost_model.h"
#include "model/featurize.h"
#include "registry/model_registry.h"
#include "serve/prediction_service.h"
#include "transforms/apply.h"

namespace fs = std::filesystem;

namespace tcm::api {
namespace {

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tcm_api_" + name);
  fs::remove_all(dir);
  return dir.string();
}

ir::Program test_program(std::uint64_t seed = 0) {
  datagen::RandomProgramGenerator gen(datagen::GeneratorOptions::tiny());
  return gen.generate(seed);
}

// Registers an untrained fast-config CostModel as v1 (+ optional extra
// versions) and promotes v1; weights are random but deterministic per seed,
// which is all the façade semantics need.
std::string make_registry(const std::string& name, int versions = 1) {
  const std::string root = scratch_dir(name);
  registry::ModelRegistry reg(root);
  for (int v = 0; v < versions; ++v) {
    Rng rng(100 + static_cast<std::uint64_t>(v));
    model::CostModel m(model::ModelConfig::fast(), rng);
    registry::ModelManifest manifest;
    manifest.config = model::ModelConfig::fast();
    manifest.provenance = "api_test v" + std::to_string(v + 1);
    reg.register_version(m, manifest);
  }
  reg.promote(1);
  return root;
}

ServiceOptions fast_options(const std::string& root) {
  ServiceOptions opt;
  opt.registry_root = root;
  opt.serve.num_threads = 2;
  opt.serve.features = model::FeatureConfig::fast();
  opt.serve.max_queue_latency = std::chrono::microseconds(200);
  return opt;
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(Status, CodesMapToHttpAndNames) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(http_status(StatusCode::kOk), 200);
  EXPECT_EQ(http_status(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(http_status(StatusCode::kNotFound), 404);
  EXPECT_EQ(http_status(StatusCode::kFailedPrecondition), 409);
  EXPECT_EQ(http_status(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(http_status(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(http_status(StatusCode::kUnavailable), 503);
  EXPECT_EQ(http_status(StatusCode::kInternal), 500);
  EXPECT_EQ(status_code_name(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_EQ(Status::not_found("x").to_string(), "NOT_FOUND: x");
}

TEST(Status, ExceptionMapping) {
  EXPECT_EQ(status_from_exception(std::invalid_argument("a")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(status_from_exception(std::runtime_error("b")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(status_from_exception(std::logic_error("c")).code(), StatusCode::kInternal);
}

TEST(Result, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(Status::not_found("missing"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, ParseScalarsAndStructure) {
  Result<Json> doc = Json::parse(R"({"a":1,"b":-2.5,"c":[true,false,null],"d":{"e":"hi"}})");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_TRUE(doc->find("a")->is_int());
  EXPECT_EQ(doc->find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(doc->find("b")->as_double(), -2.5);
  EXPECT_EQ(doc->find("c")->as_array().size(), 3u);
  EXPECT_EQ(doc->find("d")->find("e")->as_string(), "hi");
}

TEST(Json, RoundTripsStringsWithEscapes) {
  Json j = Json(std::string("line\nquote\"back\\slash\ttab\x01"));
  Result<Json> back = Json::parse(j.dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->as_string(), j.as_string());
  // \u escapes (incl. a surrogate pair) decode to UTF-8.
  Result<Json> uni = Json::parse(R"("\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->as_string(), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, DoublesRoundTripBitwise) {
  for (double v : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 6.62607015e-34, 12345.6789}) {
    Result<Json> back = Json::parse(Json(v).dump());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->as_double(), v);  // exact, not near
  }
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "{}extra",
        "[01]", "\"\\q\"", "nul", "--1", "+1", "0x10", "[1,]", "{\"a\":1,}"}) {
    Result<Json> doc = Json::parse(bad);
    EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
    if (!doc.ok()) EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Json, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(Json::parse(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(Json::parse(deep, /*max_depth=*/128).ok());
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST(Wire, ProgramRoundTripsThroughJson) {
  datagen::RandomScheduleGenerator sgen;
  Rng rng(11);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const ir::Program original = test_program(seed);
    Result<Json> parsed = Json::parse(to_json(original).dump());
    ASSERT_TRUE(parsed.ok());
    Result<ir::Program> back = program_from_json(*parsed);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    // Pseudo-code rendering covers names, structure, accesses, annotations.
    EXPECT_EQ(back->to_string(), original.to_string());
    // And the decoded program featurizes identically under a real schedule.
    const transforms::Schedule sched = sgen.generate(original, rng);
    auto f1 = model::featurize(original, sched, model::FeatureConfig::fast());
    auto f2 = model::featurize(*back, sched, model::FeatureConfig::fast());
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());
    ASSERT_EQ(f1->comp_vectors.size(), f2->comp_vectors.size());
    for (std::size_t i = 0; i < f1->comp_vectors.size(); ++i)
      EXPECT_EQ(f1->comp_vectors[i], f2->comp_vectors[i]);
  }
}

TEST(Wire, ScheduleRoundTripsThroughJson) {
  datagen::RandomScheduleGenerator sgen;
  Rng rng(5);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const ir::Program p = test_program(seed);
    const transforms::Schedule original = sgen.generate(p, rng);
    Result<Json> parsed = Json::parse(to_json(original).dump());
    ASSERT_TRUE(parsed.ok());
    Result<transforms::Schedule> back = schedule_from_json(*parsed);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(*back, original);
  }
}

TEST(Wire, SkewedMultiRootProgramRoundTripsAndFeaturizesBitwise) {
  // A two-root program plus a schedule exercising the LOOPer-class space:
  // skew + wavefront interchange on one computation, a unimodular transform
  // on the other. Both the base program and its transformed form (whose
  // loops carry skew_of / skew_is_sum / tags) must survive the wire.
  ir::ProgramBuilder b("skewed");
  ir::Var i = b.var("i", 8), j = b.var("j", 10);
  const int in = b.input("in", {8, 10});
  b.computation("c0", {i, j}, {i, j}, b.load(in, {i, j}) * 2.0);
  b.new_root();
  ir::Var i2 = b.var("i2", 8), j2 = b.var("j2", 10);
  b.computation("c1", {i2, j2}, {i2, j2}, b.load(in, {i2, j2}) + 1.0);
  const ir::Program original = b.build();
  ASSERT_EQ(original.roots.size(), 2u);

  transforms::Schedule sched;
  sched.skews.push_back({0, 0, 2});
  sched.interchanges.push_back({0, 0, 1});
  sched.unimodulars.push_back({1, 0, {0, 1, 1, 0}});
  ASSERT_TRUE(transforms::is_legal(original, sched));

  // Schedule specs survive the wire verbatim.
  Result<Json> sj = Json::parse(to_json(sched).dump());
  ASSERT_TRUE(sj.ok());
  Result<transforms::Schedule> sched_back = schedule_from_json(*sj);
  ASSERT_TRUE(sched_back.ok()) << sched_back.status().to_string();
  EXPECT_EQ(*sched_back, sched);

  // Base program + decoded schedule featurize bitwise-identically.
  Result<Json> pj = Json::parse(to_json(original).dump());
  ASSERT_TRUE(pj.ok());
  Result<ir::Program> back = program_from_json(*pj);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->to_string(), original.to_string());
  auto f1 = model::featurize(original, sched, model::FeatureConfig::fast());
  auto f2 = model::featurize(*back, *sched_back, model::FeatureConfig::fast());
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  ASSERT_EQ(f1->comp_vectors.size(), f2->comp_vectors.size());
  for (std::size_t k = 0; k < f1->comp_vectors.size(); ++k)
    EXPECT_EQ(f1->comp_vectors[k], f2->comp_vectors[k]);

  // The transformed program carries skew loop fields; they round-trip too.
  const ir::Program transformed = transforms::apply_schedule(original, sched);
  Result<Json> tj = Json::parse(to_json(transformed).dump());
  ASSERT_TRUE(tj.ok());
  Result<ir::Program> tback = program_from_json(*tj);
  ASSERT_TRUE(tback.ok()) << tback.status().to_string();
  EXPECT_EQ(tback->to_string(), transformed.to_string());
  const auto nest = tback->nest_of(0);
  EXPECT_TRUE(tback->loop(nest[0]).skew_is_sum);
  EXPECT_EQ(tback->loop(nest[0]).skew_of, tback->loop(nest[1]).id);
  EXPECT_TRUE(tback->loop(nest[1]).tag_skewed);
}

TEST(Wire, MalformedSkewAndUnimodularSpecsRejected) {
  auto parse_schedule = [](const char* text) {
    Result<Json> doc = Json::parse(text);
    EXPECT_TRUE(doc.ok());
    return schedule_from_json(*doc);
  };
  // Skew without a factor.
  Result<transforms::Schedule> r1 = parse_schedule(R"({"skew":[{"comp":0,"level":0}]})");
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  // Unimodular with a coeff count that is not 4 or 9.
  Result<transforms::Schedule> r2 =
      parse_schedule(R"({"unimodular":[{"comp":0,"level":0,"coeffs":[1,0,0]}]})");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  // Non-integer coefficients.
  Result<transforms::Schedule> r3 =
      parse_schedule(R"({"unimodular":[{"comp":0,"level":0,"coeffs":[1,0,0,"x"]}]})");
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  // Well-formed specs still decode.
  EXPECT_TRUE(parse_schedule(R"({"skew":[{"comp":0,"level":1,"factor":2}]})").ok());
}

TEST(Wire, RejectsInvalidPrograms) {
  // Structurally broken: comp store access out of buffer bounds.
  Result<Json> doc = Json::parse(R"({
    "buffers":[{"name":"A","dims":[4]}],
    "loops":[{"iter":"i","extent":8,"parent":-1,"body":[["comp",0]]}],
    "comps":[{"name":"c0","store":{"buffer":0,"depth":1,"rows":[[1,0]]},
              "rhs":{"const":1}}],
    "roots":[0]})");
  ASSERT_TRUE(doc.ok());
  Result<ir::Program> program = program_from_json(*doc);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);

  // Referentially broken: body points at a comp that does not exist.
  Result<Json> doc2 = Json::parse(R"({
    "buffers":[{"name":"A","dims":[4]}],
    "loops":[{"iter":"i","extent":4,"parent":-1,"body":[["comp",3]]}],
    "comps":[],
    "roots":[0]})");
  ASSERT_TRUE(doc2.ok());
  EXPECT_FALSE(program_from_json(*doc2).ok());
}

TEST(Wire, PredictRequestValidation) {
  const ir::Program p = test_program(1);
  Json body = Json::object();
  body.set("program", to_json(p));
  body.set("schedule", to_json(transforms::Schedule{}));
  ASSERT_TRUE(predict_request_from_json(body).ok());

  Json both = body;
  both.set("schedules", Json::array());
  EXPECT_FALSE(predict_request_from_json(both).ok());  // schedule AND schedules

  Json neither = Json::object();
  neither.set("program", to_json(p));
  EXPECT_FALSE(predict_request_from_json(neither).ok());

  Json wrong_version = body;
  wrong_version.set("api_version", Json(static_cast<std::int64_t>(2)));
  Result<PredictRequest> rejected = predict_request_from_json(wrong_version);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, ErrorBodyShape) {
  const Json body = error_body(Status::not_found("nope"));
  const Json* err = body.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->find("code")->as_string(), "NOT_FOUND");
  EXPECT_EQ(err->find("http")->as_int(), 404);
  EXPECT_EQ(err->find("message")->as_string(), "nope");
}

// ---------------------------------------------------------------------------
// Service façade
// ---------------------------------------------------------------------------

TEST(Service, OpenFailsCleanlyOnEmptyRegistry) {
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(scratch_dir("empty")));
  ASSERT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Service, OpenFailsCleanlyOnFeatureMismatch) {
  const std::string root = make_registry("feat_mismatch");
  ServiceOptions opt = fast_options(root);
  opt.serve.features = model::FeatureConfig::paper();  // != manifest hash
  Result<std::unique_ptr<Service>> svc = Service::open(std::move(opt));
  ASSERT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Service, PredictMatchesInProcessFuturesBitwise) {
  const std::string root = make_registry("parity");
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok()) << svc.status().to_string();

  datagen::RandomScheduleGenerator sgen;
  Rng rng(7);
  PredictRequest request;
  request.program = test_program(2);
  for (int i = 0; i < 12; ++i) request.schedules.push_back(sgen.generate(request.program, rng));

  Result<PredictResponse> response = (*svc)->predict(request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_EQ(response->predictions.size(), request.schedules.size());

  // The same pairs through the raw in-process futures API must agree
  // bitwise (inference is deterministic and batch-composition invariant).
  serve::PredictionService& raw = (*svc)->raw_service();
  std::vector<std::future<serve::Prediction>> futures;
  for (const transforms::Schedule& s : request.schedules)
    futures.push_back(raw.submit(request.program, s));
  raw.flush();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::Prediction direct = futures[i].get();
    EXPECT_EQ(response->predictions[i].speedup, direct.speedup) << "row " << i;
    EXPECT_EQ(response->predictions[i].model_version, direct.model_version);
  }
}

TEST(Service, PredictServesSkewedMultiRootProgramEndToEnd) {
  // The expanded-space end-to-end path: a multi-root program with a skew +
  // wavefront interchange on one root and a unimodular transform on the
  // other goes through the wire decode, featurization and fused inference,
  // and comes back as a finite positive speedup.
  const std::string root = make_registry("skewed_e2e");
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok()) << svc.status().to_string();

  ir::ProgramBuilder b("wave");
  ir::Var i = b.var("i", 16), j = b.var("j", 16);
  const int in = b.input("in", {16, 16});
  const int c0 = b.computation("c0", {i, j}, {i, j}, b.load(in, {i, j}) * 2.0, nullptr);
  b.new_root();
  ir::Var i2 = b.var("i2", 16), j2 = b.var("j2", 16);
  b.computation("c1", {i2, j2}, {i2, j2}, b.load(b.buffer_of(c0), {i2, j2}) + 1.0);
  const ir::Program program = b.build();
  ASSERT_EQ(program.roots.size(), 2u);

  transforms::Schedule sched;
  sched.skews.push_back({0, 0, 1});
  sched.interchanges.push_back({0, 0, 1});
  sched.unimodulars.push_back({1, 0, {0, 1, 1, 0}});
  ASSERT_TRUE(transforms::is_legal(program, sched));

  // Through the JSON wire, exactly as an HTTP /v1/predict request arrives.
  Json body = Json::object();
  body.set("program", to_json(program));
  body.set("schedule", to_json(sched));
  Result<Json> parsed = Json::parse(body.dump());
  ASSERT_TRUE(parsed.ok());
  Result<PredictRequest> request = predict_request_from_json(*parsed);
  ASSERT_TRUE(request.ok()) << request.status().to_string();

  Result<PredictResponse> response = (*svc)->predict(*request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  ASSERT_EQ(response->predictions.size(), 1u);
  EXPECT_GT(response->predictions[0].speedup, 0.0);
  EXPECT_EQ(response->predictions[0].model_version, 1);
}

TEST(Service, PredictRejectsBadRequestsWithoutDying) {
  const std::string root = make_registry("bad_requests");
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());

  PredictRequest no_schedules;
  no_schedules.program = test_program(0);
  EXPECT_EQ((*svc)->predict(no_schedules).status().code(), StatusCode::kInvalidArgument);

  // A program over the featurization depth limit is structurally valid but
  // fails featurization on the serving path; the façade must hand back
  // INVALID_ARGUMENT, not die. (Built by hand: the random generator clamps
  // depth to its iteration budget.)
  const int depth = model::FeatureConfig::fast().max_depth + 1;
  ir::Program over_deep;
  ir::Buffer buf;
  buf.name = "A";
  buf.dims = {2};
  over_deep.add_buffer(buf);
  for (int d = 0; d < depth; ++d) {
    ir::LoopNode loop;
    loop.iter = {"i" + std::to_string(d), 2};
    loop.parent = d - 1;
    over_deep.add_loop(loop);
    if (d > 0) over_deep.loops[static_cast<std::size_t>(d - 1)].body.push_back(
        ir::BodyItem::loop(d));
  }
  ir::Computation comp;
  comp.name = "c0";
  comp.store.buffer_id = 0;
  comp.store.matrix = ir::AccessMatrix(1, depth);
  comp.store.matrix.set(0, 0, 1);
  comp.rhs = ir::Expr::constant(1.0);
  comp.loop_id = depth - 1;
  over_deep.add_computation(comp);
  over_deep.loops.back().body.push_back(ir::BodyItem::computation(0));
  over_deep.roots = {0};
  ASSERT_FALSE(over_deep.validate().has_value());
  PredictRequest too_deep;
  too_deep.program = over_deep;
  too_deep.schedules.emplace_back();
  Result<PredictResponse> rejected = (*svc)->predict(too_deep);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // The service still serves after both rejections.
  PredictRequest good;
  good.program = test_program(0);
  good.schedules.emplace_back();
  EXPECT_TRUE((*svc)->predict(good).ok());
}

TEST(Service, PromoteRollbackLifecycle) {
  const std::string root = make_registry("lifecycle", /*versions=*/2);
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());
  EXPECT_EQ((*svc)->active_version(), 1);

  EXPECT_EQ((*svc)->promote(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE((*svc)->promote(2).ok());
  EXPECT_EQ((*svc)->active_version(), 2);

  Result<std::vector<ModelInfo>> models = (*svc)->models();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 2u);
  EXPECT_TRUE((*models)[1].active);
  EXPECT_TRUE((*models)[0].previous);

  Result<int> restored = (*svc)->rollback();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 1);
  EXPECT_EQ((*svc)->active_version(), 1);
}

TEST(Service, RollbackWithoutPreviousFails) {
  const std::string root = make_registry("no_rollback");
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());
  Result<int> restored = (*svc)->rollback();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
}

// The satellite regression test: a corrupt checkpoint must surface as a
// Status through the façade — never an escaped exception, never a dead
// daemon — and the incumbent must keep serving.
TEST(Service, TamperedCheckpointPromotionIsRejectedAndServingSurvives) {
  const std::string root = make_registry("tampered", /*versions=*/2);
  {
    // Corrupt v2's weights on disk: truncate to half (a torn write — the
    // corruption load_parameters detects structurally; manifest-hash
    // tampering is covered by registry_test).
    registry::ModelRegistry reg(root);
    const std::string path = reg.weights_path(2);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);
  }
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());

  const Status promoted = (*svc)->promote(2);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*svc)->active_version(), 1);  // incumbent untouched

  PredictRequest request;
  request.program = test_program(3);
  request.schedules.emplace_back();
  Result<PredictResponse> response = (*svc)->predict(request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response->predictions[0].model_version, 1);
}

// Same contract for corruption that keeps the file structurally valid: a
// single flipped bit in the float payload is invisible to shape checks and
// only the weights checksum catches it.
TEST(Service, BitFlippedCheckpointPromotionIsRejected) {
  const std::string root = make_registry("bitflip", /*versions=*/2);
  {
    registry::ModelRegistry reg(root);
    const std::string path = reg.weights_path(2);
    const auto size = fs::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 8));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(size - 8));
    f.write(&byte, 1);
  }
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());
  const Status promoted = (*svc)->promote(2);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*svc)->active_version(), 1);
}

TEST(Service, StatsAndMetricsExposition) {
  const std::string root = make_registry("stats");
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());

  PredictRequest request;
  request.program = test_program(4);
  datagen::RandomScheduleGenerator sgen;
  Rng rng(9);
  for (int i = 0; i < 6; ++i) request.schedules.push_back(sgen.generate(request.program, rng));
  ASSERT_TRUE((*svc)->predict(request).ok());
  ASSERT_TRUE((*svc)->quiesce().ok());

  const StatsSnapshot stats = (*svc)->stats();
  EXPECT_EQ(stats.serve.requests, 6u);
  EXPECT_EQ(stats.active_version, 1);
  EXPECT_TRUE(stats.feedback.enabled);
  EXPECT_EQ(stats.feedback.offered, 6u);

  // The JSON encoding parses back and carries the same counters.
  Result<Json> parsed = Json::parse(to_json(stats).dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->find("serve")->find("requests")->as_int(), 6);

  // The Prometheus exposition carries the scheduler/drift/feedback series
  // (the former stdout logging path) in valid text format.
  const std::string text = (*svc)->metrics()->render_prometheus();
  EXPECT_NE(text.find("tcm_serve_requests_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("tcm_model_active_version 1\n"), std::string::npos);
  EXPECT_NE(text.find("tcm_drift_signal{signal=\"psi\"}"), std::string::npos);
  EXPECT_NE(text.find("tcm_autopilot_cycles_total"), std::string::npos);
  EXPECT_NE(text.find("tcm_feedback_offered_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tcm_http_requests_total counter\n"), std::string::npos);
  // The serving histograms render from the shared registry: e2e latency plus
  // the per-stage family, with cumulative buckets and matching _count.
  EXPECT_NE(text.find("# TYPE tcm_serve_latency_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("tcm_serve_latency_seconds_count 6\n"), std::string::npos);
  EXPECT_NE(text.find("tcm_stage_duration_seconds_bucket{stage=\"infer\",le=\"+Inf\"}"),
            std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(Service, UnavailableAfterShutdown) {
  const std::string root = make_registry("shutdown");
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok());
  (*svc)->shutdown();
  PredictRequest request;
  request.program = test_program(0);
  request.schedules.emplace_back();
  EXPECT_EQ((*svc)->predict(request).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*svc)->healthy().code(), StatusCode::kUnavailable);
  (*svc)->shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Feedback persistence across restarts
// ---------------------------------------------------------------------------

TEST(Service, FeedbackReservoirSurvivesRestart) {
  const std::string root = make_registry("feedback_persist");
  ServiceOptions opt = fast_options(root);
  opt.feedback.capacity = 64;
  opt.feedback.sample_fraction = 1.0;  // keep everything: deterministic test

  datagen::RandomScheduleGenerator sgen;
  Rng rng(13);
  std::size_t buffered_before = 0;
  {
    Result<std::unique_ptr<Service>> svc = Service::open(opt);
    ASSERT_TRUE(svc.ok());
    PredictRequest request;
    request.program = test_program(6);
    for (int i = 0; i < 10; ++i) request.schedules.push_back(sgen.generate(request.program, rng));
    ASSERT_TRUE((*svc)->predict(request).ok());
    buffered_before = (*svc)->stats().feedback.buffered;
    (*svc)->shutdown();  // persists the reservoir
  }
  ASSERT_GT(buffered_before, 0u);
  ASSERT_TRUE(fs::exists(root + "/feedback.json"));

  {
    Result<std::unique_ptr<Service>> svc = Service::open(opt);
    ASSERT_TRUE(svc.ok());
    // The reservoir came back, and the restored samples are real programs:
    // they re-featurize under the serving config.
    EXPECT_EQ((*svc)->stats().feedback.buffered, buffered_before);
    // Counters stay consistent across the restore: sampled never exceeds
    // offered (the /metrics ratio must remain <= 1).
    EXPECT_LE((*svc)->stats().feedback.sampled, (*svc)->stats().feedback.offered);
    for (const serve::ServedSample& s : (*svc)->feedback_buffer()->snapshot())
      EXPECT_TRUE(model::featurize(s.program, s.schedule, opt.serve.features).has_value());
    // The snapshot file was consumed: a crash right now cannot double-load.
    EXPECT_FALSE(fs::exists(root + "/feedback.json"));
  }
}

TEST(Service, CorruptFeedbackSnapshotIsDiscardedNotFatal) {
  const std::string root = make_registry("feedback_corrupt");
  {
    std::ofstream f(root + "/feedback.json", std::ios::trunc);
    f << "{ this is not json";
  }
  Result<std::unique_ptr<Service>> svc = Service::open(fast_options(root));
  ASSERT_TRUE(svc.ok()) << svc.status().to_string();
  EXPECT_EQ((*svc)->stats().feedback.buffered, 0u);
  EXPECT_FALSE(fs::exists(root + "/feedback.json"));  // consumed either way
}

TEST(Service, DrainedFeedbackNeverDoubleCounted) {
  const std::string root = make_registry("feedback_drain");
  ServiceOptions opt = fast_options(root);
  opt.feedback.capacity = 64;
  opt.feedback.sample_fraction = 1.0;

  {
    Result<std::unique_ptr<Service>> svc = Service::open(opt);
    ASSERT_TRUE(svc.ok());
    datagen::RandomScheduleGenerator sgen;
    Rng rng(17);
    PredictRequest request;
    request.program = test_program(8);
    for (int i = 0; i < 8; ++i) request.schedules.push_back(sgen.generate(request.program, rng));
    ASSERT_TRUE((*svc)->predict(request).ok());
    ASSERT_GT((*svc)->stats().feedback.buffered, 0u);

    // A continual cycle drains the buffer (this is literally what
    // ContinualTrainer::run_cycle does); the drained samples now live in
    // the fine-tune pipeline, not the reservoir.
    const std::vector<serve::ServedSample> drained = (*svc)->feedback_buffer()->drain();
    EXPECT_EQ(drained.size(), 8u);
    (*svc)->shutdown();  // persists the post-drain (empty) reservoir
  }

  // The restart must restore nothing: drained samples are never
  // double-counted into a later cycle.
  Result<std::unique_ptr<Service>> again = Service::open(opt);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->stats().feedback.buffered, 0u);
}

}  // namespace
}  // namespace tcm::api
