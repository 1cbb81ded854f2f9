#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "api/http_client.h"
#include "api/json.h"
#include "api/wire.h"
#include "datagen/generator.h"
#include "serve/fingerprint.h"

namespace perfbench {

using namespace tcm;

namespace {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x;
}

// Fills slot `p` of the pool: a random program with `per_program` distinct
// schedules. Seeds that cannot supply that many are skipped, deterministically.
void fill_slot(std::uint64_t seed, int p, int per_program, std::uint64_t first_attempt,
               ir::Program& program, std::vector<transforms::Schedule>& schedules) {
  const datagen::RandomProgramGenerator gen;
  const datagen::RandomScheduleGenerator sgen;
  for (std::uint64_t attempt = first_attempt;; ++attempt) {
    const std::uint64_t s = mix_seed(mix_seed(seed, static_cast<std::uint64_t>(p)), attempt);
    program = gen.generate(s);
    if (program.comps.empty()) continue;
    Rng rng(s ^ 0x5bd1e995ULL);
    schedules.clear();
    std::unordered_set<std::uint64_t> seen;
    for (int tries = 0; tries < per_program * 8 && static_cast<int>(schedules.size()) < per_program;
         ++tries) {
      transforms::Schedule sched = sgen.generate(program, rng);
      if (seen.insert(serve::fingerprint(sched)).second) schedules.push_back(std::move(sched));
    }
    if (static_cast<int>(schedules.size()) == per_program) return;
  }
}

void encode_slot(PredictPool& pool, int p, std::vector<transforms::Schedule>& schedules) {
  const auto pi = static_cast<std::size_t>(p);
  const auto per = static_cast<std::size_t>(pool.per_program);
  pool.program_json[pi] = api::to_json(pool.programs[pi]).dump();
  for (std::size_t k = 0; k < per; ++k) {
    PairInput& pair = pool.pairs[pi * per + k];
    pair.program = static_cast<std::uint32_t>(p);
    pair.schedule = std::move(schedules[k]);
    pair.json = api::to_json(pair.schedule).dump();
  }
}

}  // namespace

PredictPool make_pool(std::uint64_t seed, int programs, int per_program) {
  PredictPool pool;
  pool.per_program = per_program;
  pool.programs.resize(static_cast<std::size_t>(programs));
  pool.program_json.resize(static_cast<std::size_t>(programs));
  pool.pairs.resize(static_cast<std::size_t>(programs) * static_cast<std::size_t>(per_program));
  // Small random programs can coincide; a slot whose program an earlier slot
  // already holds is regenerated, so every (program, schedule) pair is
  // distinct.
  std::unordered_set<std::uint64_t> seen;
  std::vector<transforms::Schedule> schedules;
  for (int p = 0; p < programs; ++p) {
    ir::Program& program = pool.programs[static_cast<std::size_t>(p)];
    std::uint64_t attempt = 0;
    do {
      fill_slot(seed, p, per_program, attempt, program, schedules);
      attempt += 1 << 20;  // past any attempt the previous call made
    } while (!seen.insert(serve::fingerprint(program)).second);
    encode_slot(pool, p, schedules);
  }
  return pool;
}

PredictTraffic::PredictTraffic(const PredictPool& pool, Mix mix, int batch, std::uint64_t seed)
    : pool_(pool), mix_(mix), batch_(batch), seed_(seed) {}

std::string PredictTraffic::body_for(const std::vector<std::uint32_t>& pairs) const {
  const PairInput& first = pool_.pairs[pairs.front()];
  std::string body;
  body.reserve(pool_.program_json[first.program].size() + pairs.size() * 256 + 32);
  body += "{\"program\":";
  body += pool_.program_json[first.program];
  if (pairs.size() == 1) {
    body += ",\"schedule\":";
    body += first.json;
  } else {
    body += ",\"schedules\":[";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i) body += ',';
      body += pool_.pairs[pairs[i]].json;
    }
    body += ']';
  }
  body += '}';
  return body;
}

std::vector<std::uint32_t> PredictTraffic::next_request(Rng& rng) {
  if (mix_ == Mix::kRoundRobin)
    return {static_cast<std::uint32_t>(next_.fetch_add(1) % pool_.pairs.size())};
  // Hot batch: `batch_` distinct schedules of one program (partial shuffle).
  const auto per = static_cast<std::uint32_t>(pool_.per_program);
  const auto program = static_cast<std::uint32_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool_.programs.size()) - 1));
  std::vector<std::uint32_t> idx(per);
  for (std::uint32_t i = 0; i < per; ++i) idx[i] = program * per + i;
  const auto n = std::min<std::uint32_t>(static_cast<std::uint32_t>(batch_), per);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(i, per - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(n);
  return idx;
}

bool PredictTraffic::keep(const std::vector<std::uint32_t>& pairs, std::uint64_t draw) const {
  if (mix_ == Mix::kRoundRobin) return mix_seed(seed_, pairs.front()) % 8 == 0;
  return mix_seed(seed_, draw) % 16 == 0;
}

void PredictTraffic::warm_up(int port, int requests) {
  api::HttpClient client("127.0.0.1", port);
  Rng rng(mix_seed(seed_, 0x3a3a));
  for (int i = 0; i < requests; ++i) {
    api::Result<api::HttpResponse> r = client.post("/v1/predict", body_for(next_request(rng)));
    if (!r.ok() || r->status != 200) throw std::runtime_error("warm-up request failed");
  }
}

std::vector<ClientLog> PredictTraffic::run(int port, int clients, Clock::time_point until,
                                           const std::atomic<bool>* stop,
                                           SpanRecorder* recorder, const AfterRequest& after) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  const std::uint64_t run_id = runs_.fetch_add(1);
  run_threads(clients, [&](int c) {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      const std::uint64_t stream = (run_id << 8) | static_cast<std::uint64_t>(c);
      Rng rng(mix_seed(seed_, stream));
      api::HttpClient client("127.0.0.1", port, std::chrono::milliseconds(30000));
      std::uint64_t n = 0;
      while (Clock::now() < until && !(stop && stop->load(std::memory_order_relaxed))) {
        std::vector<std::uint32_t> pairs = next_request(rng);
        const std::string body = body_for(pairs);
        const std::uint64_t op = (stream << 32) | ++n;
        const std::uint64_t root = recorder ? recorder->next_id() : 0;
        const Clock::time_point t0 = Clock::now();
        api::Result<api::HttpResponse> r = client.post("/v1/predict", body);
        const Clock::time_point t1 = Clock::now();
        if (recorder) recorder->record("request", root, 0, op, t0, t1);
        log.ops.push_back({us_between(t0, t1) / 1000.0, t1});
        log.body_bytes += static_cast<std::int64_t>(body.size());
        if (!r.ok()) client.disconnect();  // reconnects on the next request
        if (!r.ok() || r->status != 200) ++log.bad_status;
        else if (keep(pairs, op)) log.kept.push_back({pairs, std::move(r->body)});
        if (recorder && after) after(c, op, root, body, pairs);
      }
    });
  return logs;
}

CheckTally check_predictions(const PredictPool& pool, const std::vector<ClientLog>& logs,
                             ReferenceScorer& scorer) {
  std::unordered_map<std::uint64_t, double> reference;  // (version, pair) -> speedup
  CheckTally tally;
  for (const ClientLog& log : logs) {
    tally.requests += static_cast<std::int64_t>(log.ops.size());
    tally.failed += log.bad_status;
    for (const RequestLog& r : log.kept) {
      api::Result<api::Json> doc = api::Json::parse(r.response);
      const api::Json* preds = doc.ok() ? doc->find("predictions") : nullptr;
      bool ok = preds != nullptr && preds->is_array() && preds->as_array().size() == r.pairs.size();
      for (std::size_t i = 0; ok && i < r.pairs.size(); ++i) {
        const api::Json& item = preds->as_array()[i];
        const api::Json* speedup = item.find("speedup");
        const api::Json* version = item.find("model_version");
        ok = speedup != nullptr && version != nullptr && speedup->is_number();
        if (!ok) break;
        const double value = speedup->as_double();
        const int v = static_cast<int>(version->as_int());
        const std::uint64_t key = (static_cast<std::uint64_t>(v) << 32) | r.pairs[i];
        auto it = reference.find(key);
        if (it == reference.end()) {
          const PairInput& pair = pool.pairs[r.pairs[i]];
          it = reference.emplace(key, scorer.score(v, pool.programs[pair.program], pair.schedule))
                   .first;
        }
        ++tally.compared;
        ok = std::isfinite(value) && value > 0 && value == it->second;
      }
      if (!ok) ++tally.failed;
    }
  }
  return tally;
}

std::vector<OpSample> all_ops(const std::vector<ClientLog>& logs) {
  std::vector<OpSample> ops;
  for (const ClientLog& log : logs) ops.insert(ops.end(), log.ops.begin(), log.ops.end());
  return ops;
}

double mean_body_bytes(const std::vector<ClientLog>& logs) {
  std::int64_t bytes = 0, n = 0;
  for (const ClientLog& log : logs) {
    bytes += log.body_bytes;
    n += static_cast<std::int64_t>(log.ops.size());
  }
  return n > 0 ? static_cast<double>(bytes) / static_cast<double>(n) : 0;
}

}  // namespace perfbench
