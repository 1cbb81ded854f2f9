#include "layers.h"

#include <map>
#include <optional>
#include <string>

#include "model/dataset.h"
#include "model/featurize.h"
#include "nn/inference.h"
#include "transforms/apply.h"
#include "transforms/dependence.h"

namespace perfbench {

using namespace tcm;

namespace {

void append_structure(const model::LoopTreeNode& node, std::string& out) {
  out += '(';
  for (int c : node.comps) out += std::to_string(c) + ',';
  for (const model::LoopTreeNode& child : node.children) append_structure(child, out);
  out += ')';
}

// infer_batch cost per row at batch sizes 1, 8 and 32, on replicated rows.
void measure_infer_rows(model::SpeedupPredictor& model,
                        const std::vector<const model::FeaturizedProgram*>& rows, Metrics& m) {
  nn::InferenceArena arena;
  for (int b : {1, 8, 32}) {
    const int reps = 512 / b + 8;
    double us = 0;
    std::int64_t n = 0;
    for (const model::FeaturizedProgram* row : rows) {
      const model::Batch batch = model::make_inference_batch(
          std::vector<const model::FeaturizedProgram*>(static_cast<std::size_t>(b), row));
      model.infer_batch(batch, arena);  // builds the plan, sizes the arena
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < reps; ++r) model.infer_batch(batch, arena);
      us += us_between(t0, Clock::now());
      n += static_cast<std::int64_t>(reps) * b;
    }
    m.set("model.infer_us_per_row.b" + std::to_string(b), n ? us / static_cast<double>(n) : 0,
          "us");
  }
}

double per(double total, std::int64_t n) { return n > 0 ? total / static_cast<double>(n) : 0; }

}  // namespace

std::string structure_key(const model::FeaturizedProgram& f) {
  std::string key = std::to_string(f.comp_vectors.size());
  append_structure(f.root, key);
  return key;
}

void measure_pair_layers(const std::vector<PairRef>& pairs, model::SpeedupPredictor& model,
                         Metrics& m) {
  std::vector<model::FeaturizedProgram> feats;
  feats.reserve(pairs.size());
  Clock::time_point t0 = Clock::now();
  for (const PairRef& p : pairs)
    if (std::optional<model::FeaturizedProgram> f =
            model::featurize(*p.program, *p.schedule, model::FeatureConfig::fast()))
      feats.push_back(std::move(*f));
  m.set("model.featurize_us", per(us_between(t0, Clock::now()), static_cast<std::int64_t>(pairs.size())),
        "us");

  std::map<std::string, std::vector<const model::FeaturizedProgram*>> groups;
  for (const model::FeaturizedProgram& f : feats) groups[structure_key(f)].push_back(&f);
  std::int64_t batches = 0;
  t0 = Clock::now();
  for (int rep = 0; rep < 4; ++rep)
    for (const auto& [key, members] : groups) {
      const model::Batch b = model::make_inference_batch(members);
      batches += b.batch_size() > 0 ? 1 : 0;
    }
  m.set("model.batch_assemble_us", per(us_between(t0, Clock::now()), batches), "us");

  std::vector<const model::FeaturizedProgram*> rows;
  for (const auto& [key, members] : groups) {
    if (rows.size() == 8) break;
    rows.push_back(members.front());
  }
  measure_infer_rows(model, rows, m);

  double legal_us = 0, apply_us = 0, dep_us = 0;
  std::int64_t legal_n = 0, apply_n = 0;
  for (const PairRef& p : pairs) {
    t0 = Clock::now();
    const bool legal = transforms::is_legal(*p.program, *p.schedule);
    legal_us += us_between(t0, Clock::now());
    ++legal_n;
    if (!legal) continue;
    t0 = Clock::now();
    const ir::Program t = transforms::apply_schedule(*p.program, *p.schedule);
    const Clock::time_point t1 = Clock::now();
    static_cast<void>(transforms::check_lexicographic_order(t));
    dep_us += us_between(t1, Clock::now());
    apply_us += us_between(t0, t1);
    ++apply_n;
  }
  m.set("transforms.is_legal_us", per(legal_us, legal_n), "us");
  m.set("transforms.apply_us", per(apply_us, apply_n), "us");
  m.set("transforms.dependence_us", per(dep_us, apply_n), "us");
}

}  // namespace perfbench
