#include "search/beam_search.h"

#include <algorithm>
#include <set>

#include "support/clock.h"
#include "transforms/apply.h"

namespace tcm::search {

SearchResult beam_search(const ir::Program& p, CandidateEvaluator& evaluator,
                         const BeamSearchOptions& options) {
  const auto t0 = support::now();
  const double accounted0 = evaluator.accounted_seconds();
  const std::int64_t evals0 = evaluator.evaluations();

  const std::vector<DecisionPoint> decisions = decision_points(p, options.space);
  std::vector<transforms::Schedule> beam = {transforms::Schedule{}};
  {
    // Warm starts join the initial beam: a remembered schedule for a similar
    // program biases the search toward its region of the space while the
    // empty prefix keeps the full space reachable.
    std::set<std::string> seen = {beam.front().to_string()};
    for (const transforms::Schedule& w : options.warm_start) {
      if (!seen.insert(w.to_string()).second) continue;
      if (transforms::try_apply_schedule(p, w).ok) beam.push_back(w);
    }
  }

  SearchResult result;
  transforms::Schedule best_schedule;
  double best_score = 0;
  bool have_best = false;

  auto record_batch = [&](const std::vector<transforms::Schedule>& scored,
                          const std::vector<double>& scores) {
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (!have_best || scores[i] > best_score) {
        best_score = scores[i];
        best_schedule = scored[i];
        have_best = true;
      }
    }
  };

  auto report = [&](int decision_index) {
    if (!options.on_progress) return true;
    SearchProgress progress;
    progress.decision_index = decision_index;
    progress.decision_count = static_cast<int>(decisions.size());
    progress.evaluations = evaluator.evaluations() - evals0;
    progress.best_score = best_score;
    progress.best_schedule = have_best ? &best_schedule : nullptr;
    return options.on_progress(progress);
  };

  for (std::size_t d = 0; d < decisions.size(); ++d) {
    const DecisionPoint& decision = decisions[d];
    // Expand all beam states; dedupe identical schedules.
    std::vector<transforms::Schedule> candidates;
    std::set<std::string> seen;
    for (const transforms::Schedule& state : beam) {
      for (transforms::Schedule& next : expand_decision(p, state, decision, options.space)) {
        if (seen.insert(next.to_string()).second) candidates.push_back(std::move(next));
      }
    }
    if (candidates.empty()) break;

    // Score candidates with the heuristics appended (what would actually be
    // compiled), then keep the top beam_width prefixes.
    std::vector<transforms::Schedule> scored;
    scored.reserve(candidates.size());
    for (const transforms::Schedule& c : candidates)
      scored.push_back(apply_parallel_vector_heuristics(p, c, options.space));
    const std::vector<double> scores = evaluator.evaluate(p, scored);
    record_batch(scored, scores);

    std::vector<std::size_t> order(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
    const std::size_t keep =
        std::min<std::size_t>(static_cast<std::size_t>(options.beam_width), order.size());
    std::vector<transforms::Schedule> next_beam;
    next_beam.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i)
      next_beam.push_back(candidates[order[i]]);
    beam = std::move(next_beam);

    if (!report(static_cast<int>(d) + 1)) {
      result.stopped_early = true;
      break;
    }
  }

  if (!result.stopped_early) {
    // Final scoring of the surviving states (with heuristics).
    std::vector<transforms::Schedule> finals;
    finals.reserve(beam.size());
    for (const transforms::Schedule& state : beam)
      finals.push_back(apply_parallel_vector_heuristics(p, state, options.space));
    const std::vector<double> final_scores = evaluator.evaluate(p, finals);
    record_batch(finals, final_scores);
  }

  result.best_schedule = have_best ? best_schedule : transforms::Schedule{};
  result.best_score = have_best ? best_score : 1.0;
  result.evaluations = evaluator.evaluations() - evals0;
  result.accounted_seconds = evaluator.accounted_seconds() - accounted0;
  result.wall_seconds = support::seconds_since(t0);
  return result;
}

}  // namespace tcm::search
