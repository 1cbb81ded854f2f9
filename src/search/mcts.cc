#include "search/mcts.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "support/clock.h"

namespace tcm::search {
namespace {

struct Node {
  transforms::Schedule state;
  int decision_index = 0;  // next decision to make
  Node* parent = nullptr;
  std::vector<std::unique_ptr<Node>> children;
  std::vector<transforms::Schedule> untried;  // alternatives not yet expanded
  bool expanded_init = false;
  int visits = 0;
  double total_reward = 0;

  double mean() const { return visits ? total_reward / visits : 0.0; }
};

// Squash a speedup into (0, 1) for UCT rewards; monotone in the speedup.
double reward_of(double speedup) { return speedup / (1.0 + speedup); }

}  // namespace

MctsResult mcts_search(const ir::Program& p, CandidateEvaluator& model_evaluator,
                       CandidateEvaluator& execution_evaluator, const MctsOptions& options) {
  const auto t0 = support::now();
  const double accounted0 =
      model_evaluator.accounted_seconds() + execution_evaluator.accounted_seconds();
  const std::int64_t evals0 = model_evaluator.evaluations();

  const std::vector<DecisionPoint> decisions = decision_points(p, options.space);
  Rng rng(options.seed);

  auto root = std::make_unique<Node>();

  // Best model-evaluated schedules seen so far: score -> schedule (keep the
  // top_k highest scores, deduplicated by rendering).
  std::vector<std::pair<double, transforms::Schedule>> best_set;
  std::map<std::string, bool> in_best;
  auto offer_best = [&](double score, const transforms::Schedule& s) {
    const std::string key = s.to_string();
    if (in_best.count(key)) return;
    best_set.emplace_back(score, s);
    in_best[key] = true;
    std::sort(best_set.begin(), best_set.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (best_set.size() > static_cast<std::size_t>(options.top_k)) {
      in_best.erase(best_set.back().second.to_string());
      best_set.pop_back();
    }
  };

  bool stopped_early = false;
  for (int iter = 0; iter < options.iterations && !stopped_early; ++iter) {
    // --- selection -----------------------------------------------------------
    Node* node = root.get();
    while (true) {
      if (node->decision_index >= static_cast<int>(decisions.size())) break;
      if (!node->expanded_init) {
        node->untried = expand_decision(
            p, node->state, decisions[static_cast<std::size_t>(node->decision_index)],
            options.space);
        rng.shuffle(node->untried);
        node->expanded_init = true;
      }
      if (!node->untried.empty()) break;  // expandable here
      if (node->children.empty()) break;  // dead end
      Node* best_child = nullptr;
      double best_uct = -1;
      for (const auto& child : node->children) {
        const double uct =
            child->mean() + options.exploration * std::sqrt(std::log(node->visits + 1.0) /
                                                            (child->visits + 1e-9));
        if (uct > best_uct) {
          best_uct = uct;
          best_child = child.get();
        }
      }
      if (!best_child) break;
      node = best_child;
    }

    // --- expansion ------------------------------------------------------------
    if (node->decision_index < static_cast<int>(decisions.size()) && !node->untried.empty()) {
      auto child = std::make_unique<Node>();
      child->state = std::move(node->untried.back());
      node->untried.pop_back();
      child->decision_index = node->decision_index + 1;
      child->parent = node;
      node->children.push_back(std::move(child));
      node = node->children.back().get();
    }

    // --- rollout ---------------------------------------------------------------
    transforms::Schedule rollout = node->state;
    for (int d = node->decision_index; d < static_cast<int>(decisions.size()); ++d) {
      std::vector<transforms::Schedule> alts =
          expand_decision(p, rollout, decisions[static_cast<std::size_t>(d)], options.space);
      rollout = alts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alts.size()) - 1))];
    }
    const transforms::Schedule final_schedule =
        apply_parallel_vector_heuristics(p, rollout, options.space);
    const double predicted = model_evaluator.evaluate(p, {final_schedule}).front();
    offer_best(predicted, final_schedule);

    // --- backpropagation ----------------------------------------------------------
    const double reward = reward_of(predicted);
    for (Node* n = node; n != nullptr; n = n->parent) {
      ++n->visits;
      n->total_reward += reward;
    }

    if (options.on_progress) {
      SearchProgress progress;
      progress.decision_index = iter + 1;
      progress.decision_count = options.iterations;
      progress.evaluations = model_evaluator.evaluations() - evals0;
      if (!best_set.empty()) {
        progress.best_score = best_set.front().first;
        progress.best_schedule = &best_set.front().second;
      }
      if (!options.on_progress(progress)) stopped_early = true;
    }
  }

  // --- execute the retained set (the paper's correction step) -----------------
  MctsResult result;
  if (!best_set.empty()) {
    std::vector<transforms::Schedule> finals;
    finals.reserve(best_set.size());
    for (const auto& [score, s] : best_set) finals.push_back(s);
    const std::vector<double> measured = execution_evaluator.evaluate(p, finals);
    std::size_t best = 0;
    for (std::size_t i = 1; i < measured.size(); ++i)
      if (measured[i] > measured[best]) best = i;
    result.best_schedule = finals[best];
    result.best_measured_speedup = measured[best];
  }
  result.stopped_early = stopped_early;
  result.model_evaluations = model_evaluator.evaluations() - evals0;
  result.accounted_seconds = model_evaluator.accounted_seconds() +
                             execution_evaluator.accounted_seconds() - accounted0;
  result.wall_seconds = support::seconds_since(t0);
  return result;
}

}  // namespace tcm::search
