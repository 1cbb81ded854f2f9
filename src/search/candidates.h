// The search space of Figure 3: an ordered sequence of decision points, each
// offering a small set of alternatives (apply a transformation or not, and
// with which parameters). States are schedule prefixes; both beam search and
// MCTS walk the same space.
//
// Decision order (canonical, Section 5 / Figure 3, extended with the
// LOOPer-class skewing space):
//   for each adjacent pair of top-level nests: fuse? at which depth?
//   for each computation: skew? which pair, factor, wavefront or not?
//   for each computation: interchange? which levels?
//   for each computation: tile? which level and sizes?
//   for each computation: unroll? which factor?
// Parallelization and vectorization are not part of the space: they are
// applied by the Halide-style heuristic (parallelize the outermost legal
// level, vectorize the innermost loop when it is stride-1 friendly), exactly
// as the paper does.
#pragma once

#include <vector>

#include "ir/program.h"
#include "transforms/schedule.h"

namespace tcm::search {

struct SearchSpaceOptions {
  std::vector<std::int64_t> tile_sizes = {16, 32, 64, 128};
  bool allow_3d_tiling = true;
  std::vector<int> unroll_factors = {2, 4, 8, 16};
  std::vector<std::int64_t> skew_factors = {1, 2};
  int vector_width = 8;
  // Limits the number of interchange pairs explored per computation (closest
  // pairs first) to keep the branching factor manageable.
  int max_interchange_pairs = 6;
  // Limits the fusion partners tried per cross-root fusion point. A
  // shared-root neighbour nest can hold several computations at different
  // depths; each is a distinct fusion target (textual order, capped here).
  int max_fusion_partners = 4;
};

// One decision point: alternatives extending a schedule prefix. The first
// alternative is always "do nothing" (the unmodified prefix).
struct DecisionPoint {
  enum class Kind { Fusion, Skew, Interchange, Tile, Unroll };
  Kind kind;
  int comp = -1;  // target computation (representative for fusions)
};

// The ordered decision points of a program's search space.
std::vector<DecisionPoint> decision_points(const ir::Program& p,
                                           const SearchSpaceOptions& options);

// All *legal* schedules obtained by extending `prefix` at the given decision
// point (including `prefix` itself as the "skip" alternative).
std::vector<transforms::Schedule> expand_decision(const ir::Program& p,
                                                  const transforms::Schedule& prefix,
                                                  const DecisionPoint& decision,
                                                  const SearchSpaceOptions& options);

// Halide-style final heuristics (Section 4): parallelize the outermost level
// that is legal and profitable (extent >= a small threshold), vectorize the
// innermost loop when legal and the extent allows the width. The schedule is
// applied once and each parallelize/vectorize is tried on that applied
// program (a rejected try changes nothing), so the cost is one application
// per call, not one per try. Returns the extended (still legal) schedule; an
// illegal schedule is returned unchanged.
transforms::Schedule apply_parallel_vector_heuristics(const ir::Program& p,
                                                      const transforms::Schedule& schedule,
                                                      const SearchSpaceOptions& options);

}  // namespace tcm::search
