// Application of schedules to programs.
//
// A Schedule is applied in canonical order (fusions, interchanges, tilings,
// unrollings, parallelization, vectorization). Structural transformations
// rewrite the loop tree and every affected access matrix; annotation
// transformations tag loops. Each step is legality-checked:
//   - fusion: adjacent top-level nests, matching extents, and all
//     producer->consumer dependences preserved (affine distance analysis);
//   - interchange: the two levels must delimit a perfectly nested chain;
//   - tiling: consecutive perfectly nested levels, 2 <= size <= extent,
//     nothing tiled twice (non-divisible sizes are handled with exact tail
//     iteration bounds);
//   - unroll: innermost loop, 2 <= factor <= extent;
//   - parallelize: not a reduction level of any computation under the loop
//     and no loop-carried dependence;
//   - vectorize: innermost loop, power-of-two width <= extent, no carried
//     dependence.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "transforms/schedule.h"

namespace tcm::transforms {

// Step-by-step application of a schedule to a private copy of a program.
// Each step returns the reason of its legality failure, or nullopt once
// applied. Every step except unimodular() (a sequence of interchanges and a
// skew) makes all of its checks before it changes anything, so a rejected
// step leaves the program as it was. Structural steps leave the loop arena
// for finalize() to renumber and validate; annotation steps (unroll,
// parallelize, vectorize) may also follow finalize(), which lets a caller
// try annotations one at a time on an applied schedule without re-applying
// it.
class Applier {
 public:
  explicit Applier(const ir::Program& p) : prog_(p) {}

  // Applies every step of `s` in canonical order, then finalize(); returns
  // the first legality error.
  std::optional<std::string> apply(const Schedule& s);

  std::optional<std::string> fuse(const FuseSpec& s);
  std::optional<std::string> skew(const SkewSpec& s);
  std::optional<std::string> unimodular(const UnimodularSpec& s);
  std::optional<std::string> interchange(const InterchangeSpec& s);
  std::optional<std::string> tile(const TileSpec& s);
  std::optional<std::string> unroll(const UnrollSpec& s);
  std::optional<std::string> parallelize(const ParallelizeSpec& s);
  std::optional<std::string> vectorize(const VectorizeSpec& s);

  // Renumbers the loop arena after structural edits and re-validates.
  std::optional<std::string> finalize();

  const ir::Program& program() const { return prog_; }
  ir::Program take() { return std::move(prog_); }

 private:
  std::optional<std::string> check_comp(int comp_id) const;
  std::optional<std::string> check_interchange_dependences(int b_id, int la, int lb) const;
  bool perfectly_nested(const std::vector<int>& nest, int a, int b) const;
  int map_level(int comp_id, int level) const;

  ir::Program prog_;
  // comp id -> (tile level, tile dims) for nests already tiled; shared nests
  // record every computation they cover.
  std::map<int, std::pair<int, int>> tiled_;
};

struct ApplyResult {
  bool ok = false;
  std::string error;    // reason of the first legality failure when !ok
  ir::Program program;  // the transformed program when ok
};

// Applies `s` to `p`, returning the transformed program or the first
// legality error. `p` itself is never modified.
ApplyResult try_apply_schedule(const ir::Program& p, const Schedule& s);

// Throwing convenience wrapper around try_apply_schedule.
ir::Program apply_schedule(const ir::Program& p, const Schedule& s);

// True iff the schedule is legal for the program; the failure reason is
// written to `why` when provided.
bool is_legal(const ir::Program& p, const Schedule& s, std::string* why = nullptr);

}  // namespace tcm::transforms
