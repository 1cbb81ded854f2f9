#include "search/candidates.h"

#include <algorithm>

#include "transforms/apply.h"

namespace tcm::search {
namespace {

// Representative computation of a top-level nest (first one found).
int comp_under(const ir::Program& p, int root) {
  int loop_id = root;
  while (true) {
    for (const ir::BodyItem& item : p.loop(loop_id).body)
      if (item.kind == ir::BodyItem::Kind::Computation) return item.index;
    bool descended = false;
    for (const ir::BodyItem& item : p.loop(loop_id).body) {
      if (item.kind == ir::BodyItem::Kind::Loop) {
        loop_id = item.index;
        descended = true;
        break;
      }
    }
    if (!descended) return -1;
  }
}

void push_if_legal(const ir::Program& p, std::vector<transforms::Schedule>& out,
                   transforms::Schedule candidate) {
  if (transforms::try_apply_schedule(p, candidate).ok) out.push_back(std::move(candidate));
}

// All computations whose nest hangs off `root`, in textual order. A
// shared-root nest lists several; each is a distinct fusion partner because
// its subloop path (and so its depth and extents) differs.
std::vector<int> comps_under(const ir::Program& p, int root) {
  std::vector<int> comps;
  for (const ir::Computation& c : p.comps)
    if (p.nest_of(c.id).front() == root) comps.push_back(c.id);
  return comps;
}

}  // namespace

std::vector<DecisionPoint> decision_points(const ir::Program& p,
                                           const SearchSpaceOptions& options) {
  (void)options;
  std::vector<DecisionPoint> points;
  for (std::size_t r = 0; r + 1 < p.roots.size(); ++r) {
    const int c = comp_under(p, p.roots[r]);
    if (c >= 0) points.push_back({DecisionPoint::Kind::Fusion, c});
  }
  for (const ir::Computation& c : p.comps)
    points.push_back({DecisionPoint::Kind::Skew, c.id});
  for (const ir::Computation& c : p.comps)
    points.push_back({DecisionPoint::Kind::Interchange, c.id});
  for (const ir::Computation& c : p.comps)
    points.push_back({DecisionPoint::Kind::Tile, c.id});
  for (const ir::Computation& c : p.comps)
    points.push_back({DecisionPoint::Kind::Unroll, c.id});
  return points;
}

std::vector<transforms::Schedule> expand_decision(const ir::Program& p,
                                                  const transforms::Schedule& prefix,
                                                  const DecisionPoint& decision,
                                                  const SearchSpaceOptions& options) {
  std::vector<transforms::Schedule> out;
  out.push_back(prefix);  // skip alternative

  switch (decision.kind) {
    case DecisionPoint::Kind::Fusion: {
      // Fuse this computation's nest with the next adjacent nest, at every
      // possible depth. Partner computations are discovered at expansion
      // time because earlier fusions may have merged roots — and the
      // neighbour may itself be a shared-root nest holding several
      // computations, each a distinct cross-root fusion target (their
      // subloop paths differ, so the legal depths and resulting loop
      // structures differ too).
      transforms::ApplyResult state = transforms::try_apply_schedule(p, prefix);
      if (!state.ok) return out;
      const ir::Program& sp = state.program;
      // Locate the root containing the comp and its right neighbour.
      const std::vector<int> snest = sp.nest_of(decision.comp);
      const auto it = std::find(sp.roots.begin(), sp.roots.end(), snest.front());
      if (it == sp.roots.end() || it + 1 == sp.roots.end()) return out;
      std::vector<int> partners = comps_under(sp, *(it + 1));
      if (static_cast<int>(partners.size()) > options.max_fusion_partners)
        partners.resize(static_cast<std::size_t>(options.max_fusion_partners));
      const std::size_t own_depth = sp.nest_of(decision.comp).size();
      for (int partner : partners) {
        const int max_depth =
            static_cast<int>(std::min(own_depth, sp.nest_of(partner).size()));
        for (int depth = 1; depth <= max_depth; ++depth) {
          transforms::Schedule s = prefix;
          s.fusions.push_back({decision.comp, partner, depth});
          push_if_legal(p, out, std::move(s));
        }
      }
      break;
    }
    case DecisionPoint::Kind::Skew: {
      // Skew an adjacent pair, optionally followed by the wavefront
      // interchange of that pair (which the dependence check may reject
      // independently of the skew itself).
      const int depth = p.depth_of(decision.comp);
      for (int la = 0; la + 1 < depth; ++la) {
        for (std::int64_t f : options.skew_factors) {
          transforms::Schedule s = prefix;
          s.skews.push_back({decision.comp, la, f});
          push_if_legal(p, out, s);
          s.interchanges.push_back({decision.comp, la, la + 1});
          push_if_legal(p, out, std::move(s));
        }
      }
      break;
    }
    case DecisionPoint::Kind::Interchange: {
      const int depth = p.depth_of(decision.comp);
      // Closest pairs first (adjacent interchanges are the most useful),
      // capped by max_interchange_pairs.
      std::vector<std::pair<int, int>> pairs;
      for (int dist = 1; dist < depth; ++dist)
        for (int la = 0; la + dist < depth; ++la) pairs.emplace_back(la, la + dist);
      if (static_cast<int>(pairs.size()) > options.max_interchange_pairs)
        pairs.resize(static_cast<std::size_t>(options.max_interchange_pairs));
      for (const auto& [la, lb] : pairs) {
        transforms::Schedule s = prefix;
        s.interchanges.push_back({decision.comp, la, lb});
        push_if_legal(p, out, std::move(s));
      }
      break;
    }
    case DecisionPoint::Kind::Tile: {
      const std::vector<std::int64_t> extents = p.extents_of(decision.comp);
      const int depth = static_cast<int>(extents.size());
      for (int level = 0; level + 2 <= depth; ++level) {
        for (std::int64_t s0 : options.tile_sizes) {
          if (s0 > extents[static_cast<std::size_t>(level)]) continue;
          for (std::int64_t s1 : options.tile_sizes) {
            if (s1 > extents[static_cast<std::size_t>(level + 1)]) continue;
            transforms::Schedule s = prefix;
            s.tiles.push_back({decision.comp, level, {s0, s1}});
            push_if_legal(p, out, std::move(s));
            if (options.allow_3d_tiling && level + 3 <= depth) {
              for (std::int64_t s2 : options.tile_sizes) {
                if (s2 > extents[static_cast<std::size_t>(level + 2)]) continue;
                transforms::Schedule s3 = prefix;
                s3.tiles.push_back({decision.comp, level, {s0, s1, s2}});
                push_if_legal(p, out, std::move(s3));
              }
            }
          }
        }
      }
      break;
    }
    case DecisionPoint::Kind::Unroll: {
      const std::vector<std::int64_t> extents = p.extents_of(decision.comp);
      for (int f : options.unroll_factors) {
        if (f > extents.back()) continue;
        transforms::Schedule s = prefix;
        s.unrolls.push_back({decision.comp, f});
        push_if_legal(p, out, std::move(s));
      }
      break;
    }
  }
  return out;
}

transforms::Schedule apply_parallel_vector_heuristics(const ir::Program& p,
                                                      const transforms::Schedule& schedule,
                                                      const SearchSpaceOptions& options) {
  transforms::Schedule result = schedule;
  // The schedule is applied once; each heuristic step is then tried on that
  // state. A rejected parallelize/vectorize changes nothing and no legality
  // check reads the parallel or vector flags, so this matches re-applying
  // the extended schedule from scratch for every try.
  transforms::Applier state(p);
  if (state.apply(schedule)) return result;  // illegal: nothing to extend
  // Parallelize the outermost legal level of each computation (levels are
  // pre-tiling coordinates; level 0 or 1). Skip tiny extents where spawning
  // threads cannot pay off.
  for (const ir::Computation& c : p.comps) {
    const std::vector<std::int64_t> extents = p.extents_of(c.id);
    for (int level = 0; level < std::min<int>(2, static_cast<int>(extents.size())); ++level) {
      if (extents[static_cast<std::size_t>(level)] < 4) continue;
      const transforms::ParallelizeSpec spec{c.id, level};
      if (!state.parallelize(spec)) {
        result.parallels.push_back(spec);
        break;
      }
    }
  }
  // Vectorize the innermost loop when the width fits.
  for (const ir::Computation& c : p.comps) {
    if (p.extents_of(c.id).back() < options.vector_width) continue;
    const transforms::VectorizeSpec spec{c.id, options.vector_width};
    if (!state.vectorize(spec)) result.vectorizes.push_back(spec);
  }
  return result;
}

}  // namespace tcm::search
