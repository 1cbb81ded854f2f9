#include "transforms/apply.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "transforms/dependence.h"

namespace tcm::transforms {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

void collect_comps(const ir::Program& p, int loop_id, std::vector<int>& out) {
  for (const ir::BodyItem& item : p.loop(loop_id).body) {
    if (item.kind == ir::BodyItem::Kind::Loop) collect_comps(p, item.index, out);
    else out.push_back(item.index);
  }
}

// Rewrites access-matrix columns for a d-dimensional tiling at level t:
// old column t+k (k < d) becomes outer column t+k with coefficient v*s_k and
// inner column t+d+k with coefficient v; later columns shift right by d.
ir::AccessMatrix tile_columns(const ir::AccessMatrix& m, int t,
                              std::span<const std::int64_t> sizes) {
  const int d = static_cast<int>(sizes.size());
  ir::AccessMatrix out(m.rank(), m.depth() + d);
  for (int r = 0; r < m.rank(); ++r) {
    out.set(r, out.depth(), m.constant(r));
    for (int c = 0; c < m.depth(); ++c) {
      const std::int64_t v = m.at(r, c);
      if (c < t) {
        out.set(r, c, v);
      } else if (c < t + d) {
        const int k = c - t;
        out.set(r, t + k, v * sizes[static_cast<std::size_t>(k)]);
        out.set(r, t + d + k, v);
      } else {
        out.set(r, c + d, v);
      }
    }
  }
  return out;
}

}  // namespace

std::optional<std::string> Applier::check_comp(int comp_id) const {
  if (comp_id < 0 || comp_id >= static_cast<int>(prog_.comps.size()))
    return "unknown computation id " + std::to_string(comp_id);
  return std::nullopt;
}

// Checks that swapping levels (la, lb) of the nests under loop `b_id`
// preserves every producer->consumer dependence: the post-swap distance
// vector is the pre-swap one with entries la and lb exchanged (the raw
// distances and the per-level mapping are invariant under the swap), so
// the check runs *before* any mutation and needs no rollback.
std::optional<std::string> Applier::check_interchange_dependences(int b_id, int la,
                                                                  int lb) const {
  std::vector<int> comps;
  collect_comps(prog_, b_id, comps);
  if (comps.size() < 2) return std::nullopt;
  const std::vector<int> order = prog_.comps_in_order();
  std::vector<int> order_index(prog_.comps.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i)
    order_index[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (int pa : comps) {
    const ir::Computation& prod = prog_.comp(pa);
    for (int cb : comps) {
      if (pa == cb) continue;
      const ir::Computation& cons = prog_.comp(cb);
      for (const ir::BufferAccess& load : cons.rhs.loads()) {
        if (load.buffer_id != prod.store.buffer_id) continue;
        auto dvec = dependence_distance_ranges(prog_, pa, cb, load);
        if (!dvec)
          return "interchange: dependence of " + cons.name + " on " + prod.name +
                 " is not analyzable";
        if (la < static_cast<int>(dvec->size()) && lb < static_cast<int>(dvec->size()))
          std::swap((*dvec)[static_cast<std::size_t>(la)], (*dvec)[static_cast<std::size_t>(lb)]);
        const bool prod_first = order_index[static_cast<std::size_t>(pa)] <
                                order_index[static_cast<std::size_t>(cb)];
        if (!distances_lex_nonneg(*dvec, prod_first))
          return "interchange: would reverse the dependence of " + cons.name + " on " +
                 prod.name + " (lexicographically negative distance after swap)";
      }
    }
  }
  return std::nullopt;
}

// True iff levels [a, b] of `nest` form a perfectly nested chain: each loop
// in [a, b) has exactly one body item, the next loop of the nest.
bool Applier::perfectly_nested(const std::vector<int>& nest, int a, int b) const {
  for (int l = a; l < b; ++l) {
    const ir::LoopNode& ln = prog_.loop(nest[static_cast<std::size_t>(l)]);
    if (ln.body.size() != 1) return false;
    const ir::BodyItem& only = ln.body.front();
    if (only.kind != ir::BodyItem::Kind::Loop ||
        only.index != nest[static_cast<std::size_t>(l + 1)])
      return false;
  }
  return true;
}

// Maps a pre-tiling level of `comp` to the current nest index, accounting
// for an earlier tiling of the same nest.
int Applier::map_level(int comp_id, int level) const {
  auto it = tiled_.find(comp_id);
  if (it == tiled_.end()) return level;
  const auto& [t, d] = it->second;
  if (level < t + d) return level;  // outer tile loops keep their index
  return level + d;
}

std::optional<std::string> Applier::fuse(const FuseSpec& s) {
  if (auto e = check_comp(s.comp_a)) return e;
  if (auto e = check_comp(s.comp_b)) return e;
  if (s.depth < 1) return std::string("fusion depth must be >= 1");

  const std::vector<int> nest_a = prog_.nest_of(s.comp_a);
  const std::vector<int> nest_b = prog_.nest_of(s.comp_b);
  const int root_a = nest_a.front();
  const int root_b = nest_b.front();
  if (root_a == root_b) return std::string("fusion: computations already share a nest");

  // The nests must be adjacent top-level nests, a before b.
  const auto it_a = std::find(prog_.roots.begin(), prog_.roots.end(), root_a);
  const auto it_b = std::find(prog_.roots.begin(), prog_.roots.end(), root_b);
  if (it_a == prog_.roots.end() || it_b == prog_.roots.end())
    return std::string("fusion: computations must live in top-level nests");
  if (it_b != it_a + 1) return std::string("fusion: nests must be textually adjacent (a before b)");

  if (s.depth > static_cast<int>(nest_a.size()) || s.depth > static_cast<int>(nest_b.size()))
    return std::string("fusion: depth exceeds a nest's depth");

  // Matching extents on the fused levels.
  for (int l = 0; l < s.depth; ++l) {
    const auto& la = prog_.loop(nest_a[static_cast<std::size_t>(l)]);
    const auto& lb = prog_.loop(nest_b[static_cast<std::size_t>(l)]);
    if (la.iter.extent != lb.iter.extent)
      return "fusion: extent mismatch at level " + std::to_string(l);
    if (la.tail_of != -1 || lb.tail_of != -1)
      return std::string("fusion: cannot fuse tiled loops");
    if (la.skew_of != -1 || lb.skew_of != -1)
      return std::string("fusion: cannot fuse skewed loops");
  }

  // The b-side must be a pure chain above the fusion depth so that merging
  // does not reorder statements of nest b relative to each other.
  if (!perfectly_nested(nest_b, 0, s.depth - 1))
    return std::string("fusion: nest b is not perfectly nested down to the fusion depth");

  // Dependence legality.
  std::vector<int> comps_a, comps_b;
  collect_comps(prog_, root_a, comps_a);
  collect_comps(prog_, root_b, comps_b);
  if (auto err = check_fusion_dependences(prog_, comps_a, comps_b, s.depth)) return err;

  // Merge: move children of b's level-l loop into a's level-l loop.
  for (int l = 0; l < s.depth; ++l) {
    ir::LoopNode& la = prog_.loop(nest_a[static_cast<std::size_t>(l)]);
    ir::LoopNode& lb = prog_.loop(nest_b[static_cast<std::size_t>(l)]);
    la.tag_fused = true;
    if (l == s.depth - 1) {
      // Move everything.
      for (const ir::BodyItem& item : lb.body) {
        if (item.kind == ir::BodyItem::Kind::Loop) prog_.loop(item.index).parent = la.id;
        else prog_.comps[static_cast<std::size_t>(item.index)].loop_id = la.id;
        la.body.push_back(item);
      }
      lb.body.clear();
    }
    // For l < depth-1 the only child of lb is the next loop of nest_b, which
    // merges one level deeper; nothing else to move (chain requirement).
  }
  prog_.roots.erase(it_b);
  return std::nullopt;
}

std::optional<std::string> Applier::skew(const SkewSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  if (s.factor < 1 || s.factor > 16)
    return std::string("skew: factor must be in [1, 16]");
  const int la = s.level_a;
  const int lb = la + 1;
  const std::vector<int> nest = prog_.nest_of(s.comp);
  if (la < 0 || lb >= static_cast<int>(nest.size()))
    return std::string("skew: level out of range");
  for (int l = la; l <= lb; ++l) {
    const ir::LoopNode& ln = prog_.loop(nest[static_cast<std::size_t>(l)]);
    if (ln.tail_of != -1 || ln.tag_tiled)
      return std::string("skew: cannot skew tiled loops");
    if (ln.skew_of != -1) return std::string("skew: loop is already part of a skewed pair");
  }
  if (!perfectly_nested(nest, la, lb))
    return std::string("skew: levels are not perfectly nested");

  // t = j + f*i: a pure change of basis, always legal on its own. Execution
  // order is unchanged (offset mode); the dependence check bites only when
  // the pair is subsequently interchanged into wavefront order.
  ir::LoopNode& outer = prog_.loop(nest[static_cast<std::size_t>(la)]);
  ir::LoopNode& inner = prog_.loop(nest[static_cast<std::size_t>(lb)]);
  outer.skew_of = inner.id;
  outer.skew_factor = s.factor;
  outer.skew_is_sum = false;
  inner.skew_of = outer.id;
  inner.skew_factor = s.factor;
  inner.skew_is_sum = true;
  inner.iter.name = outer.iter.name + "+" + inner.iter.name;
  for (ir::LoopNode* l : {&outer, &inner}) {
    l->tag_skewed = true;
    l->tag_skew_factor = s.factor;
  }

  // Rewrite accesses: values are preserved when column lb is evaluated with
  // the skewed iterator t = j + f*i.
  std::vector<int> comps;
  collect_comps(prog_, inner.id, comps);
  for (int cid : comps) {
    ir::Computation& c = prog_.comps[static_cast<std::size_t>(cid)];
    c.store.matrix.skew(la, lb, s.factor);
    c.rhs = c.rhs.map_accesses([&](const ir::AccessMatrix& m) {
      ir::AccessMatrix out = m;
      out.skew(la, lb, s.factor);
      return out;
    });
  }
  return std::nullopt;
}

std::optional<std::string> Applier::unimodular(const UnimodularSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  int k = 0;
  if (s.coeffs.size() == 4) k = 2;
  else if (s.coeffs.size() == 9) k = 3;
  else return std::string("unimodular: coefficient matrix must be 2x2 or 3x3");
  const std::vector<int> nest = prog_.nest_of(s.comp);
  if (s.level < 0 || s.level + k > static_cast<int>(nest.size()))
    return std::string("unimodular: level out of range");
  for (int l = s.level; l < s.level + k; ++l) {
    const ir::LoopNode& ln = prog_.loop(nest[static_cast<std::size_t>(l)]);
    if (ln.tail_of != -1 || ln.tag_tiled)
      return std::string("unimodular: cannot transform tiled loops");
    if (ln.skew_of != -1) return std::string("unimodular: cannot transform skewed loops");
  }
  if (!perfectly_nested(nest, s.level, s.level + k - 1))
    return std::string("unimodular: levels are not perfectly nested");

  auto at = [&](int r, int c) { return s.coeffs[static_cast<std::size_t>(r * k + c)]; };
  std::int64_t det = 0;
  if (k == 2) {
    det = at(0, 0) * at(1, 1) - at(0, 1) * at(1, 0);
  } else {
    det = at(0, 0) * (at(1, 1) * at(2, 2) - at(1, 2) * at(2, 1)) -
          at(0, 1) * (at(1, 0) * at(2, 2) - at(1, 2) * at(2, 0)) +
          at(0, 2) * (at(1, 0) * at(2, 1) - at(1, 1) * at(2, 0));
  }
  if (det != 1 && det != -1) return std::string("unimodular: |det| must be 1");

  // Decompose U = P2 * L * P1 into the engine's primitives: P1 an arbitrary
  // permutation (applied as interchanges before skewing, so the skew-band
  // restrictions do not fire), L identity or one adjacent skew, P2 identity
  // or the wavefront swap of the skewed pair (which carries the real
  // dependence-distance check). Deterministic first match wins.
  using Mat = std::vector<std::int64_t>;  // row-major k x k
  auto mul = [&](const Mat& x, const Mat& y) {
    Mat out(static_cast<std::size_t>(k * k), 0);
    for (int r = 0; r < k; ++r)
      for (int c = 0; c < k; ++c) {
        std::int64_t v = 0;
        for (int m = 0; m < k; ++m)
          v += x[static_cast<std::size_t>(r * k + m)] * y[static_cast<std::size_t>(m * k + c)];
        out[static_cast<std::size_t>(r * k + c)] = v;
      }
    return out;
  };
  auto ident = [&] {
    Mat m(static_cast<std::size_t>(k * k), 0);
    for (int i = 0; i < k; ++i) m[static_cast<std::size_t>(i * k + i)] = 1;
    return m;
  };
  // Permutation sigma as a matrix: new level r holds old iterator sigma[r].
  auto perm_mat = [&](const std::vector<int>& sigma) {
    Mat m(static_cast<std::size_t>(k * k), 0);
    for (int r = 0; r < k; ++r) m[static_cast<std::size_t>(r * k + sigma[static_cast<std::size_t>(r)])] = 1;
    return m;
  };

  std::vector<int> sigma(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) sigma[static_cast<std::size_t>(i)] = i;
  std::vector<std::vector<int>> perms;
  do {
    perms.push_back(sigma);
  } while (std::next_permutation(sigma.begin(), sigma.end()));

  const Mat target(s.coeffs.begin(), s.coeffs.end());
  struct Plan {
    std::vector<int> p1;
    int skew_pos = -1;  // band-relative; -1: no skew
    std::int64_t factor = 0;
    bool wavefront = false;
  };
  std::optional<Plan> plan;
  for (const auto& p1 : perms) {
    if (plan) break;
    const Mat m1 = perm_mat(p1);
    // L = identity.
    if (mul(ident(), m1) == target) {
      plan = Plan{p1, -1, 0, false};
      break;
    }
    for (int pos = 0; pos + 1 < k && !plan; ++pos) {
      for (std::int64_t f = 1; f <= 8 && !plan; ++f) {
        Mat l = ident();
        l[static_cast<std::size_t>((pos + 1) * k + pos)] = f;  // t = x_{pos+1} + f*x_pos
        const Mat lm1 = mul(l, m1);
        if (lm1 == target) {
          plan = Plan{p1, pos, f, false};
          break;
        }
        std::vector<int> swap_sigma(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) swap_sigma[static_cast<std::size_t>(i)] = i;
        std::swap(swap_sigma[static_cast<std::size_t>(pos)],
                  swap_sigma[static_cast<std::size_t>(pos + 1)]);
        if (mul(perm_mat(swap_sigma), lm1) == target)
          plan = Plan{p1, pos, f, true};
      }
    }
  }
  if (!plan)
    return std::string(
        "unimodular: matrix is not decomposable into permutation + adjacent skew "
        "(+ wavefront) primitives");

  // Apply P1 as interchanges: selection-sort the band into sigma order.
  std::vector<int> slot(static_cast<std::size_t>(k));  // slot[r] = original level in slot r
  for (int i = 0; i < k; ++i) slot[static_cast<std::size_t>(i)] = i;
  for (int r = 0; r < k; ++r) {
    const int want = plan->p1[static_cast<std::size_t>(r)];
    const auto it = std::find(slot.begin() + r, slot.end(), want);
    const int j = static_cast<int>(it - slot.begin());
    if (j == r) continue;
    if (auto e = interchange({s.comp, s.level + r, s.level + j}))
      return "unimodular: " + *e;
    std::swap(slot[static_cast<std::size_t>(r)], slot[static_cast<std::size_t>(j)]);
  }
  if (plan->skew_pos >= 0) {
    if (auto e = skew({s.comp, s.level + plan->skew_pos, plan->factor}))
      return "unimodular: " + *e;
    if (plan->wavefront) {
      if (auto e = interchange({s.comp, s.level + plan->skew_pos, s.level + plan->skew_pos + 1}))
        return "unimodular: " + *e;
    }
  }
  const std::vector<int> new_nest = prog_.nest_of(s.comp);
  for (int l = s.level; l < s.level + k; ++l)
    prog_.loop(new_nest[static_cast<std::size_t>(l)]).tag_unimodular = true;
  return std::nullopt;
}

std::optional<std::string> Applier::interchange(const InterchangeSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  int la = s.level_a, lb = s.level_b;
  if (la > lb) std::swap(la, lb);
  if (la == lb) return std::string("interchange: identical levels");
  const std::vector<int> nest = prog_.nest_of(s.comp);
  if (la < 0 || lb >= static_cast<int>(nest.size()))
    return std::string("interchange: level out of range");
  bool band_has_skew = false;
  for (int l = la; l <= lb; ++l) {
    const ir::LoopNode& ln = prog_.loop(nest[static_cast<std::size_t>(l)]);
    if (ln.tail_of != -1 || ln.tag_tiled)
      return std::string("interchange: cannot interchange tiled loops");
    if (ln.skew_of != -1) band_has_skew = true;
  }
  // A band containing skewed loops may only be swapped when (la, lb) is
  // exactly the skewed pair: that is the wavefront toggle. Any other swap
  // would tear the pair apart.
  if (band_has_skew &&
      (lb != la + 1 ||
       prog_.loop(nest[static_cast<std::size_t>(la)]).skew_of !=
           nest[static_cast<std::size_t>(lb)]))
    return std::string("interchange: cannot interchange across a skewed pair");
  if (!perfectly_nested(nest, la, lb))
    return std::string("interchange: levels do not delimit a perfectly nested chain");

  ir::LoopNode& a = prog_.loop(nest[static_cast<std::size_t>(la)]);
  ir::LoopNode& b = prog_.loop(nest[static_cast<std::size_t>(lb)]);

  // Dependence legality, checked before any mutation (see helper comment).
  if (auto e = check_interchange_dependences(b.id, la, lb)) return e;

  std::swap(a.iter, b.iter);
  a.tag_interchanged = true;
  b.tag_interchanged = true;

  if (band_has_skew) {
    // The skew bookkeeping follows the iterator: partner ids already point at
    // each other's nodes, but the sum flag and the mode-dependent extents
    // must be fixed up for the new positions.
    std::swap(a.skew_is_sum, b.skew_is_sum);
    std::swap(a.tag_skewed, b.tag_skewed);
    std::swap(a.tag_skew_factor, b.tag_skew_factor);
    std::swap(a.tag_unimodular, b.tag_unimodular);
    const std::int64_t f = a.skew_factor;
    if (a.skew_is_sum) {
      // offset -> wave: t moves outside; it now iterates plainly over
      // E_t = M + f*(N-1) while the inner partner is windowed.
      a.iter.extent = a.iter.extent + f * (b.iter.extent - 1);
    } else {
      // wave -> offset: t moves back inside with its original extent M.
      b.iter.extent = b.iter.extent - f * (a.iter.extent - 1);
    }
  }

  // Remap every access of every computation under the deeper loop.
  std::vector<int> comps;
  collect_comps(prog_, b.id, comps);
  for (int cid : comps) {
    ir::Computation& c = prog_.comps[static_cast<std::size_t>(cid)];
    c.store.matrix.interchange(la, lb);
    c.rhs = c.rhs.map_accesses([&](const ir::AccessMatrix& m) {
      ir::AccessMatrix out = m;
      out.interchange(la, lb);
      return out;
    });
  }
  return std::nullopt;
}

std::optional<std::string> Applier::tile(const TileSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  const int d = static_cast<int>(s.sizes.size());
  if (d < 2 || d > 3) return std::string("tile: only 2-D and 3-D tiling supported");
  const std::vector<int> nest = prog_.nest_of(s.comp);
  if (s.level < 0 || s.level + d > static_cast<int>(nest.size()))
    return std::string("tile: level out of range");
  for (int k = 0; k < d; ++k) {
    const ir::LoopNode& ln = prog_.loop(nest[static_cast<std::size_t>(s.level + k)]);
    if (ln.tail_of != -1 || ln.tag_tiled) return std::string("tile: loop already tiled");
    if (ln.skew_of != -1) return std::string("tile: cannot tile skewed loops");
    const std::int64_t size = s.sizes[static_cast<std::size_t>(k)];
    if (size < 2) return std::string("tile: size must be >= 2");
    if (size > ln.iter.extent)
      return "tile: size " + std::to_string(size) + " exceeds extent " +
             std::to_string(ln.iter.extent);
  }
  if (!perfectly_nested(nest, s.level, s.level + d - 1))
    return std::string("tile: levels are not perfectly nested");

  // Record which computations live under the tiled band (they all live under
  // the deepest tiled loop by the chain property).
  const int deepest = nest[static_cast<std::size_t>(s.level + d - 1)];
  std::vector<int> comps;
  collect_comps(prog_, deepest, comps);
  for (int cid : comps) {
    if (tiled_.count(cid)) return std::string("tile: computation nest already tiled");
  }

  // Save the original body of the deepest tiled loop: it becomes the body of
  // the innermost new tile loop.
  ir::LoopNode& deepest_loop = prog_.loop(deepest);
  std::vector<ir::BodyItem> inner_body = std::move(deepest_loop.body);
  deepest_loop.body.clear();

  // Convert the existing loops into the outer tile loops.
  std::vector<std::int64_t> orig_extents(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    ir::LoopNode& outer = prog_.loop(nest[static_cast<std::size_t>(s.level + k)]);
    orig_extents[static_cast<std::size_t>(k)] = outer.iter.extent;
    outer.iter.extent = ceil_div(outer.iter.extent, s.sizes[static_cast<std::size_t>(k)]);
    outer.iter.name += "_o";
    outer.tag_tiled = true;
    outer.tag_tile_factor = s.sizes[static_cast<std::size_t>(k)];
  }

  // Create the inner tile loops, chained under the deepest outer loop.
  int parent = deepest;
  for (int k = 0; k < d; ++k) {
    ir::LoopNode inner;
    const ir::LoopNode& outer = prog_.loop(nest[static_cast<std::size_t>(s.level + k)]);
    inner.iter.name = outer.iter.name.substr(0, outer.iter.name.size() - 2) + "_i";
    inner.iter.extent = s.sizes[static_cast<std::size_t>(k)];
    inner.parent = parent;
    inner.tail_of = outer.id;
    inner.orig_extent = orig_extents[static_cast<std::size_t>(k)];
    const int inner_id = prog_.add_loop(std::move(inner));
    prog_.loop(parent).body.push_back(ir::BodyItem::loop(inner_id));
    parent = inner_id;
  }

  // Attach the original body under the innermost tile loop.
  ir::LoopNode& innermost = prog_.loop(parent);
  innermost.body = std::move(inner_body);
  for (const ir::BodyItem& item : innermost.body) {
    if (item.kind == ir::BodyItem::Kind::Loop) prog_.loop(item.index).parent = parent;
    else prog_.comps[static_cast<std::size_t>(item.index)].loop_id = parent;
  }

  // Rewrite all access matrices of computations under the band.
  for (int cid : comps) {
    ir::Computation& c = prog_.comps[static_cast<std::size_t>(cid)];
    c.store.matrix = tile_columns(c.store.matrix, s.level, s.sizes);
    c.rhs = c.rhs.map_accesses(
        [&](const ir::AccessMatrix& m) { return tile_columns(m, s.level, s.sizes); });
    tiled_[cid] = {s.level, d};
  }
  return std::nullopt;
}

std::optional<std::string> Applier::unroll(const UnrollSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  if (s.factor < 2) return std::string("unroll: factor must be >= 2");
  const std::vector<int> nest = prog_.nest_of(s.comp);
  ir::LoopNode& inner = prog_.loop(nest.back());
  if (inner.unroll != 0) return std::string("unroll: loop already unrolled");
  if (s.factor > inner.iter.extent) return std::string("unroll: factor exceeds extent");
  inner.unroll = s.factor;
  return std::nullopt;
}

std::optional<std::string> Applier::parallelize(const ParallelizeSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  const std::vector<int> nest = prog_.nest_of(s.comp);
  const int level = map_level(s.comp, s.level);
  if (level < 0 || level >= static_cast<int>(nest.size()))
    return std::string("parallelize: level out of range");
  ir::LoopNode& loop = prog_.loop(nest[static_cast<std::size_t>(level)]);
  if (loop.parallel) return std::string("parallelize: loop already parallel");

  // The level must not be a reduction level of any computation under it.
  std::vector<int> comps;
  collect_comps(prog_, loop.id, comps);
  for (int cid : comps) {
    const std::vector<int> cnest = prog_.nest_of(cid);
    const auto pos = std::find(cnest.begin(), cnest.end(), loop.id);
    const int clevel = static_cast<int>(pos - cnest.begin());
    if (prog_.comp(cid).store.matrix.invariant_to(clevel))
      return "parallelize: level is a reduction level of " + prog_.comp(cid).name;
  }
  if (level_carries_dependence(prog_, loop.id))
    return std::string("parallelize: loop carries a dependence");
  loop.parallel = true;
  return std::nullopt;
}

std::optional<std::string> Applier::vectorize(const VectorizeSpec& s) {
  if (auto e = check_comp(s.comp)) return e;
  if (!is_power_of_two(s.width) || s.width < 2 || s.width > 16)
    return std::string("vectorize: width must be a power of two in [2,16]");
  const std::vector<int> nest = prog_.nest_of(s.comp);
  ir::LoopNode& inner = prog_.loop(nest.back());
  if (inner.vector_width != 0) return std::string("vectorize: loop already vectorized");
  if (s.width > inner.iter.extent) return std::string("vectorize: width exceeds extent");
  if (level_carries_dependence(prog_, inner.id))
    return std::string("vectorize: loop carries a dependence");
  inner.vector_width = s.width;
  return std::nullopt;
}

std::optional<std::string> Applier::finalize() {
  // Renumber loops: DFS order from roots, dropping unreachable (fused-away)
  // nodes.
  std::vector<int> old_to_new(prog_.loops.size(), -1);
  std::vector<ir::LoopNode> new_loops;
  std::function<void(int)> walk = [&](int loop_id) {
    old_to_new[static_cast<std::size_t>(loop_id)] = static_cast<int>(new_loops.size());
    new_loops.push_back(prog_.loop(loop_id));
    for (const ir::BodyItem& item : prog_.loop(loop_id).body)
      if (item.kind == ir::BodyItem::Kind::Loop) walk(item.index);
  };
  for (int r : prog_.roots) walk(r);

  for (ir::LoopNode& l : new_loops) {
    l.id = old_to_new[static_cast<std::size_t>(l.id)];
    if (l.parent != -1) l.parent = old_to_new[static_cast<std::size_t>(l.parent)];
    if (l.tail_of != -1) l.tail_of = old_to_new[static_cast<std::size_t>(l.tail_of)];
    if (l.skew_of != -1) l.skew_of = old_to_new[static_cast<std::size_t>(l.skew_of)];
    for (ir::BodyItem& item : l.body)
      if (item.kind == ir::BodyItem::Kind::Loop)
        item.index = old_to_new[static_cast<std::size_t>(item.index)];
  }
  for (int& r : prog_.roots) r = old_to_new[static_cast<std::size_t>(r)];
  for (ir::Computation& c : prog_.comps)
    c.loop_id = old_to_new[static_cast<std::size_t>(c.loop_id)];
  prog_.loops = std::move(new_loops);

  if (auto err = prog_.validate())
    return "internal error: transformed program invalid: " + *err;
  return std::nullopt;
}

std::optional<std::string> Applier::apply(const Schedule& s) {
  for (const auto& f : s.fusions)
    if (auto e = fuse(f)) return e;
  for (const auto& sk : s.skews)
    if (auto e = skew(sk)) return e;
  for (const auto& u : s.unimodulars)
    if (auto e = unimodular(u)) return e;
  for (const auto& i : s.interchanges)
    if (auto e = interchange(i)) return e;
  for (const auto& t : s.tiles)
    if (auto e = tile(t)) return e;
  for (const auto& u : s.unrolls)
    if (auto e = unroll(u)) return e;
  for (const auto& pr : s.parallels)
    if (auto e = parallelize(pr)) return e;
  for (const auto& v : s.vectorizes)
    if (auto e = vectorize(v)) return e;
  return finalize();
}

ApplyResult try_apply_schedule(const ir::Program& p, const Schedule& s) {
  ApplyResult result;
  Applier applier(p);
  if (auto err = applier.apply(s)) {
    result.error = std::move(*err);
    return result;
  }
  result.ok = true;
  result.program = applier.take();
  return result;
}

ir::Program apply_schedule(const ir::Program& p, const Schedule& s) {
  ApplyResult r = try_apply_schedule(p, s);
  if (!r.ok) throw std::invalid_argument("apply_schedule: " + r.error);
  return std::move(r.program);
}

bool is_legal(const ir::Program& p, const Schedule& s, std::string* why) {
  ApplyResult r = try_apply_schedule(p, s);
  if (!r.ok && why) *why = r.error;
  return r.ok;
}

}  // namespace tcm::transforms
