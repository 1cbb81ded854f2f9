#include "nn/inference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace tcm::nn {
namespace {

// ---------------------------------------------------------------------------
// SIMD dispatch
//
// The library is built portable (plain -O3, x86-64 baseline), but the fused
// inference kernels below are the serving hot path, so they are additionally
// compiled for the x86-64-v3 (AVX2+FMA) and x86-64-v4 (AVX-512) feature
// levels with runtime ifunc dispatch where the toolchain supports it. The
// binary still runs on baseline machines; on wide cores the kernels run
// wide. Training kernels (nn/tensor.cc) stay baseline on purpose — this is
// an inference-only engine. TCM_NATIVE builds make the whole tree native
// instead.
// ---------------------------------------------------------------------------
// ifunc resolvers run before sanitizer runtimes initialize and crash under
// TSan/ASan, so dispatch is compiled out in sanitizer builds (the macros
// below) and under -DTCM_SANITIZE (TCM_NO_IFUNC, set by CMake).
#if defined(__x86_64__) && defined(__has_attribute) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__) && !defined(TCM_NO_IFUNC)
// GCC 11 is the first release that understands the x86-64-v3/v4 level names.
#if __has_attribute(target_clones) && defined(__GNUC__) && __GNUC__ >= 11
#define TCM_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
#endif
#ifndef TCM_TARGET_CLONES
#define TCM_TARGET_CLONES
#endif

// ---------------------------------------------------------------------------
// Branchless polynomial transcendentals
//
// std::exp/std::tanh are scalar libm calls; a gate sweep over a batch makes
// tens of thousands of them and they dominate the forward pass once the
// tape is gone. These approximations are plain float arithmetic (min/max,
// FMA-able polynomial, exponent bit-stuffing), so the compiler vectorizes
// the surrounding loops. Relative error ~2e-7 (degree-5 minimax on the
// range-reduced argument, Cephes coefficients) — two orders below the 1e-5
// parity contract of infer_batch.
// ---------------------------------------------------------------------------

inline float fast_exp(float x) {
  // Clamp: exp(-87) underflows to ~6e-39, exp(88) is near FLT_MAX.
  x = std::min(88.0f, std::max(-87.0f, x));
  // Round k = nearbyint(x * log2(e)) via the 1.5*2^23 trick (branchless,
  // vectorizes; exact for |x*log2e| < 2^22, which the clamp guarantees).
  const float t = x * 1.44269504088896341f + 12582912.0f;
  const float k = t - 12582912.0f;
  // r = x - k*ln2 in two parts for accuracy.
  const float r = (x - k * 0.693145751953125f) - k * 1.42860677e-6f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.0f;
  // Multiply by 2^k by building the float directly.
  const std::int32_t ki = static_cast<std::int32_t>(k);
  const float scale = std::bit_cast<float>((ki + 127) << 23);
  return p * scale;
}

inline float fast_sigmoid(float x) { return 1.0f / (1.0f + fast_exp(-x)); }

inline float fast_tanh(float x) {
  // tanh(x) = 1 - 2/(exp(2x) + 1); the fast_exp clamp bounds the argument.
  return 1.0f - 2.0f / (fast_exp(2.0f * x) + 1.0f);
}

// ---------------------------------------------------------------------------
// Fused kernel cores (ISA-dispatched)
// ---------------------------------------------------------------------------

// out += x @ w for x [m,k], w [k,n], out [m,n], as a 4x16 register-tiled
// micro-kernel: a 4-row x 16-column accumulator tile lives in vector
// registers across the whole k loop (per k step: one 16-wide w load, four x
// broadcasts, four FMAs — no accumulator traffic through memory). Per
// output element the accumulation order over k is the plain i-k-j order in
// every code path, so results are independent of m (batch-composition
// invariance, relied on by the serving tests). The layer widths used by the
// model (64..256, multiples of 16) take the tiled path exactly.
inline constexpr int kTileCols = 16;

TCM_TARGET_CLONES
void accumulate_matmul(const float* __restrict px, const float* __restrict pw,
                       float* __restrict po, int m, int k, int n) {
  const int n_tiled = n - n % kTileCols;
  int i0 = 0;
  for (; i0 + 4 <= m; i0 += 4) {
    const std::size_t r = static_cast<std::size_t>(i0);
    const float* __restrict x0 = px + r * k;
    const float* __restrict x1 = x0 + k;
    const float* __restrict x2 = x1 + k;
    const float* __restrict x3 = x2 + k;
    float* __restrict o0 = po + r * n;
    float* __restrict o1 = o0 + n;
    float* __restrict o2 = o1 + n;
    float* __restrict o3 = o2 + n;
    for (int j0 = 0; j0 < n_tiled; j0 += kTileCols) {
      float acc0[kTileCols] = {}, acc1[kTileCols] = {}, acc2[kTileCols] = {},
            acc3[kTileCols] = {};
      const float* __restrict wcol = pw + j0;
      for (int kk = 0; kk < k; ++kk) {
        const float* __restrict wrow = wcol + static_cast<std::size_t>(kk) * n;
        const float a0 = x0[kk], a1 = x1[kk], a2 = x2[kk], a3 = x3[kk];
        for (int t = 0; t < kTileCols; ++t) {
          const float wv = wrow[t];
          acc0[t] += a0 * wv;
          acc1[t] += a1 * wv;
          acc2[t] += a2 * wv;
          acc3[t] += a3 * wv;
        }
      }
      for (int t = 0; t < kTileCols; ++t) {
        o0[j0 + t] += acc0[t];
        o1[j0 + t] += acc1[t];
        o2[j0 + t] += acc2[t];
        o3[j0 + t] += acc3[t];
      }
    }
    // Column remainder of the 4-row block.
    if (n_tiled < n) {
      for (int kk = 0; kk < k; ++kk) {
        const float* __restrict wrow = pw + static_cast<std::size_t>(kk) * n;
        const float a0 = x0[kk], a1 = x1[kk], a2 = x2[kk], a3 = x3[kk];
        for (int j = n_tiled; j < n; ++j) {
          const float wv = wrow[j];
          o0[j] += a0 * wv;
          o1[j] += a1 * wv;
          o2[j] += a2 * wv;
          o3[j] += a3 * wv;
        }
      }
    }
  }
  // Row remainder.
  for (int i = i0; i < m; ++i) {
    float* __restrict orow = po + static_cast<std::size_t>(i) * n;
    const float* __restrict xrow = px + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float xv = xrow[kk];
      const float* __restrict wrow = pw + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) orow[j] += xv * wrow[j];
    }
  }
}

TCM_TARGET_CLONES
void bias_sweep(float* __restrict po, const float* __restrict pb, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* __restrict orow = po + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) orow[j] += pb[j];
  }
}

TCM_TARGET_CLONES
void bias_elu_sweep(float* __restrict po, const float* __restrict pb, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* __restrict orow = po + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float v = orow[j] + pb[j];
      orow[j] = v > 0.0f ? v : fast_exp(v) - 1.0f;
    }
  }
}

// All four gate activations plus the c/h update, one sweep, in place.
// Gate order matches LSTMCell: [i, f, g, o] slabs of width hs.
TCM_TARGET_CLONES
void lstm_gate_sweep(const float* __restrict pg, float* __restrict ph, float* __restrict pc,
                     int batch, int hs) {
  for (int r = 0; r < batch; ++r) {
    const float* __restrict g = pg + static_cast<std::size_t>(r) * 4 * hs;
    float* __restrict hr = ph + static_cast<std::size_t>(r) * hs;
    float* __restrict cr = pc + static_cast<std::size_t>(r) * hs;
    for (int j = 0; j < hs; ++j) {
      const float gi = fast_sigmoid(g[j]);
      const float gf = fast_sigmoid(g[hs + j]);
      const float gg = fast_tanh(g[2 * hs + j]);
      const float go = fast_sigmoid(g[3 * hs + j]);
      const float cv = gf * cr[j] + gi * gg;
      cr[j] = cv;
      hr[j] = go * fast_tanh(cv);
    }
  }
}

TCM_TARGET_CLONES
void exp_bounded_sweep(float* __restrict p, std::size_t n, float limit) {
  const float inv_limit = 1.0f / limit;
  for (std::size_t i = 0; i < n; ++i)
    p[i] = fast_exp(limit * fast_tanh(p[i] * inv_limit));
}

void check_linear_shapes(const Tensor& x, const Tensor& w, const Tensor& b, const Tensor& out,
                         const char* op) {
  if (x.cols() != w.rows() || b.rows() != 1 || b.cols() != w.cols() || out.rows() != x.rows() ||
      out.cols() != w.cols())
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + x.shape_string() + " @ " +
                                w.shape_string() + " + " + b.shape_string() + " -> " +
                                out.shape_string());
}

}  // namespace

Tensor& InferenceArena::alloc(int rows, int cols) {
  if (cursor_ == pool_.size()) {
    pool_.emplace_back(rows, cols);
    heap_allocs_.fetch_add(1, std::memory_order_relaxed);
    ++cursor_;
    return pool_.back();
  }
  Tensor& t = pool_[cursor_++];
  const std::size_t need = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (need > t.capacity()) heap_allocs_.fetch_add(1, std::memory_order_relaxed);
  t.resize(rows, cols);
  return t;
}

std::span<int> InferenceArena::alloc_ints(std::size_t n) {
  if (int_cursor_ == int_pool_.size()) {
    int_pool_.emplace_back(n);
    heap_allocs_.fetch_add(1, std::memory_order_relaxed);
    return int_pool_[int_cursor_++];
  }
  std::vector<int>& block = int_pool_[int_cursor_++];
  if (n > block.capacity()) heap_allocs_.fetch_add(1, std::memory_order_relaxed);
  block.resize(n);
  return block;
}

namespace {

// Open-addressing table size for n keys: a power of two at least 2n.
std::size_t class_table_size(int n) {
  return std::bit_ceil(2 * static_cast<std::size_t>(std::max(n, 1)));
}

// Hash of one row's 32-bit words: four interleaved FNV-1a-style lanes (so
// long rows are not one serial multiply chain), folded and finalized with
// the murmur3 mixer so the low bits index the table well.
std::uint32_t hash_row(const unsigned char* row, int words) {
  std::uint64_t lane[4] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL, 0x9e3779b97f4a7c15ULL,
                           0xc2b2ae3d27d4eb4fULL};
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  int i = 0;
  for (; i + 4 <= words; i += 4)
    for (int l = 0; l < 4; ++l) {
      std::uint32_t w;
      std::memcpy(&w, row + 4 * static_cast<std::size_t>(i + l), 4);
      lane[l] = (lane[l] ^ w) * kPrime;
    }
  for (; i < words; ++i) {
    std::uint32_t w;
    std::memcpy(&w, row + 4 * static_cast<std::size_t>(i), 4);
    lane[0] = (lane[0] ^ w) * kPrime;
  }
  std::uint64_t h = lane[0] ^ (lane[1] * 31) ^ (lane[2] * 961) ^ (lane[3] * 29791);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

std::size_t row_classes_scratch(int n) { return 2 * class_table_size(n); }

int row_classes(const void* rows, int n, int words, int* class_of, int* reps, int* scratch) {
  const std::size_t size = class_table_size(n);
  const std::size_t mask = size - 1;
  int* slot_class = scratch;        // class in the slot, -1 when empty
  int* slot_hash = scratch + size;  // that class's row hash
  std::fill(slot_class, slot_class + size, -1);
  const auto* bytes = static_cast<const unsigned char*>(rows);
  const std::size_t row_bytes = 4 * static_cast<std::size_t>(words);
  int classes = 0;
  for (int r = 0; r < n; ++r) {
    const unsigned char* row = bytes + static_cast<std::size_t>(r) * row_bytes;
    const auto h = static_cast<int>(hash_row(row, words));
    for (std::size_t s = static_cast<std::uint32_t>(h) & mask;; s = (s + 1) & mask) {
      const int u = slot_class[s];
      if (u < 0) {
        slot_class[s] = classes;
        slot_hash[s] = h;
        reps[classes] = r;
        class_of[r] = classes++;
        break;
      }
      const unsigned char* rep = bytes + static_cast<std::size_t>(reps[u]) * row_bytes;
      if (slot_hash[s] == h && (row_bytes == 0 || std::memcmp(rep, row, row_bytes) == 0)) {
        class_of[r] = u;
        break;
      }
    }
  }
  return classes;
}

void linear_forward(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out) {
  check_linear_shapes(x, w, b, out, "linear_forward");
  out.fill(0.0f);
  accumulate_matmul(x.data(), w.data(), out.data(), x.rows(), x.cols(), w.cols());
  bias_sweep(out.data(), b.data(), out.rows(), out.cols());
}

void linear_elu(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out) {
  check_linear_shapes(x, w, b, out, "linear_elu");
  out.fill(0.0f);
  accumulate_matmul(x.data(), w.data(), out.data(), x.rows(), x.cols(), w.cols());
  bias_elu_sweep(out.data(), b.data(), out.rows(), out.cols());
}

void exp_bounded_inplace(Tensor& x, float limit) {
  exp_bounded_sweep(x.data(), x.size(), limit);
}

PackedLSTMCell PackedLSTMCell::pack(const LSTMCell& cell) {
  PackedLSTMCell packed;
  packed.input_size = cell.input_size();
  packed.hidden_size = cell.hidden_size();
  const Tensor& w_ih = cell.weight_ih();  // [In, 4H]
  const Tensor& w_hh = cell.weight_hh();  // [H, 4H]
  const int in = packed.input_size, h = packed.hidden_size, gates = 4 * packed.hidden_size;
  packed.w = Tensor(in + h, gates);
  for (int r = 0; r < in; ++r)
    for (int c = 0; c < gates; ++c) packed.w.at(r, c) = w_ih.at(r, c);
  for (int r = 0; r < h; ++r)
    for (int c = 0; c < gates; ++c) packed.w.at(in + r, c) = w_hh.at(r, c);
  packed.b = cell.bias();
  return packed;
}

void PackedLSTMCell::step(const Tensor& x, Tensor& h, Tensor& c, InferenceArena& arena) const {
  const int batch = x.rows();
  if (x.cols() != input_size || h.rows() != batch || h.cols() != hidden_size ||
      c.rows() != batch || c.cols() != hidden_size)
    throw std::invalid_argument("PackedLSTMCell::step: shape mismatch");

  // One matmul over the concatenated [x, h] input against the packed weight.
  Tensor& xh = arena.alloc(batch, input_size + hidden_size);
  for (int r = 0; r < batch; ++r) {
    float* __restrict dst = xh.data() + static_cast<std::size_t>(r) * (input_size + hidden_size);
    const float* __restrict xr = x.data() + static_cast<std::size_t>(r) * input_size;
    const float* __restrict hr = h.data() + static_cast<std::size_t>(r) * hidden_size;
    std::copy(xr, xr + input_size, dst);
    std::copy(hr, hr + hidden_size, dst + input_size);
  }
  Tensor& gates = arena.alloc(batch, 4 * hidden_size);
  linear_forward(xh, w, b, gates);
  lstm_gate_sweep(gates.data(), h.data(), c.data(), batch, hidden_size);
}

PackedMLP PackedMLP::pack(const MLP& mlp) {
  PackedMLP packed;
  packed.activate_last = mlp.activates_last();
  packed.layers.reserve(mlp.layers().size());
  for (const auto& layer : mlp.layers())
    packed.layers.push_back(Layer{&layer->weight(), &layer->bias()});
  return packed;
}

Tensor& PackedMLP::forward(const Tensor& x, InferenceArena& arena) const {
  if (layers.empty()) throw std::logic_error("PackedMLP::forward: no layers");
  const Tensor* h = &x;
  Tensor* out = nullptr;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Layer& layer = layers[i];
    out = &arena.alloc(h->rows(), layer.w->cols());
    const bool last = (i + 1 == layers.size());
    if (!last || activate_last) {
      linear_elu(*h, *layer.w, *layer.b, *out);
    } else {
      linear_forward(*h, *layer.w, *layer.b, *out);
    }
    h = out;
  }
  return *out;
}

}  // namespace tcm::nn
