// Tape-free fused inference engine.
//
// The training path (nn/ops.h) builds an autograd graph per op: every matmul
// or activation allocates a shared_ptr<VarNode>, a std::function backward
// closure and backward-only tensor copies. That is the right trade for
// training, but the cost model sits on the critical path of schedule search
// (tens of thousands of candidate scores per program), where all of that is
// pure overhead. This header is the inference-only counterpart:
//
//   - InferenceArena: a bump allocator of reusable Tensor buffers. A forward
//     pass allocates scratch via alloc() and the caller reset()s between
//     passes; once warm (buffer shapes have stabilized), steady-state passes
//     perform zero heap allocations, observable via heap_allocations().
//   - Fused kernels: linear (matmul + broadcast bias) with an optional fused
//     ELU, and a saturating-exponential head applied in place. Activation
//     sweeps use branchless polynomial exp/tanh/sigmoid (~2e-7 relative
//     error — libm's scalar calls would otherwise dominate the tape-free
//     pass) and the hot loops carry runtime ISA dispatch (x86-64-v3/v4
//     clones) so the portable binary runs wide on AVX machines. The result
//     is numerically within 1e-5 relative error of the autograd forward,
//     not bitwise equal; each batch row is still computed independently, so
//     predictions never depend on how requests were batched.
//   - PackedLSTMCell: [W_ih; W_hh] pre-packed into one [In+H, 4H] matrix at
//     pack time, so a step is a single matmul over the concatenated [x, h]
//     input followed by one sweep applying all four gate activations and the
//     c/h update in place.
//   - PackedMLP: borrows the Linear parameters (no copies) and chains the
//     fused linear kernels through arena buffers.
//
// Thread-safety: packed structures are immutable after pack() and safe to
// read concurrently; an InferenceArena belongs to exactly one thread at a
// time (serving uses one arena per worker).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "nn/modules.h"
#include "nn/tensor.h"

namespace tcm::nn {

class InferenceArena {
 public:
  InferenceArena() = default;
  InferenceArena(const InferenceArena&) = delete;
  InferenceArena& operator=(const InferenceArena&) = delete;

  // Hands out the next scratch buffer, reshaped to [rows, cols]. Contents
  // are unspecified (callers overwrite or fill()). The reference stays valid
  // until reset() reuses the slot — the pool is a deque, so later allocs
  // never relocate earlier buffers.
  Tensor& alloc(int rows, int cols);

  // The integer counterpart of alloc(): the next block of n ints from a
  // second pool (contents unspecified), valid until reset(). Growth counts
  // toward heap_allocations() like tensor growth does.
  std::span<int> alloc_ints(std::size_t n);

  // Makes every buffer reusable again. Invalidates the *contents* of
  // previously returned references (the memory stays alive).
  void reset() {
    cursor_ = 0;
    int_cursor_ = 0;
    ptr_scratch_.clear();
    index_scratch_.clear();
  }

  // Number of heap allocations the arena has performed: new pool slots plus
  // capacity growth of existing slots. Steady-state forward passes leave
  // this counter unchanged — the zero-allocation property the inference
  // tests assert. Readable from other threads (stats reporting).
  std::uint64_t heap_allocations() const {
    return heap_allocs_.load(std::memory_order_relaxed);
  }

  std::size_t buffers() const { return pool_.size(); }

  // Reusable non-tensor scratch for model walks (child-embedding pointers,
  // tree-order indices). Cleared by reset(); capacity persists, so these
  // also stop allocating once warm.
  std::vector<const Tensor*>& ptr_scratch() { return ptr_scratch_; }
  std::vector<int>& index_scratch() { return index_scratch_; }

 private:
  std::deque<Tensor> pool_;  // deque: references stay valid as the pool grows
  std::size_t cursor_ = 0;
  std::deque<std::vector<int>> int_pool_;
  std::size_t int_cursor_ = 0;
  std::atomic<std::uint64_t> heap_allocs_{0};
  std::vector<const Tensor*> ptr_scratch_;
  std::vector<int> index_scratch_;
};

// Byte-equality classes of the n rows of a row-major matrix of 4-byte words
// (floats or ints, `words` per row). Rows share a class exactly when their
// bytes are equal, so -0.0 and 0.0, or NaNs with different payloads, are
// different classes (float == would merge the former and split every NaN).
// Writes class_of[r] for every row (dense ids in order of first appearance)
// and reps[u], the first row of class u; returns the number of classes.
// `scratch` must hold row_classes_scratch(n) ints. Rows are bucketed by a
// hash of their words and confirmed with memcmp.
int row_classes(const void* rows, int n, int words, int* class_of, int* reps, int* scratch);
std::size_t row_classes_scratch(int n);

// out = x @ w + b with x [B, In], w [In, N], b [1, N] broadcast over rows.
// `out` must be pre-shaped to [B, N] (arena-allocated). Accumulates over the
// inner dimension in the same order as nn::matmul, then adds the bias — so
// each row's result is independent of the batch composition.
void linear_forward(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out);

// Same as linear_forward with ELU (alpha = 1) fused into the final sweep.
void linear_elu(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out);

// In place: x <- exp(limit * tanh(x / limit)), the model's bounded
// exponential head (see nn::exp_bounded).
void exp_bounded_inplace(Tensor& x, float limit);

// An LSTM cell with its two weight matrices pre-packed for inference.
struct PackedLSTMCell {
  Tensor w;  // [In + H, 4H]: rows [0, In) from w_ih, rows [In, In+H) from w_hh
  Tensor b;  // [1, 4H]
  int input_size = 0;
  int hidden_size = 0;

  static PackedLSTMCell pack(const LSTMCell& cell);

  // One step: reads x [B, In], updates h and c [B, H] in place. Gate order
  // matches LSTMCell ([i, f, g, o]). Scratch comes from `arena`.
  void step(const Tensor& x, Tensor& h, Tensor& c, InferenceArena& arena) const;
};

// An MLP whose layers borrow the module's parameter tensors (packing copies
// nothing); forward chains fused linear/ELU kernels through arena buffers.
// Dropout is an inference no-op and therefore absent.
struct PackedMLP {
  struct Layer {
    const Tensor* w = nullptr;  // [In, Out]
    const Tensor* b = nullptr;  // [1, Out]
  };
  std::vector<Layer> layers;
  bool activate_last = true;

  static PackedMLP pack(const MLP& mlp);

  // Returns the output buffer (arena-owned, valid until arena reset).
  Tensor& forward(const Tensor& x, InferenceArena& arena) const;
};

// Lazily-built, concurrently-readable cache of a model's packed inference
// plan (its PackedMLPs/PackedLSTMCells). Many inference threads may race on
// the first get(): one builds under the mutex, the rest wait, and after the
// release-store every reader takes the lock-free path. invalidate() must not
// run concurrently with get() — it is for the single-threaded "parameters
// just changed" moment (training, weight loading), matching the
// SpeedupPredictor thread-safety contract.
template <typename PlanT>
class PlanCache {
 public:
  template <typename Build>
  const PlanT& get(Build&& build) const {
    if (!ready_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!plan_) plan_ = std::make_shared<const PlanT>(build());
      ready_.store(true, std::memory_order_release);
    }
    return *plan_;
  }

  void invalidate() {
    std::lock_guard<std::mutex> lock(mu_);
    plan_.reset();
    ready_.store(false, std::memory_order_release);
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable std::shared_ptr<const PlanT> plan_;
};

}  // namespace tcm::nn
