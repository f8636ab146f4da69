// High-performance tiled GEMM path.
//
// The reference kernel in gemm.h is a cache-blocked triple loop; it is
// the semantic authority (strong zeros, see gemm.h) but leaves most of
// the machine idle. This file adds the fast path every production GEMM
// call takes:
//
//   * B is packed into NR-wide column panels (contiguous, unit-stride
//     streams for the micro-kernel) and A into MR-tall row strips;
//   * an MR x NR (6x16) register-tiled micro-kernel accumulates C in
//     registers, with scalar remainder edges for partial tiles;
//   * row blocks of C are distributed over workers with parallel_for.
//
// Determinism: every C element is accumulated in a fixed k-order that
// does not depend on the worker count or chunk boundaries, so results
// are BITWISE identical for any set_num_threads() value (pinned by
// tests/determinism_test.cpp).
//
// Strong-zero contract: the micro-kernel is plain IEEE arithmetic (no
// zero-skip), which would let NaN/Inf in B leak past pruned/masked
// exact-zero weights in A. The packing pass therefore scans B; if any
// element is non-finite the whole call falls back to the strong-zero
// reference kernel. Finite inputs (all benchmarks, all training) take
// the fast path; masked models with poisoned activations keep the
// reference semantics pinned by tests/gemm_test.cpp.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "tensor/gemm_tune.h"
#include "tensor/scratch.h"

namespace capr {

/// Tiled kernels over contiguous row-major buffers. `scratch` (optional)
/// makes the packing buffers reusable across calls; pass one per thread.
/// All three preserve the strong-zero contract by routing calls whose B
/// operand contains non-finite values through the reference kernel.
///
/// c[M,N] (+)= a[M,K] * b[K,N]
void gemm_tiled(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                bool accumulate = false, GemmScratch* scratch = nullptr);
/// c[M,N] (+)= a[M,K] * b[N,K]^T
void gemm_tiled_nt(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                   bool accumulate = false, GemmScratch* scratch = nullptr);
/// c[M,N] (+)= a[K,M]^T * b[K,N]
void gemm_tiled_tn(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                   bool accumulate = false, GemmScratch* scratch = nullptr);

// ---------------------------------------------------------------------------
// Ahead-of-time packed operands for compiled execution plans (src/compile).
//
// The per-call kernels above re-pack both operands on every invocation.
// A compiled plan knows its operand shapes and weight values at build
// time, so it packs once and replays: conv weights become a PackedA
// (every (row-block, k-block) strip precomputed), linear weights become
// a PackedB (NR-wide panels of the transposed operand), and the im2col
// matrix is written directly in panel layout (im2col_packed) so the B
// pack pass disappears from the hot loop entirely.
//
// Bitwise contract: the packed kernels feed the exact same micro-kernel
// with the exact same strip/panel contents and k-ascending block order
// as gemm_tiled/gemm_tiled_nt, so their outputs are bitwise identical
// to the per-call kernels (pinned by tests/compile_test.cpp). The
// optional epilogue applies per C tile immediately after the final
// k-block: plain float adds and compares in the same element order the
// interpreted bias/activation passes use, so fusing it is exact too.
// ---------------------------------------------------------------------------

/// Panel width of the packed-B layout (equals the micro-kernel NR).
/// Exposed so im2col can emit panels directly and plans can size them.
inline constexpr int64_t kPanelWidth = 16;

/// Returns the number of floats a packed-B buffer needs for a [K, N]
/// logical operand: ceil(N / kPanelWidth) panels of K*kPanelWidth each.
inline int64_t packed_b_floats(int64_t K, int64_t N) {
  return (N + kPanelWidth - 1) / kPanelWidth * K * kPanelWidth;
}

/// A fully pre-packed left operand: every (row-block, k-block) strip of
/// the logical row-major [rows, depth] matrix, in the exact layout
/// run_mblock packs per call. Immutable after pack_a_full. `cfg` records
/// the tuning config the strips were laid out for (mc/kc/mr govern the
/// layout; strategy is replayed at run time) so compiled plans carry
/// their packing provenance and the packed kernels never have to guess.
struct PackedA {
  int64_t rows = 0;   // logical M
  int64_t depth = 0;  // logical K
  int64_t kblocks = 0;
  GemmTuneConfig cfg;                // config the strips were packed for
  std::vector<float> strips;         // all blocks, back to back
  std::vector<size_t> block_offset;  // index (mblock * kblocks + kblock)
};

/// Packs a row-major a[M, K] into every cache-block strip at once, laid
/// out for `cfg` (invalid configs fall back to the defaults). Callers
/// that know the eventual N should pass resolve_gemm_config(...) so the
/// pack matches what dispatch would pick.
PackedA pack_a_full(const float* a, int64_t M, int64_t K,
                    const GemmTuneConfig& cfg = GemmTuneConfig{});

/// Scratch demand (in floats) of one A cache block packed for `cfg` —
/// the per-worker apack requirement of the serial and split-M drivers.
int64_t gemm_apack_floats(int64_t M, int64_t K, const GemmTuneConfig& cfg);

/// Scratch demand of the whole-A pack the split-N strategy builds before
/// fanning panels out across workers.
int64_t gemm_apack_all_floats(int64_t M, int64_t K, const GemmTuneConfig& cfg);

/// Pre-sizes `s` for the config resolve_gemm_config picks on (v, M, K, N):
/// packed-B panels plus the A-pack demand of the resolved strategy
/// (whole-A for split-N, per-worker buffers for split-M). A scratch warmed
/// this way performs no allocation when the call actually runs, whatever
/// tuning table is installed — ExecutionPlan::warm relies on it.
void reserve_gemm_scratch(GemmScratch& s, GemmVariant v, int64_t M, int64_t K, int64_t N);

/// A pre-packed right operand in NT form (logical B = w^T for a
/// row-major w[N, K]): NR-wide column panels, k-major. `finite` records
/// the strong-zero scan; callers must take the reference path when it
/// is false, mirroring the per-call kernels' fallback.
struct PackedB {
  int64_t depth = 0;  // logical K
  int64_t cols = 0;   // logical N
  bool finite = true;
  std::vector<float> panels;
};

/// Packs a row-major w[N, K] as the transposed right operand.
PackedB pack_b_nt(const float* w, int64_t N, int64_t K);

/// Optional fused write-back applied per C tile after the final k-block.
/// Exactly replicates the interpreted post-passes (bias add then
/// activation, plain float ops in row-major element order), so fused
/// and unfused results are bitwise identical.
struct GemmEpilogue {
  const float* bias_row = nullptr;  // bias_row[i] added across row i (conv bias)
  const float* bias_col = nullptr;  // bias_col[j] added down column j (linear bias)
  int act = 0;                      // 0 = none, 1 = ReLU, 2 = LeakyReLU
  float alpha = 0.0f;               // LeakyReLU negative slope
};

/// c[M, N] = A * B (+ epilogue). A is pre-packed; `bpanels` is a packed
/// B buffer (pack_b layout for A.depth x N, e.g. from im2col_packed).
/// The caller is responsible for the strong-zero fallback: only call
/// this when the panel values are known finite.
void gemm_tiled_packed(const PackedA& a, const float* bpanels, float* c, int64_t N,
                       const GemmEpilogue& ep = {});

/// c[M, N] = a[M, K] * B^T (+ epilogue) with B pre-packed by pack_b_nt.
/// A is packed per call into `scratch` (pass one per thread). Only call
/// when b.finite; otherwise take the reference NT path.
void gemm_tiled_packed_nt(const float* a, const PackedB& b, float* c, int64_t M,
                          const GemmEpilogue& ep = {}, GemmScratch* scratch = nullptr);

}  // namespace capr
