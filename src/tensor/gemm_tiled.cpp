#include "tensor/gemm_tiled.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/gemm_tune.h"
#include "tensor/parallel.h"

namespace capr {
namespace {

// Panel width of the packed-B layout; fixed (it is baked into
// im2col_packed and every committed PackedB), so the micro-kernel's NR
// is not tunable. The micro-kernel height IS: micro_kernel_t<kMR> is
// instantiated for every legal_gemm_mr() value and the resolved tuning
// config picks one at dispatch time.
constexpr int64_t NR = 16;

static_assert(NR == kPanelWidth, "packed-B layout width must match the micro-kernel NR");

/// Packs b into NR-wide column panels: panel p holds columns
/// [p*NR, p*NR+NR) for every k, k-major, short panels zero-padded.
/// Element (k, j) of the logical [K, N] operand lives at b[k*rs + j*cs].
/// Returns false if any packed value is non-finite (strong-zero fallback).
bool pack_b(const float* b, int64_t rs, int64_t cs, int64_t K, int64_t N, float* out) {
  bool finite = true;
  for (int64_t p = 0; p * NR < N; ++p) {
    const int64_t j0 = p * NR;
    const int64_t w = std::min(NR, N - j0);
    float* panel = out + p * K * NR;
    for (int64_t k = 0; k < K; ++k) {
      const float* src = b + k * rs + j0 * cs;
      float* dst = panel + k * NR;
      for (int64_t j = 0; j < w; ++j) {
        const float v = src[j * cs];
        finite = finite && std::isfinite(v);
        dst[j] = v;
      }
      for (int64_t j = w; j < NR; ++j) dst[j] = 0.0f;
    }
  }
  return finite;
}

/// Packs rows [i0, i0+mc) x columns [k0, k0+kc) of the logical [M, K]
/// operand (element (i, k) at a[i*rs + k*cs]) into mr-tall strips,
/// k-major, short strips zero-padded.
void pack_a(const float* a, int64_t rs, int64_t cs, int64_t i0, int64_t mc, int64_t k0,
            int64_t kc, int64_t mr, float* out) {
  for (int64_t s = 0; s * mr < mc; ++s) {
    const int64_t r0 = i0 + s * mr;
    const int64_t rows = std::min(mr, i0 + mc - r0);
    float* strip = out + s * mr * kc;
    for (int64_t k = 0; k < kc; ++k) {
      const float* src = a + r0 * rs + (k0 + k) * cs;
      float* dst = strip + k * mr;
      int64_t i = 0;
      for (; i < rows; ++i) dst[i] = src[i * rs];
      for (; i < mr; ++i) dst[i] = 0.0f;
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)
// One full C tile row as a generic vector: the compiler lowers ops on it
// to the widest SIMD the target has (one zmm, two ymm, four xmm) and the
// accumulators stay in registers. Autovectorisation of the scalar form
// is not trusted here: GCC picks the 4-wide i-axis for it, an 8x loss.
using vnr = float __attribute__((vector_size(64)));
static_assert(NR * sizeof(float) == 64, "vnr must span one packed panel row");

/// kMR x NR register tile: c[0:mr, 0:nr] (+)= ap * bp over kc. ap is a
/// kMR-tall strip (k-major), bp an NR-wide panel slice (k-major).
///
/// C is PRE-LOADED into the accumulators (zeros when `overwrite`, i.e.
/// the first k-block of a non-accumulating call) and the k-loop then
/// extends each element's chain in strictly ascending k. Because the
/// chain continues across k-blocks instead of summing each block from
/// zero and adding it to C afterwards, every C element sees one global
/// k-ascending addition sequence — making the result bitwise INVARIANT
/// to mc/kc/mr, the parallelization strategy, and the worker count.
/// That invariance is the eligibility foundation of the autotuner: any
/// legal tuning config produces identical bits, only different speed.
///
/// Edge tiles stage C through a zero-padded tile so the same vector
/// loop runs; pad lanes are never written back (they can hold garbage
/// when A carries non-finite values — B is scanned, A is not).
template <int64_t kMR>
void micro_kernel_t(const float* __restrict ap, const float* __restrict bp, int64_t kc,
                    float* __restrict c, int64_t ldc, int64_t mr, int64_t nr, bool overwrite) {
  vnr acc[kMR];
  if (mr == kMR && nr == NR) {
    if (overwrite) {
      for (int64_t i = 0; i < kMR; ++i) acc[i] = vnr{};
    } else {
      for (int64_t i = 0; i < kMR; ++i) __builtin_memcpy(&acc[i], c + i * ldc, sizeof(vnr));
    }
    for (int64_t k = 0; k < kc; ++k) {
      vnr bv;
      __builtin_memcpy(&bv, bp + k * NR, sizeof(bv));
      const float* __restrict ak = ap + k * kMR;
      for (int64_t i = 0; i < kMR; ++i) acc[i] += ak[i] * bv;
    }
    for (int64_t i = 0; i < kMR; ++i) __builtin_memcpy(c + i * ldc, &acc[i], sizeof(vnr));
  } else {
    float tile[kMR][NR] = {};
    if (!overwrite) {
      for (int64_t i = 0; i < mr; ++i) {
        const float* crow = c + i * ldc;
        for (int64_t j = 0; j < nr; ++j) tile[i][j] = crow[j];
      }
    }
    __builtin_memcpy(acc, tile, sizeof(tile));
    for (int64_t k = 0; k < kc; ++k) {
      vnr bv;
      __builtin_memcpy(&bv, bp + k * NR, sizeof(bv));
      const float* __restrict ak = ap + k * kMR;
      for (int64_t i = 0; i < kMR; ++i) acc[i] += ak[i] * bv;
    }
    __builtin_memcpy(tile, acc, sizeof(tile));
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] = tile[i][j];
    }
  }
}
#else
/// Portable scalar fallback of the tile above; same C pre-load and the
/// same per-element k-ascending accumulation order.
template <int64_t kMR>
void micro_kernel_t(const float* __restrict ap, const float* __restrict bp, int64_t kc,
                    float* __restrict c, int64_t ldc, int64_t mr, int64_t nr, bool overwrite) {
  float acc[kMR][NR] = {};
  if (!overwrite) {
    for (int64_t i = 0; i < mr; ++i) {
      const float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) acc[i][j] = crow[j];
    }
  }
  for (int64_t k = 0; k < kc; ++k) {
    const float* __restrict bk = bp + k * NR;
    const float* __restrict ak = ap + k * kMR;
    for (int64_t i = 0; i < kMR; ++i) {
      const float av = ak[i];
      for (int64_t j = 0; j < NR; ++j) acc[i][j] += av * bk[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] = acc[i][j];
  }
}
#endif

using MicroFn = void (*)(const float* __restrict, const float* __restrict, int64_t,
                         float* __restrict, int64_t, int64_t, int64_t, bool);

/// Dispatches to the compiled micro-kernel for an mr from
/// legal_gemm_mr(); resolve/pack_a_full guarantee legality upstream.
MicroFn micro_for(int64_t mr) {
  switch (mr) {
    case 4: return micro_kernel_t<4>;
    case 8: return micro_kernel_t<8>;
    default: return micro_kernel_t<6>;
  }
}

/// Strides locating element (i, k) of A and (k, j) of B inside the
/// caller's buffers; lets one driver serve the NN / NT / TN variants.
struct Operands {
  int64_t a_rs, a_cs;
  int64_t b_rs, b_cs;
};

/// Fused write-back for one C tile: bias adds then activation, plain
/// float ops in row-major element order — the exact sequence the
/// interpreted per-layer passes perform, so fusion is bitwise exact.
void apply_epilogue_tile(float* c, int64_t ldc, int64_t mr, int64_t nr, int64_t i0, int64_t j0,
                         const GemmEpilogue& ep) {
  for (int64_t i = 0; i < mr; ++i) {
    float* row = c + i * ldc;
    const float br = ep.bias_row != nullptr ? ep.bias_row[i0 + i] : 0.0f;
    for (int64_t j = 0; j < nr; ++j) {
      float v = row[j];
      if (ep.bias_row != nullptr) v += br;
      if (ep.bias_col != nullptr) v += ep.bias_col[j0 + j];
      if (ep.act == 1) {
        v = v > 0.0f ? v : 0.0f;
      } else if (ep.act == 2) {
        v = v > 0.0f ? v : ep.alpha * v;
      }
      row[j] = v;
    }
  }
}

bool has_epilogue(const GemmEpilogue& ep) {
  return ep.bias_row != nullptr || ep.bias_col != nullptr || ep.act != 0;
}

/// One row block: all k-blocks, in order, against panels [p0, p1). The
/// per-element accumulation order (k ascending, C pre-loaded) is
/// identical no matter which worker runs the block or how cfg slices
/// it. The optional epilogue fires per tile after the final k-block.
void run_mblock(const float* a, float* c, int64_t M, int64_t K, int64_t N, bool accumulate,
                const Operands& op, const float* bpack, int64_t mb, int64_t p0, int64_t p1,
                const GemmEpilogue& ep, const GemmTuneConfig& cfg, MicroFn micro,
                std::vector<float>& apack) {
  const int64_t i0 = mb * cfg.mc;
  const int64_t mc = std::min(cfg.mc, M - i0);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  apack.resize(static_cast<size_t>(strips * cfg.mr * std::min(K, cfg.kc)));
  for (int64_t k0 = 0; k0 < K; k0 += cfg.kc) {
    const int64_t kc = std::min(cfg.kc, K - k0);
    pack_a(a, op.a_rs, op.a_cs, i0, mc, k0, kc, cfg.mr, apack.data());
    const bool overwrite = k0 == 0 && !accumulate;
    const bool last = k0 + kc == K;
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * NR;
      const int64_t nr = std::min(NR, N - j0);
      const float* bp = bpack + p * K * NR + k0 * NR;
      for (int64_t s = 0; s < strips; ++s) {
        const int64_t i = i0 + s * cfg.mr;
        const int64_t mr = std::min(cfg.mr, i0 + mc - i);
        micro(apack.data() + s * cfg.mr * kc, bp, kc, c + i * N + j0, N, mr, nr, overwrite);
        if (last && has_epilogue(ep)) apply_epilogue_tile(c + i * N + j0, N, mr, nr, i, j0, ep);
      }
    }
  }
}

/// Offset of cache block (mb, kb) inside a whole-A pack laid out in
/// (mb, kb) order: preceding m-blocks are full height (strips_full
/// strips spanning all of K), preceding k-blocks full depth.
size_t ablock_offset(int64_t mb, int64_t kb, int64_t M, int64_t K, const GemmTuneConfig& cfg) {
  const int64_t strips_full = (cfg.mc + cfg.mr - 1) / cfg.mr;
  size_t off = static_cast<size_t>(mb) * static_cast<size_t>(strips_full * cfg.mr * K);
  const int64_t mc = std::min(cfg.mc, M - mb * cfg.mc);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  off += static_cast<size_t>(kb) * static_cast<size_t>(strips * cfg.mr * cfg.kc);
  return off;
}

/// Packs every (m-block, k-block) strip of A at once — the split-N
/// strategy packs A serially, then workers share it read-only while
/// owning disjoint panel ranges of C.
void pack_a_all(const float* a, const Operands& op, int64_t M, int64_t K,
                const GemmTuneConfig& cfg, std::vector<float>& out) {
  out.resize(static_cast<size_t>(gemm_apack_all_floats(M, K, cfg)));
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  const int64_t kblocks = (K + cfg.kc - 1) / cfg.kc;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    for (int64_t kb = 0; kb < kblocks; ++kb) {
      const int64_t k0 = kb * cfg.kc;
      const int64_t kc = std::min(cfg.kc, K - k0);
      pack_a(a, op.a_rs, op.a_cs, i0, mc, k0, kc, cfg.mr,
             out.data() + ablock_offset(mb, kb, M, K, cfg));
    }
  }
}

/// One panel of C across every m-block and k-block, reading the shared
/// whole-A pack. Each element's k-chain lives entirely in this call, so
/// split-N output is bitwise identical to the serial order.
void run_panel(const float* apack_all, const float* bpack, float* c, int64_t M, int64_t K,
               int64_t N, bool accumulate, const GemmEpilogue& ep, const GemmTuneConfig& cfg,
               MicroFn micro, int64_t p) {
  const int64_t j0 = p * NR;
  const int64_t nr = std::min(NR, N - j0);
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
    for (int64_t k0 = 0, kb = 0; k0 < K; k0 += cfg.kc, ++kb) {
      const int64_t kc = std::min(cfg.kc, K - k0);
      const float* ablock = apack_all + ablock_offset(mb, kb, M, K, cfg);
      const bool overwrite = k0 == 0 && !accumulate;
      const bool last = k0 + kc == K;
      const float* bp = bpack + p * K * NR + k0 * NR;
      for (int64_t s = 0; s < strips; ++s) {
        const int64_t i = i0 + s * cfg.mr;
        const int64_t mr = std::min(cfg.mr, i0 + mc - i);
        micro(ablock + s * cfg.mr * kc, bp, kc, c + i * N + j0, N, mr, nr, overwrite);
        if (last && has_epilogue(ep)) apply_epilogue_tile(c + i * N + j0, N, mr, nr, i, j0, ep);
      }
    }
  }
}

/// Downgrades a resolved strategy to what this call can actually use:
/// serial when the shape has nothing to split or threading is
/// unavailable here. Purely shape/thread-count dependent, so dispatch
/// stays deterministic.
GemmParallel executable_strategy(GemmParallel strat, int64_t mblocks, int64_t panels) {
  if (num_threads() <= 1 || in_parallel_region()) return GemmParallel::kNoParallel;
  if (strat == GemmParallel::kSplitM && mblocks <= 1) return GemmParallel::kNoParallel;
  if (strat == GemmParallel::kSplitN && panels <= 1) return GemmParallel::kNoParallel;
  return strat;
}

/// Shared driver for the per-call kernels. `fallback` re-runs the whole
/// product on the strong-zero reference path; taken when B contains
/// non-finite values.
template <typename Fallback>
void tiled_driver(GemmVariant variant, const float* a, const float* b, float* c, int64_t M,
                  int64_t K, int64_t N, bool accumulate, GemmScratch* scratch,
                  const Operands& op, const Fallback& fallback) {
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    if (!accumulate) std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
    return;
  }
  GemmScratch local;
  GemmScratch& s = scratch != nullptr ? *scratch : local;
  const int64_t panels = (N + NR - 1) / NR;
  s.bpack.resize(static_cast<size_t>(panels * K * NR));
  if (!pack_b(b, op.b_rs, op.b_cs, K, N, s.bpack.data())) {
    fallback();
    return;
  }
  const GemmTuneConfig cfg = resolve_gemm_config(variant, M, K, N);
  const MicroFn micro = micro_for(cfg.mr);
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  const GemmEpilogue ep;  // per-call kernels have no fused epilogue
  switch (executable_strategy(cfg.strategy, mblocks, panels)) {
    case GemmParallel::kNoParallel:
      for (int64_t mb = 0; mb < mblocks; ++mb) {
        run_mblock(a, c, M, K, N, accumulate, op, s.bpack.data(), mb, 0, panels, ep, cfg, micro,
                   s.apack);
      }
      return;
    case GemmParallel::kSplitM: {
      // Row blocks across workers. bpack is written above, strictly
      // before the threads spawn (happens-before via thread creation),
      // and is read-only inside the region; each block writes a
      // disjoint C row range.
      const auto workers = static_cast<size_t>(std::min<int64_t>(mblocks, num_threads()));
      if (s.wapack.size() < workers) s.wapack.resize(workers);
      parallel_for(0, mblocks, [&](int tid, int64_t mb) {
        run_mblock(a, c, M, K, N, accumulate, op, s.bpack.data(), mb, 0, panels, ep, cfg, micro,
                   s.wapack[static_cast<size_t>(tid)]);
      });
      return;
    }
    case GemmParallel::kSplitN:
      // Panel ranges across workers: A is packed whole (serially, into
      // the shared apack) and read-only in the region; each panel
      // writes a disjoint C column range.
      pack_a_all(a, op, M, K, cfg, s.apack);
      parallel_for(0, panels, [&](int, int64_t p) {
        run_panel(s.apack.data(), s.bpack.data(), c, M, K, N, accumulate, ep, cfg, micro, p);
      });
      return;
  }
}

/// run_mblock with A pre-packed (layout and config from the PackedA):
/// same block order, same micro-kernel calls, no pack_a.
void run_mblock_packed(const PackedA& A, const float* bpack, float* c, int64_t N,
                       const GemmEpilogue& ep, MicroFn micro, int64_t mb) {
  const GemmTuneConfig& cfg = A.cfg;
  const int64_t M = A.rows;
  const int64_t K = A.depth;
  const int64_t i0 = mb * cfg.mc;
  const int64_t mc = std::min(cfg.mc, M - i0);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  const int64_t panels = (N + NR - 1) / NR;
  for (int64_t kb = 0; kb < A.kblocks; ++kb) {
    const int64_t k0 = kb * cfg.kc;
    const int64_t kc = std::min(cfg.kc, K - k0);
    const float* apack =
        A.strips.data() + A.block_offset[static_cast<size_t>(mb * A.kblocks + kb)];
    const bool overwrite = k0 == 0;
    const bool last = k0 + kc == K;
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * NR;
      const int64_t nr = std::min(NR, N - j0);
      const float* bp = bpack + p * K * NR + k0 * NR;
      for (int64_t s = 0; s < strips; ++s) {
        const int64_t i = i0 + s * cfg.mr;
        const int64_t mr = std::min(cfg.mr, i0 + mc - i);
        micro(apack + s * cfg.mr * kc, bp, kc, c + i * N + j0, N, mr, nr, overwrite);
        if (last && has_epilogue(ep)) apply_epilogue_tile(c + i * N + j0, N, mr, nr, i, j0, ep);
      }
    }
  }
}

/// One C panel over a pre-packed A — the split-N inner loop of the
/// compiled conv path.
void run_panel_packed(const PackedA& A, const float* bpack, float* c, int64_t N,
                      const GemmEpilogue& ep, MicroFn micro, int64_t p) {
  const GemmTuneConfig& cfg = A.cfg;
  const int64_t M = A.rows;
  const int64_t K = A.depth;
  const int64_t j0 = p * NR;
  const int64_t nr = std::min(NR, N - j0);
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
    for (int64_t kb = 0; kb < A.kblocks; ++kb) {
      const int64_t k0 = kb * cfg.kc;
      const int64_t kc = std::min(cfg.kc, K - k0);
      const float* apack =
          A.strips.data() + A.block_offset[static_cast<size_t>(mb * A.kblocks + kb)];
      const bool overwrite = k0 == 0;
      const bool last = k0 + kc == K;
      const float* bp = bpack + p * K * NR + k0 * NR;
      for (int64_t s = 0; s < strips; ++s) {
        const int64_t i = i0 + s * cfg.mr;
        const int64_t mr = std::min(cfg.mr, i0 + mc - i);
        micro(apack + s * cfg.mr * kc, bp, kc, c + i * N + j0, N, mr, nr, overwrite);
        if (last && has_epilogue(ep)) apply_epilogue_tile(c + i * N + j0, N, mr, nr, i, j0, ep);
      }
    }
  }
}

}  // namespace

int64_t gemm_apack_floats(int64_t M, int64_t K, const GemmTuneConfig& cfg) {
  const int64_t mc = std::min(cfg.mc, M);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  return strips * cfg.mr * std::min(K, cfg.kc);
}

int64_t gemm_apack_all_floats(int64_t M, int64_t K, const GemmTuneConfig& cfg) {
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  int64_t strips_total = 0;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t mc = std::min(cfg.mc, M - mb * cfg.mc);
    strips_total += (mc + cfg.mr - 1) / cfg.mr;
  }
  return strips_total * cfg.mr * K;
}

void reserve_gemm_scratch(GemmScratch& s, GemmVariant v, int64_t M, int64_t K, int64_t N) {
  if (M <= 0 || K <= 0 || N <= 0) return;
  const GemmTuneConfig cfg = resolve_gemm_config(v, M, K, N);
  const auto grow = [](std::vector<float>& buf, int64_t n) {
    if (static_cast<int64_t>(buf.size()) < n) buf.resize(static_cast<size_t>(n));
  };
  grow(s.bpack, packed_b_floats(K, N));
  // Size for the serial/split-M block pack unconditionally (the runtime
  // strategy downgrades to serial inside parallel regions), then add the
  // parallel strategy's extra demand on top.
  grow(s.apack, gemm_apack_floats(M, K, cfg));
  if (cfg.strategy == GemmParallel::kSplitN) {
    grow(s.apack, gemm_apack_all_floats(M, K, cfg));
  } else if (cfg.strategy == GemmParallel::kSplitM) {
    const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
    const size_t workers =
        static_cast<size_t>(std::min<int64_t>(mblocks, num_threads()));
    if (s.wapack.size() < workers) s.wapack.resize(workers);
    for (size_t w = 0; w < workers; ++w) grow(s.wapack[w], gemm_apack_floats(M, K, cfg));
  }
}

PackedA pack_a_full(const float* a, int64_t M, int64_t K, const GemmTuneConfig& cfg_in) {
  PackedA out;
  out.cfg = cfg_in;
  if (!gemm_config_valid(out.cfg)) out.cfg = GemmTuneConfig{};
  const GemmTuneConfig& cfg = out.cfg;
  out.rows = M;
  out.depth = K;
  out.kblocks = (K + cfg.kc - 1) / cfg.kc;
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  out.block_offset.reserve(static_cast<size_t>(mblocks * out.kblocks));
  size_t total = 0;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
    for (int64_t kb = 0; kb < out.kblocks; ++kb) {
      const int64_t kc = std::min(cfg.kc, K - kb * cfg.kc);
      out.block_offset.push_back(total);
      total += static_cast<size_t>(strips * cfg.mr * kc);
    }
  }
  out.strips.resize(total);
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    for (int64_t kb = 0; kb < out.kblocks; ++kb) {
      const int64_t k0 = kb * cfg.kc;
      const int64_t kc = std::min(cfg.kc, K - k0);
      pack_a(a, K, 1, i0, mc, k0, kc, cfg.mr,
             out.strips.data() + out.block_offset[static_cast<size_t>(mb * out.kblocks + kb)]);
    }
  }
  return out;
}

PackedB pack_b_nt(const float* w, int64_t N, int64_t K) {
  PackedB out;
  out.depth = K;
  out.cols = N;
  out.panels.resize(static_cast<size_t>(packed_b_floats(K, N)));
  // Logical B = w^T for row-major w[N, K]: element (k, j) at w[j*K + k].
  out.finite = pack_b(w, 1, K, K, N, out.panels.data());
  return out;
}

void gemm_tiled_packed(const PackedA& a, const float* bpanels, float* c, int64_t N,
                       const GemmEpilogue& ep) {
  const int64_t M = a.rows;
  const int64_t K = a.depth;
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
    if (has_epilogue(ep)) apply_epilogue_tile(c, N, M, N, 0, 0, ep);
    return;
  }
  const MicroFn micro = micro_for(a.cfg.mr);
  const int64_t mblocks = (M + a.cfg.mc - 1) / a.cfg.mc;
  const int64_t panels = (N + NR - 1) / NR;
  switch (executable_strategy(a.cfg.strategy, mblocks, panels)) {
    case GemmParallel::kNoParallel:
      for (int64_t mb = 0; mb < mblocks; ++mb) {
        run_mblock_packed(a, bpanels, c, N, ep, micro, mb);
      }
      return;
    case GemmParallel::kSplitM:
      parallel_for(0, mblocks,
                   [&](int, int64_t mb) { run_mblock_packed(a, bpanels, c, N, ep, micro, mb); });
      return;
    case GemmParallel::kSplitN:
      parallel_for(0, panels,
                   [&](int, int64_t p) { run_panel_packed(a, bpanels, c, N, ep, micro, p); });
      return;
  }
}

void gemm_tiled_packed_nt(const float* a, const PackedB& b, float* c, int64_t M,
                          const GemmEpilogue& ep, GemmScratch* scratch) {
  const int64_t K = b.depth;
  const int64_t N = b.cols;
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
    if (has_epilogue(ep)) apply_epilogue_tile(c, N, M, N, 0, 0, ep);
    return;
  }
  GemmScratch local;
  GemmScratch& s = scratch != nullptr ? *scratch : local;
  // The logical product is a[M, K] * w^T — an NT-variant shape. A is
  // packed per call (row-major operand strides {K, 1}).
  const GemmTuneConfig cfg = resolve_gemm_config(GemmVariant::kNT, M, K, N);
  const MicroFn micro = micro_for(cfg.mr);
  const Operands op{K, 1, 0, 0};
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  const int64_t panels = (N + NR - 1) / NR;
  switch (executable_strategy(cfg.strategy, mblocks, panels)) {
    case GemmParallel::kNoParallel:
      for (int64_t mb = 0; mb < mblocks; ++mb) {
        run_mblock(a, c, M, K, N, /*accumulate=*/false, op, b.panels.data(), mb, 0, panels, ep,
                   cfg, micro, s.apack);
      }
      return;
    case GemmParallel::kSplitM: {
      const auto workers = static_cast<size_t>(std::min<int64_t>(mblocks, num_threads()));
      if (s.wapack.size() < workers) s.wapack.resize(workers);
      parallel_for(0, mblocks, [&](int tid, int64_t mb) {
        run_mblock(a, c, M, K, N, /*accumulate=*/false, op, b.panels.data(), mb, 0, panels, ep,
                   cfg, micro, s.wapack[static_cast<size_t>(tid)]);
      });
      return;
    }
    case GemmParallel::kSplitN:
      pack_a_all(a, op, M, K, cfg, s.apack);
      parallel_for(0, panels, [&](int, int64_t p) {
        run_panel(s.apack.data(), b.panels.data(), c, M, K, N, /*accumulate=*/false, ep, cfg,
                  micro, p);
      });
      return;
  }
}

void gemm_tiled(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                bool accumulate, GemmScratch* scratch) {
  tiled_driver(GemmVariant::kNN, a, b, c, M, K, N, accumulate, scratch, Operands{K, 1, N, 1},
               [&] { gemm(a, b, c, M, K, N, accumulate); });
}

void gemm_tiled_nt(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                   bool accumulate, GemmScratch* scratch) {
  // Logical B = bT where b is [N, K]: element (k, j) sits at b[j*K + k].
  GemmScratch local;
  GemmScratch& s = scratch != nullptr ? *scratch : local;
  tiled_driver(GemmVariant::kNT, a, b, c, M, K, N, accumulate, &s, Operands{K, 1, 1, K}, [&] {
    s.tpose.resize(static_cast<size_t>(K * N));
    for (int64_t j = 0; j < N; ++j) {
      const float* brow = b + j * K;
      for (int64_t k = 0; k < K; ++k) s.tpose[static_cast<size_t>(k * N + j)] = brow[k];
    }
    gemm(a, s.tpose.data(), c, M, K, N, accumulate);
  });
}

void gemm_tiled_tn(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                   bool accumulate, GemmScratch* scratch) {
  // Logical A = aT where a is [K, M]: element (i, k) sits at a[k*M + i].
  tiled_driver(GemmVariant::kTN, a, b, c, M, K, N, accumulate, scratch, Operands{1, M, N, 1},
               [&] { gemm_tn_ref(a, b, c, M, K, N, accumulate); });
}

}  // namespace capr
