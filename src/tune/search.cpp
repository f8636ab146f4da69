#include "tune/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <ostream>
#include <tuple>

#include "tensor/gemm_tiled.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/scratch.h"

namespace capr::tune {
namespace {

/// Operand buffers for one rep shape, filled deterministically so every
/// run of the search multiplies the same matrices.
struct Operands {
  std::vector<float> a, b, c;
};

Operands make_operands(GemmVariant v, int64_t m, int64_t k, int64_t n) {
  Operands op;
  op.a.resize(static_cast<size_t>(v == GemmVariant::kTN ? k * m : m * k));
  op.b.resize(static_cast<size_t>(v == GemmVariant::kNT ? n * k : k * n));
  op.c.resize(static_cast<size_t>(m * n));
  Rng rng(0x7d3a9efULL + static_cast<uint64_t>(m * 131 + k * 31 + n));
  for (float& x : op.a) x = rng.uniform(-1.0f, 1.0f);
  for (float& x : op.b) x = rng.uniform(-1.0f, 1.0f);
  return op;
}

void run_call(GemmVariant v, Operands& op, int64_t m, int64_t k, int64_t n,
              GemmScratch* scratch) {
  switch (v) {
    case GemmVariant::kNN:
      gemm_tiled(op.a.data(), op.b.data(), op.c.data(), m, k, n, false, scratch);
      break;
    case GemmVariant::kNT:
      gemm_tiled_nt(op.a.data(), op.b.data(), op.c.data(), m, k, n, false, scratch);
      break;
    case GemmVariant::kTN:
      gemm_tiled_tn(op.a.data(), op.b.data(), op.c.data(), m, k, n, false, scratch);
      break;
  }
}

double time_iters(GemmVariant v, Operands& op, int64_t m, int64_t k, int64_t n,
                  GemmScratch* scratch, int64_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iters; ++i) run_call(v, op, m, k, n, scratch);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-`repeats` throughput of `cfg` on one shape, measured through
/// the public dispatch with the candidate pinned by a one-entry table.
double measure_gflops(GemmVariant v, int64_t m, int64_t k, int64_t n,
                      const GemmTuneConfig& cfg, Operands& op, GemmScratch* scratch,
                      int repeats, double min_seconds) {
  GemmTuningScope pin(single_entry_table(v, m, k, n, cfg));
  run_call(v, op, m, k, n, scratch);  // warm packs + caches, outside timing
  int64_t iters = 1;
  double t = time_iters(v, op, m, k, n, scratch, iters);
  while (t < min_seconds && iters < (int64_t{1} << 22)) {
    iters *= 2;
    t = time_iters(v, op, m, k, n, scratch, iters);
  }
  double best = t / static_cast<double>(iters);
  for (int r = 1; r < repeats; ++r) {
    best = std::min(best, time_iters(v, op, m, k, n, scratch, iters) /
                              static_cast<double>(iters));
  }
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  return best > 0.0 ? flops / best / 1e9 : 0.0;
}

/// The eligibility contract: the candidate's output must be bitwise
/// identical between 1 worker and 4 workers, and bitwise identical to
/// what the default config produces. `ref` is the default-config output.
bool bitwise_eligible(GemmVariant v, int64_t m, int64_t k, int64_t n,
                      const GemmTuneConfig& cfg, Operands& op, GemmScratch* scratch,
                      const std::vector<float>& ref) {
  GemmTuningScope pin(single_entry_table(v, m, k, n, cfg));
  const size_t bytes = op.c.size() * sizeof(float);
  const int saved = num_threads();
  set_num_threads(1);
  run_call(v, op, m, k, n, scratch);
  std::vector<float> c1 = op.c;
  set_num_threads(4);
  run_call(v, op, m, k, n, scratch);
  set_num_threads(saved);
  return std::memcmp(c1.data(), op.c.data(), bytes) == 0 &&
         std::memcmp(c1.data(), ref.data(), bytes) == 0;
}

std::vector<GemmTuneConfig> candidate_grid(GemmVariant v, int64_t m, int64_t k,
                                           int64_t n, bool smoke) {
  const GemmTuneConfig def = default_gemm_config(v, m, k, n);
  std::vector<int64_t> mcs = smoke ? std::vector<int64_t>{def.mc}
                                   : std::vector<int64_t>{36, 72, 144};
  std::vector<int64_t> kcs = smoke ? std::vector<int64_t>{def.kc}
                                   : std::vector<int64_t>{128, 256, 512};
  // Strategy candidates only help when workers exist; with one thread
  // every strategy downgrades to serial execution anyway, so searching
  // them would triple the measurement budget for identical timings.
  std::vector<GemmParallel> strategies = {def.strategy};
  if (num_threads() > 1) {
    strategies = {GemmParallel::kNoParallel, GemmParallel::kSplitM,
                  GemmParallel::kSplitN};
  }
  std::vector<GemmTuneConfig> out;
  for (int64_t mc : mcs) {
    for (int64_t kc : kcs) {
      for (int64_t mr : legal_gemm_mr()) {
        for (GemmParallel s : strategies) {
          GemmTuneConfig cfg{mc, kc, mr, s};
          // Split-M distributes whole MC blocks, so raising MC above the
          // default shrinks the worker pool (e.g. mc=144 at M=256 leaves
          // only 2 blocks). Tuning hosts may have fewer workers than the
          // deploy host, so a serial-time win from a coarser MC is not
          // worth starving a parallel run; cap MC at the default for
          // split-M candidates.
          if (cfg.strategy == GemmParallel::kSplitM && cfg.mc > def.mc) continue;
          if (gemm_config_valid(cfg)) out.push_back(cfg);
        }
      }
    }
  }
  return out;
}

std::string shape_str(int64_t m, int64_t k, int64_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

std::string cfg_str(const GemmTuneConfig& cfg) {
  return "mc=" + std::to_string(cfg.mc) + " kc=" + std::to_string(cfg.kc) +
         " mr=" + std::to_string(cfg.mr) + " " + to_string(cfg.strategy);
}

}  // namespace

TuneResult run_autotune(const std::vector<CorpusShape>& corpus, const TuneOptions& opts) {
  const int repeats = std::max(1, opts.smoke ? std::min(opts.repeats, 2) : opts.repeats);
  const double min_seconds = opts.smoke ? std::min(opts.min_seconds, 0.002)
                                        : opts.min_seconds;
  GemmScratch scratch;

  // Group by class; the representative is the median-FLOPs member so one
  // outlier shape cannot skew a whole class's config.
  std::map<int, std::vector<const CorpusShape*>> by_class;
  for (const CorpusShape& s : corpus) {
    by_class[classify_gemm(s.variant, s.m, s.k, s.n).index()].push_back(&s);
  }

  // A class entry applies to EVERY shape in the class, so the winner is
  // chosen on a spread of members, not just one representative: maximum
  // geometric-mean speedup over the default, subject to a no-regress
  // guard (no sampled member below kMemberFloor of its default). A config
  // that is brilliant on one member but costs another its throughput
  // never enters the table.
  const size_t max_members = opts.smoke ? 2 : 6;
  constexpr double kMemberFloor = 0.98;

  TuneResult result;
  result.table.host = host_fingerprint();
  for (auto& [idx, members] : by_class) {
    std::sort(members.begin(), members.end(),
              [](const CorpusShape* a, const CorpusShape* b) {
                if (a->flops() != b->flops()) return a->flops() < b->flops();
                return std::make_tuple(a->m, a->k, a->n) <
                       std::make_tuple(b->m, b->k, b->n);
              });
    const CorpusShape& rep = *members[members.size() / 2];
    const GemmShapeClass cls = classify_gemm(rep.variant, rep.m, rep.k, rep.n);
    const GemmTuneConfig def = default_gemm_config(rep.variant, rep.m, rep.k, rep.n);

    // Evenly spread sample across the flops-sorted members (always
    // includes the smallest and largest when more than one exists).
    std::vector<const CorpusShape*> sample;
    if (members.size() <= max_members) {
      sample = members;
    } else {
      for (size_t i = 0; i < max_members; ++i) {
        sample.push_back(members[i * (members.size() - 1) / (max_members - 1)]);
      }
    }

    struct MemberState {
      const CorpusShape* shape;
      Operands op;
      std::vector<float> ref;  // default-config output, the bitwise yardstick
      double baseline = 0.0;
    };
    std::vector<MemberState> states;
    for (const CorpusShape* s : sample) {
      MemberState st;
      st.shape = s;
      st.op = make_operands(s->variant, s->m, s->k, s->n);
      st.baseline = measure_gflops(s->variant, s->m, s->k, s->n, def, st.op, &scratch,
                                   repeats, min_seconds);
      {
        GemmTuningScope pin(single_entry_table(s->variant, s->m, s->k, s->n, def));
        const int saved = num_threads();
        set_num_threads(1);
        run_call(s->variant, st.op, s->m, s->k, s->n, &scratch);
        set_num_threads(saved);
      }
      st.ref = st.op.c;
      states.push_back(std::move(st));
    }
    const double rep_baseline = states[sample.size() / 2].baseline;

    ClassReport report;
    report.cls = cls;
    report.shapes = static_cast<int>(members.size());
    report.entry.cfg = def;
    report.entry.rep_m = rep.m;
    report.entry.rep_k = rep.k;
    report.entry.rep_n = rep.n;
    report.entry.gflops = rep_baseline;
    report.entry.baseline_gflops = rep_baseline;

    GemmTuneConfig best_cfg = def;
    double best_gain = 1.0;       // geomean across sampled members
    double best_rep_gflops = rep_baseline;
    for (const GemmTuneConfig& cfg : candidate_grid(rep.variant, rep.m, rep.k, rep.n,
                                                    opts.smoke)) {
      if (cfg == def) continue;
      ++report.candidates;
      bool eligible = true;
      for (MemberState& st : states) {
        if (!bitwise_eligible(st.shape->variant, st.shape->m, st.shape->k, st.shape->n,
                              cfg, st.op, &scratch, st.ref)) {
          eligible = false;
          break;
        }
      }
      if (!eligible) {
        ++report.rejected_bitwise;
        continue;
      }
      double log_gain = 0.0, min_gain = 1e30, rep_gflops = rep_baseline;
      for (size_t i = 0; i < states.size(); ++i) {
        MemberState& st = states[i];
        const double gflops =
            measure_gflops(st.shape->variant, st.shape->m, st.shape->k, st.shape->n, cfg,
                           st.op, &scratch, repeats, min_seconds);
        const double gain = st.baseline > 0.0 ? gflops / st.baseline : 0.0;
        log_gain += std::log(std::max(gain, 1e-12));
        min_gain = std::min(min_gain, gain);
        if (i == states.size() / 2) rep_gflops = gflops;
      }
      const double gain = std::exp(log_gain / static_cast<double>(states.size()));
      if (min_gain >= kMemberFloor && gain > best_gain) {
        best_gain = gain;
        best_cfg = cfg;
        best_rep_gflops = rep_gflops;
      }
    }

    if (best_cfg != def && best_gain >= opts.min_gain) {
      report.tuned = true;
      report.entry.present = true;
      report.entry.cfg = best_cfg;
      report.entry.gflops = best_rep_gflops;
      result.table.set(cls, report.entry);
    }
    if (opts.log) {
      *opts.log << "[tune] " << cls.key() << " rep " << shape_str(rep.m, rep.k, rep.n)
                << " (" << report.shapes << " shapes, " << states.size()
                << " sampled, first: " << rep.origin << ")\n"
                << "       default " << rep_baseline << " GF/s";
      if (report.tuned) {
        *opts.log << " -> " << cfg_str(best_cfg) << " (geomean " << best_gain
                  << "x, rep " << best_rep_gflops << " GF/s)";
      } else {
        *opts.log << " (kept; best surviving geomean " << best_gain << "x)";
      }
      if (report.rejected_bitwise > 0) {
        *opts.log << " [" << report.rejected_bitwise << " candidates REJECTED bitwise]";
      }
      *opts.log << "\n";
    }
    result.reports.push_back(std::move(report));
  }
  return result;
}

std::vector<VerifyRow> verify_table(const GemmTuningTable& table, const TuneOptions& opts) {
  const int repeats = std::max(1, opts.smoke ? std::min(opts.repeats, 2) : opts.repeats);
  const double min_seconds = opts.smoke ? std::min(opts.min_seconds, 0.002)
                                        : opts.min_seconds;
  GemmScratch scratch;
  std::vector<VerifyRow> rows;
  for (int idx = 0; idx < kGemmShapeClassCount; ++idx) {
    const GemmTuneEntry& e = table.entries[static_cast<size_t>(idx)];
    if (!e.present) continue;
    VerifyRow row;
    row.cls.variant = static_cast<GemmVariant>(idx / (kGemmGeomCount * kGemmTierCount));
    row.cls.geom = static_cast<GemmShapeGeom>(idx / kGemmTierCount % kGemmGeomCount);
    row.cls.tier = static_cast<GemmShapeTier>(idx % kGemmTierCount);
    row.cfg = e.cfg;
    row.recorded_gflops = e.gflops;
    if (e.rep_m > 0 && e.rep_k > 0 && e.rep_n > 0) {
      const GemmVariant v = row.cls.variant;
      Operands op = make_operands(v, e.rep_m, e.rep_k, e.rep_n);
      {
        GemmTuningScope pin(single_entry_table(
            v, e.rep_m, e.rep_k, e.rep_n,
            default_gemm_config(v, e.rep_m, e.rep_k, e.rep_n)));
        const int saved = num_threads();
        set_num_threads(1);
        run_call(v, op, e.rep_m, e.rep_k, e.rep_n, &scratch);
        set_num_threads(saved);
      }
      const std::vector<float> ref = op.c;
      row.eligible = bitwise_eligible(v, e.rep_m, e.rep_k, e.rep_n, e.cfg, op,
                                      &scratch, ref);
      row.measured_gflops = measure_gflops(v, e.rep_m, e.rep_k, e.rep_n, e.cfg, op,
                                           &scratch, repeats, min_seconds);
      row.measured = true;
    }
    rows.push_back(row);
    if (opts.log) {
      *opts.log << "[verify] " << row.cls.key() << " " << cfg_str(row.cfg)
                << (row.eligible ? "" : " BITWISE-INELIGIBLE");
      if (row.measured) {
        *opts.log << " recorded " << row.recorded_gflops << " GF/s, measured "
                  << row.measured_gflops << " GF/s";
        if (row.drift() > 0.0) *opts.log << " (" << row.drift() << "x)";
      } else {
        *opts.log << " (no rep shape recorded; structural check only)";
      }
      *opts.log << "\n";
    }
  }
  return rows;
}

}  // namespace capr::tune
