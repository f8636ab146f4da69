#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the sample at or below it.
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
  return values[rank - 1];
}

bool percentile_supported(size_t n, double q) {
  // Round before comparing so 1000 * (1 - 0.99) counts as 10.
  return std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9) >= 10.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lower_quartile(const std::vector<double>& values) { return percentile(values, 0.25); }

void merge(PhaseOutcome& into, const PhaseOutcome& w) {
  into.offered_qps = w.offered_qps;
  into.sent += w.sent;
  into.ok += w.ok;
  into.shed += w.shed;
  into.timed_out += w.timed_out;
  into.errored += w.errored;
  into.mismatched += w.mismatched;
  into.latency_ms.insert(into.latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
  into.lag_p50_us = std::max(into.lag_p50_us, w.lag_p50_us);
  into.lag_p99_us = std::max(into.lag_p99_us, w.lag_p99_us);
  into.drain_ms = std::max(into.drain_ms, w.drain_ms);
  into.drained = into.drained && w.drained;
}

int64_t failures(const PhaseOutcome& p) {
  return p.shed + p.timed_out + p.errored + p.mismatched;
}

double fail_frac(const PhaseOutcome& p) {
  return p.sent > 0 ? static_cast<double>(failures(p)) / static_cast<double>(p.sent) : 0.0;
}

double slo_percentile(const PhaseOutcome& p, double q) {
  if (!percentile_supported(static_cast<size_t>(p.sent), q)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> all = p.latency_ms;
  all.resize(static_cast<size_t>(p.sent), std::numeric_limits<double>::infinity());
  return percentile(std::move(all), q);
}

bool generator_valid(const PhaseOutcome& p) {
  return p.lag_p50_us <= kMaxLagP50Us && p.lag_p99_us <= kMaxLagP99Us;
}

std::string slo_miss_reason(const PhaseOutcome& p, const Slo& slo) {
  if (!generator_valid(p)) return "invalid: generator lag";
  if (!p.drained) return "backlog did not drain";
  if (fail_frac(p) > slo.max_fail_frac) return "fail_frac over limit";
  const double p99 = slo_percentile(p, 0.99);
  if (std::isnan(p99)) return "too few requests for p99";
  if (p99 > slo.p99_ms) return "p99 over limit";
  return "";
}

LadderResult search_ladder(const std::vector<double>& ladder,
                           const std::function<bool(double)>& passes,
                           const std::function<bool(int)>& more) {
  LadderResult r;
  const int top = static_cast<int>(ladder.size()) - 1;
  const auto probe = [&](int rung) {
    const bool ok = passes(ladder[static_cast<size_t>(rung)]);
    r.probes.emplace_back(rung, ok);
    return ok;
  };
  // Binary search for the start. Invariant: lo passed (-1: none yet), hi
  // missed (top + 1: none yet).
  int lo = -1;
  int hi = top + 1;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (probe(mid) ? lo : hi) = mid;
  }
  // Staircase from the highest rung that passed.
  int rung = std::max(lo, 0);
  bool missed = false, capped = false;
  std::vector<int> before_miss, after_miss;  // rungs of passing windows
  for (int k = 0; more(k); ++k) {
    if (probe(rung)) {
      capped = capped || rung == top;
      (missed ? after_miss : before_miss).push_back(rung);
      rung = std::min(rung + 1, top);
    } else {
      missed = true;
      rung = std::max(rung - 1, 0);
    }
  }
  const std::vector<int>& used = after_miss.empty() ? before_miss : after_miss;
  if (capped) {
    r.kind = LadderResult::Kind::kCapped;
    r.qps = ladder[static_cast<size_t>(top)];
  } else if (used.empty()) {
    r.kind = LadderResult::Kind::kBelowLadder;
  } else {
    double log_sum = 0.0;
    for (int u : used) log_sum += std::log(ladder[static_cast<size_t>(u)]);
    r.qps = std::exp(log_sum / static_cast<double>(used.size()));
  }
  return r;
}

const char* to_string(LadderResult::Kind kind) {
  switch (kind) {
    case LadderResult::Kind::kFound: return "found";
    case LadderResult::Kind::kCapped: return "capped";
    case LadderResult::Kind::kBelowLadder: return "below-ladder";
  }
  return "unknown";
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(bool correct, int64_t attempted, int64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += quote(name) + ": {\"value\": " + format_number(m.value) +
           ", \"unit\": " + quote(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
