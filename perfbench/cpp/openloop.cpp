#include "openloop.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <optional>
#include <random>

#include "tensor/alloc_stats.h"

namespace perfbench {

namespace {

using capr::serve::InferResult;
using capr::serve::RequestStatus;
using Clock = std::chrono::steady_clock;

struct Pending {
  std::future<InferResult> future;
  size_t sample = 0;
  Clock::time_point due;
  Clock::time_point submitted;
};

bool same_bits(const capr::Tensor& out, const capr::Tensor& ref) {
  return out.numel() == ref.numel() &&
         std::memcmp(out.data(), ref.data(), sizeof(float) * static_cast<size_t>(ref.numel())) ==
             0;
}

/// d += a - b, counter by counter.
void add_delta(capr::serve::ServerStats& d, const capr::serve::ServerStats& a,
               const capr::serve::ServerStats& b) {
  d.submitted += a.submitted - b.submitted;
  d.rejected += a.rejected - b.rejected;
  d.completed += a.completed - b.completed;
  d.timed_out += a.timed_out - b.timed_out;
  d.errored += a.errored - b.errored;
  d.unknown_model += a.unknown_model - b.unknown_model;
  d.batches += a.batches - b.batches;
  d.batched_samples += a.batched_samples - b.batched_samples;
}

}  // namespace

PhaseOutcome run_phase(capr::serve::InferenceServer& server, const SamplePool& pool,
                       const PhaseSpec& spec, Tracer& tracer, const char* name,
                       PhaseDetail* detail) {
  PhaseOutcome out;
  out.offered_qps = spec.rate_qps;

  // The schedule and the sample order come from the seed alone.
  std::mt19937_64 rng(spec.seed);
  std::exponential_distribution<double> gap(spec.rate_qps);
  std::uniform_int_distribution<size_t> pick(0, pool.samples.size() - 1);
  std::vector<double> offsets;
  std::vector<size_t> which;
  for (double t = gap(rng); t < spec.seconds; t += gap(rng)) {
    offsets.push_back(t);
    which.push_back(pick(rng));
  }
  // Requests are built before the phase so the generator only sends.
  std::vector<capr::Tensor> requests;
  requests.reserve(offsets.size());
  for (size_t k : which) requests.push_back(pool.samples[k]);

  std::vector<Pending> pending;
  pending.reserve(256);
  std::vector<double> lag_us;
  lag_us.reserve(offsets.size());
  Clock::time_point last_done{};
  const auto collect = [&](Pending& p) {
    InferResult r = p.future.get();
    const auto done = p.submitted + std::chrono::microseconds(r.latency_us);
    last_done = std::max(last_done, done);
    switch (r.status) {
      case RequestStatus::kOk:
        if (!same_bits(r.output, pool.reference[p.sample])) {
          ++out.mismatched;
          break;
        }
        ++out.ok;
        out.latency_ms.push_back(std::chrono::duration<double, std::milli>(done - p.due).count());
        detail->server_latency_us.push_back(static_cast<double>(r.latency_us));
        break;
      case RequestStatus::kTimeout: ++out.timed_out; break;
      default: ++out.errored; break;
    }
  };
  const auto poll = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        collect(pending[i]);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  const auto stats_before = server.stats();
  const uint64_t allocs_before = capr::float_alloc_count();
  const auto phase_start = Clock::now();
  const int64_t phase_span = tracer.begin(name, phase_start);
  const auto start = phase_start + std::chrono::milliseconds(1);
  for (size_t i = 0; i < offsets.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets[i]));
    // Spin rather than sleep: waking from a sleep is late by hundreds of
    // microseconds on a virtual machine, and the generator has its own CPU.
    while (Clock::now() < due) {
      poll();
      __builtin_ia32_pause();
    }
    const auto submitted = Clock::now();
    std::optional<std::future<InferResult>> f = server.try_submit(std::move(requests[i]));
    if (tracer.on()) {
      const auto after = Clock::now();
      tracer.add("serve.try_submit", submitted, after, phase_span, static_cast<int64_t>(i));
      detail->submit_us.push_back(
          std::chrono::duration<double, std::micro>(after - submitted).count());
    }
    lag_us.push_back(std::chrono::duration<double, std::micro>(submitted - due).count());
    ++out.sent;
    if (!f) {
      ++out.shed;
      continue;
    }
    pending.push_back({std::move(*f), which[i], due, submitted});
  }
  const auto last_due =
      offsets.empty() ? start
                      : start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(offsets.back()));
  const auto drain_deadline = last_due + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double, std::milli>(
                                                 spec.drain_limit_ms));
  while (!pending.empty() && Clock::now() < drain_deadline) poll();
  out.drained = pending.empty();
  for (Pending& p : pending) collect(p);  // blocks until the backlog resolves
  pending.clear();
  out.drain_ms = std::max(
      0.0, std::chrono::duration<double, std::milli>(last_done - last_due).count());
  out.lag_p50_us = lag_us.empty() ? 0.0 : percentile(lag_us, 0.5);
  out.lag_p99_us = lag_us.empty() ? 0.0 : percentile(lag_us, 0.99);
  detail->float_allocs += capr::float_alloc_count() - allocs_before;
  add_delta(detail->stats_delta, server.stats(), stats_before);
  tracer.end(phase_span, Clock::now());
  return out;
}

}  // namespace perfbench
