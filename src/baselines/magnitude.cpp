#include "baselines/magnitude.h"

#include <cmath>

namespace capr::baselines {
namespace {

/// Sum over one out-channel slice of a conv weight: |w| (p=1) or w^2 (p=2).
double filter_reduce(const nn::Conv2d& conv, int64_t filter, int p) {
  const int64_t fsz = conv.in_channels() * conv.kernel() * conv.kernel();
  const float* w = conv.weight().value.data() + filter * fsz;
  double acc = 0.0;
  for (int64_t i = 0; i < fsz; ++i) {
    acc += p == 1 ? std::fabs(w[i]) : static_cast<double>(w[i]) * w[i];
  }
  return acc;
}

}  // namespace

strategy::ScoreSet L1Criterion::score(const strategy::StrategyContext& ctx) {
  strategy::UnitFilterScores out;
  for (const nn::PrunableUnit& u : ctx.model.units) {
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      s[static_cast<size_t>(f)] = static_cast<float>(filter_reduce(*u.conv, f, 1));
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, std::move(out));
}

strategy::ScoreSet L2Criterion::score(const strategy::StrategyContext& ctx) {
  strategy::UnitFilterScores out;
  for (const nn::PrunableUnit& u : ctx.model.units) {
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      s[static_cast<size_t>(f)] = static_cast<float>(std::sqrt(filter_reduce(*u.conv, f, 2)));
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, std::move(out));
}

}  // namespace capr::baselines
