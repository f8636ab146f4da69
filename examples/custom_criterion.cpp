// Extending the framework with a custom pruning criterion.
//
//   $ ./build/examples/custom_criterion
//
// strategy::PruneStrategy is the extension point: implement name() and
// score() (and optionally train_regularizer()) and the method runs
// through the same strategy::run_strategy loop as every built-in one.
// Here we add a deliberately bad RandomStrategy and race it against L1
// and the class-aware method — a useful sanity harness when developing
// new criteria, because any criterion worth keeping must beat random.
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/magnitude.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"
#include "tensor/rng.h"

namespace {

using namespace capr;

/// Assigns every filter a random importance — the control condition.
class RandomStrategy final : public strategy::PruneStrategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "Random"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override {
    strategy::UnitFilterScores out;
    for (const nn::PrunableUnit& u : ctx.model.units) {
      std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
      for (float& v : s) v = rng_.uniform();
      out.push_back(std::move(s));
    }
    // Keep only the units the model graph admits as prunable.
    return strategy::admitted_scores(ctx, std::move(out));
  }

 private:
  Rng rng_;
};

}  // namespace

int main() {
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 6;
  dcfg.train_per_class = 24;
  dcfg.test_per_class = 12;
  dcfg.image_size = 12;
  dcfg.noise_stddev = 0.3f;
  const data::SyntheticCifar dataset = data::make_synthetic_cifar(dcfg);

  models::BuildConfig mcfg;
  mcfg.num_classes = 6;
  mcfg.input_size = 12;
  mcfg.width_mult = 0.5f;

  const auto fresh_trained = [&] {
    nn::Model m = models::make_tiny_cnn(mcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.batch_size = 24;
    tcfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 5e-4f};
    core::ModifiedLoss reg;
    nn::train(m, dataset.train, tcfg, &reg);
    return m;
  };

  // One loop config for every method: same caps, budget and stop rule.
  strategy::StrategyRunConfig rcfg;
  rcfg.limits.max_fraction_per_iter = 0.25f;
  rcfg.max_iterations = 3;
  rcfg.max_accuracy_drop = 0.10f;
  rcfg.finetune.epochs = 2;
  rcfg.finetune.batch_size = 24;
  rcfg.finetune.sgd.lr = 0.02f;

  strategy::ClassAwareStrategyConfig ccfg;
  ccfg.importance.images_per_class = 6;
  ccfg.importance.tau_mode = core::TauMode::kQuantile;
  ccfg.mode = core::StrategyMode::kPercentage;  // matched budget

  std::vector<std::unique_ptr<strategy::PruneStrategy>> methods;
  methods.push_back(std::make_unique<RandomStrategy>(7));
  methods.push_back(std::make_unique<baselines::L1Criterion>());
  methods.push_back(std::make_unique<strategy::ClassAwareStrategy>(ccfg));

  std::cout << "criterion comparison (same pruning driver, same budget):\n";
  for (const auto& method : methods) {
    nn::Model m = fresh_trained();
    const auto res = strategy::run_strategy(m, *method, dataset.train, dataset.test, rcfg);
    std::cout << "  " << res.method << ": " << res.original_accuracy * 100 << "% -> "
              << res.final_accuracy * 100 << "% at ratio "
              << res.report.pruning_ratio() * 100 << "%\n";
  }
  return 0;
}
