// End-to-end tests of the class-aware pruning framework (Fig. 5 loop)
// through the shared driver: strategy::run_strategy with
// ClassAwareStrategy, including recovery rounds and rollback.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <tuple>

#include "data/synthetic.h"
#include "models/builders.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

namespace capr::strategy {
namespace {

struct Pipeline {
  models::BuildConfig mcfg;
  nn::Model model;
  data::SyntheticCifar data;

  explicit Pipeline(const char* arch = "tiny") {
    mcfg.num_classes = 4;
    mcfg.input_size = 8;
    mcfg.width_mult = 0.5f;
    model = models::make_model(arch, mcfg);

    data::SyntheticCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 16;
    dcfg.test_per_class = 8;
    dcfg.image_size = 8;
    dcfg.noise_stddev = 0.1f;
    data = data::make_synthetic_cifar(dcfg);

    // Pre-train with the modified cost, as the framework prescribes.
    nn::TrainConfig tcfg;
    tcfg.epochs = 10;
    tcfg.batch_size = 16;
    tcfg.sgd.lr = 0.05f;
    core::ModifiedLoss reg;
    nn::train(model, data.train, tcfg, &reg);
  }

  static ClassAwareStrategyConfig class_aware_config() {
    ClassAwareStrategyConfig cfg;
    cfg.importance.images_per_class = 4;
    return cfg;
  }

  static StrategyRunConfig run_config() {
    StrategyRunConfig cfg;
    cfg.limits.min_filters_per_layer = 2;
    cfg.limits.max_fraction_per_iter = 0.2f;
    cfg.finetune.epochs = 3;
    cfg.finetune.batch_size = 16;
    cfg.finetune.sgd.lr = 0.02f;
    cfg.max_accuracy_drop = 0.25f;
    cfg.recovery_rounds = 2;
    cfg.max_iterations = 4;
    return cfg;
  }

  StrategyRunResult run(const StrategyRunConfig& cfg,
                        const ClassAwareStrategyConfig& ccfg = class_aware_config()) {
    ClassAwareStrategy strat(ccfg);
    return run_strategy(model, strat, data.train, data.test, cfg);
  }
};

bool bitwise_equal(const std::map<std::string, Tensor>& a,
                   const std::map<std::string, Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, ta] : a) {
    const auto it = b.find(key);
    if (it == b.end() || ta.shape() != it->second.shape()) return false;
    if (std::memcmp(ta.data(), it->second.data(),
                    sizeof(float) * static_cast<size_t>(ta.numel())) != 0) {
      return false;
    }
  }
  return true;
}

TEST(ClassAwareRunTest, PrunesAndReportsOnTinyCnn) {
  Pipeline p;
  const StrategyRunResult res = p.run(Pipeline::run_config());

  EXPECT_EQ(res.method, "class-aware");
  EXPECT_GT(res.original_accuracy, 0.5f);
  EXPECT_GT(res.iterations_run, 0);
  EXPECT_GT(res.filters_removed, 0);
  EXPECT_GT(res.report.pruning_ratio(), 0.0);
  EXPECT_GT(res.report.flops_reduction(), 0.0);
  EXPECT_LT(res.report.params_after, res.report.params_before);
  EXPECT_FALSE(res.stop_reason.empty());
}

TEST(ClassAwareRunTest, IterationRecordsAreMonotone) {
  Pipeline p;
  std::vector<core::IterationRecord> records;
  StrategyRunConfig cfg = Pipeline::run_config();
  cfg.on_iteration = [&](const core::IterationRecord& r) { records.push_back(r); };
  const StrategyRunResult res = p.run(cfg);
  ASSERT_EQ(static_cast<int>(records.size()), res.iterations_run);
  int64_t last_params = res.report.params_before;
  int64_t last_filters = std::numeric_limits<int64_t>::max();
  int64_t removed = 0;
  for (const core::IterationRecord& r : records) {
    EXPECT_GT(r.filters_removed, 0);
    EXPECT_LT(r.params, last_params);
    EXPECT_LT(r.filters_remaining, last_filters);
    last_params = r.params;
    last_filters = r.filters_remaining;
    removed += r.filters_removed;
  }
  EXPECT_EQ(removed, res.filters_removed);
}

TEST(ClassAwareRunTest, ModelStillFunctionalAfterRun) {
  Pipeline p;
  p.run(Pipeline::run_config());
  const Tensor x = p.data.test.slice(0, 4).images;
  const Tensor logits = p.model.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{4, 4}));
  // All prunable units still satisfy their metadata invariants.
  for (const nn::PrunableUnit& u : p.model.units) {
    EXPECT_GE(u.conv->out_channels(), 2);
    if (u.bn != nullptr) {
      EXPECT_EQ(u.bn->channels(), u.conv->out_channels());
    }
  }
}

TEST(ClassAwareRunTest, StrictDropBoundStopsEarly) {
  Pipeline p;
  StrategyRunConfig cfg = Pipeline::run_config();
  cfg.max_accuracy_drop = -1.0f;  // any drop (even negative) exceeds this
  const StrategyRunResult res = p.run(cfg);
  EXPECT_EQ(res.iterations_run, 1);
  EXPECT_EQ(res.stop_reason, "accuracy drop not recovered by fine-tuning");
}

TEST(ClassAwareRunTest, WorksOnResnetWithBlockConstraint) {
  Pipeline p("resnet20");
  StrategyRunConfig cfg = Pipeline::run_config();
  cfg.max_iterations = 2;
  // Percentage mode guarantees removals even when every filter clears the
  // score threshold (common on well-trained tiny nets); this test checks
  // the residual-block surgery constraint, not the threshold rule.
  ClassAwareStrategyConfig ccfg = Pipeline::class_aware_config();
  ccfg.mode = core::StrategyMode::kPercentage;
  const StrategyRunResult res = p.run(cfg, ccfg);
  EXPECT_GT(res.report.pruning_ratio(), 0.0);
  // Residual adds still legal: conv2 out-channels unchanged per block.
  const Tensor x = p.data.test.slice(0, 2).images;
  EXPECT_NO_THROW(p.model.forward(x, false));
}

TEST(ClassAwareRunTest, DeterministicEndToEnd) {
  auto run_once = [] {
    Pipeline p;
    const StrategyRunResult res = p.run(Pipeline::run_config());
    return std::tuple{res.final_accuracy, res.report.params_after, res.iterations_run};
  };
  EXPECT_EQ(run_once(), run_once());
}

// A first iteration that cannot meet the bound is rolled back: the
// returned model is bitwise the input, and the result describes it.
TEST(RollbackTest, FailedFirstIterationRestoresInputBitwise) {
  Pipeline p;
  const std::map<std::string, Tensor> input = p.model.state_dict();
  StrategyRunConfig cfg = Pipeline::run_config();
  cfg.max_accuracy_drop = -1.0f;  // the first iteration always fails
  const models::BuildConfig mcfg = p.mcfg;
  cfg.model_factory = [mcfg] { return models::make_model("tiny", mcfg); };
  const StrategyRunResult res = p.run(cfg);

  EXPECT_TRUE(bitwise_equal(p.model.state_dict(), input));
  EXPECT_EQ(res.filters_removed, 0);
  EXPECT_EQ(res.iterations_run, 0);
  EXPECT_NE(res.stop_reason.find("rolled back"), std::string::npos);
  EXPECT_EQ(res.final_accuracy, res.original_accuracy);
  EXPECT_DOUBLE_EQ(res.report.pruning_ratio(), 0.0);
}

/// Plain-CE strategy whose regularizer only counts its apply() calls
/// (one per optimizer step).
class CountingStrategy final : public PruneStrategy {
 public:
  std::string name() const override { return "counting"; }
  ScoreSet score(const StrategyContext& ctx) override {
    UnitFilterScores out;
    for (const nn::PrunableUnit& u : ctx.model.units) {
      std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
      for (size_t f = 0; f < s.size(); ++f) s[f] = static_cast<float>(f);
      out.push_back(std::move(s));
    }
    return admitted_scores(ctx, std::move(out));
  }
  nn::Regularizer* train_regularizer() override { return &counter_; }
  int64_t applies() const { return counter_.calls; }

 private:
  struct Counter final : nn::Regularizer {
    int64_t calls = 0;
    float apply(nn::Model&) override {
      ++calls;
      return 0.0f;
    }
  };
  Counter counter_;
};

// recovery_rounds = k spends exactly k extra fine-tunes on an iteration
// that never meets the bound.
TEST(RecoveryTest, RecoveryRoundsRunExactlyKExtraFinetunes) {
  Pipeline p;
  StrategyRunConfig cfg = Pipeline::run_config();
  cfg.max_iterations = 1;
  cfg.finetune.epochs = 1;
  cfg.max_accuracy_drop = -1.0f;  // unrecoverable: every round is spent

  const auto applies_with = [&](int rounds) {
    nn::Model m = models::make_model("tiny", p.mcfg);
    m.load_state_dict(p.model.state_dict());
    StrategyRunConfig c = cfg;
    c.recovery_rounds = rounds;
    CountingStrategy strat;
    run_strategy(m, strat, p.data.train, p.data.test, c);
    return strat.applies();
  };
  const int64_t per_finetune = applies_with(0);
  ASSERT_GT(per_finetune, 0);
  for (int k : {1, 3}) {
    EXPECT_EQ(applies_with(k), per_finetune * (1 + k)) << "recovery_rounds=" << k;
  }
}

}  // namespace
}  // namespace capr::strategy
