// Reproduces paper Fig. 6: comparison of the proposed class-aware pruning
// against prior criteria — L1 [23], SSS [27], HRank [19], TPP [18],
// OrthConv [31], DepGraph full/no grouping [13] — plus the Taylor-FO and
// APoZ criteria that motivate them, on Top-1 accuracy, pruning ratio and
// FLOPs reduction.
//
// Every method starts from the same pre-trained checkpoint and runs
// through strategy::run_strategy under ONE StrategyRunConfig: the same
// caps, fine-tuning schedule, recovery rounds, stop rule and rollback,
// so differences come from the selection criterion (and the method's own
// training regularizer) alone.
//
// The paper's claim: class-aware pruning reaches the highest accuracy at
// comparable (or better) pruning ratio / FLOPs reduction in most cases.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/activation.h"
#include "baselines/magnitude.h"
#include "baselines/regularized.h"
#include "report/experiment.h"
#include "report/table.h"
#include "strategy/competitors.h"

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Figure 6", "comparison with previous pruning methods");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  // Micro scale compares on VGG16-C10 only (time budget on one core);
  // small/full also run the ResNet56 panel.
  std::vector<const char*> archs{"vgg16", "resnet56"};
  if (scale.name == "smoke") {
    archs = {"vgg16"};
  } else if (scale.name == "micro") {
    archs = {"vgg16"};
    std::cout << "(micro scale: VGG16-C10 panel only; CAPR_SCALE=small adds ResNet56)\n\n";
  }
  for (const char* arch : archs) {
    std::cout << "=== " << arch << "-C10 ===\n";
    std::cout << "pre-training shared checkpoint ..." << std::endl;
    report::Workbench wb = report::prepare_workbench(arch, 10, scale);
    const auto checkpoint = wb.model.state_dict();
    std::cout << "  original accuracy " << report::pct(wb.pretrained_accuracy) << "\n";

    const auto rebuild = [&] {
      wb.model = wb.factory();
      wb.model.load_state_dict(checkpoint);
    };

    report::Table table(
        {"Method", "Acc pruned", "Drop", "Prun. ratio", "FLOPs red.", "Filters rm.", "Iters"});

    const int64_t m = scale.images_per_class_scoring;
    std::vector<std::pair<std::string, std::unique_ptr<strategy::PruneStrategy>>> methods;
    methods.emplace_back("Class-Aware (ours)", std::make_unique<strategy::ClassAwareStrategy>(
                                                   report::class_aware_config(scale)));
    methods.emplace_back("L1", std::make_unique<baselines::L1Criterion>());
    methods.emplace_back("SSS", std::make_unique<baselines::SSSCriterion>());
    methods.emplace_back("HRank", std::make_unique<baselines::HRankCriterion>(m));
    methods.emplace_back("TPP", std::make_unique<baselines::TPPCriterion>(m));
    methods.emplace_back("OrthConv", std::make_unique<baselines::OrthConvCriterion>());
    // DepGraph [13] with full grouping scores the whole coupled channel;
    // with no grouping, the producer's out-channel L2 norm alone.
    methods.emplace_back("DepGraph-FG", std::make_unique<strategy::DependencyAwareStrategy>());
    methods.emplace_back("DepGraph-NG", std::make_unique<baselines::L2Criterion>());
    methods.emplace_back("Taylor-FO", std::make_unique<baselines::TaylorFOCriterion>(m));
    methods.emplace_back("APoZ", std::make_unique<baselines::APoZCriterion>(m));

    strategy::StrategyRunConfig cfg = report::run_config(scale);
    cfg.model_factory = wb.factory;
    for (auto& [label, strat] : methods) {
      std::cout << "running " << label << " ..." << std::endl;
      rebuild();
      const strategy::StrategyRunResult res =
          strategy::run_strategy(wb.model, *strat, wb.data.train, wb.data.test, cfg);
      table.add_row({label, report::pct(res.final_accuracy),
                     report::pct(res.final_accuracy - res.original_accuracy),
                     report::pct(res.report.pruning_ratio()),
                     report::pct(res.report.flops_reduction()),
                     std::to_string(res.filters_removed), std::to_string(res.iterations_run)});
    }
    std::cout << "\n" << table.render() << "\n";
  }
  std::cout << "Paper reference points (Fig. 6, VGG16-C10): ours 93.2% acc @ 94.8%\n"
               "ratio / 71.8% FLOPs; L1 93.3% @ 64%/34%; SSS 93.0% @ 74%/37%;\n"
               "HRank 92.3% @ 82.9%/53.5%; DepGraph ~93.5% @ ~80%/~55%.\n"
               "Expected shape: the class-aware row attains the best or near-best\n"
               "accuracy at the largest pruning ratio.\n";
  return 0;
}
