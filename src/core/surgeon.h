// Structural filter removal.
//
// Removing output filter c of a prunable conv requires coordinated edits:
//   - drop row c of the conv weight (and bias),
//   - drop channel c of the following BatchNorm,
//   - drop input channel c of every consumer conv, or the feature block
//     [c*spatial, (c+1)*spatial) of every consumer linear.
// The surgeon re-derives these couplings from the model's graph
// (graph::CouplingGroup) on every call, never from the hand annotations,
// and keeps the model's invariants (a forward pass stays shape-legal
// after every operation).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "nn/model.h"

namespace capr::core {

/// Checked-mode hook: certifies a plan structurally BEFORE any mutation,
/// throwing to reject it. Installed by analysis::enable_checked_mode()
/// (the static analyzer lives above core in the layering, so core only
/// knows the hook). Cap and floor checks need the strategy semantics, so
/// strategy::run_strategy certifies those itself.
using PlanValidator =
    std::function<void(nn::Model&, const std::vector<UnitSelection>&)>;

/// Installs (or, with an empty function, clears) the global validator.
void set_plan_validator(PlanValidator validator);

/// The installed validator; empty when checked mode is off.
const PlanValidator& plan_validator();

/// Removes the selected filters from one unit. Throws on invalid indices
/// or if the removal would empty the layer. This is the raw primitive —
/// it does NOT consult the plan validator (checkpoint reload shrinks
/// already-certified shapes through it).
void remove_filters(nn::Model& model, size_t unit_index, const std::vector<int64_t>& filters);

/// Applies a whole selection (all units). Returns number of filters
/// removed. In checked mode the whole plan is certified before the
/// first mutation, so a rejected plan leaves the model untouched.
int64_t apply_selection(nn::Model& model, const std::vector<UnitSelection>& selection);

/// Total number of filters across all prunable units.
int64_t total_prunable_filters(const nn::Model& model);

/// Loads a (possibly pruned) checkpoint into a freshly built model:
/// shrinks every prunable unit until its filter count matches the conv
/// weights in `dict`, then load_state_dict's the whole map. Throws
/// std::runtime_error when the checkpoint names layers the architecture
/// lacks or carries more filters than the architecture has. Shared by capr-analyze, the
/// serving runtime's InferenceSession::from_checkpoint and
/// strategy::run_strategy's rollback.
void load_pruned_checkpoint(nn::Model& model, const std::map<std::string, Tensor>& dict);

}  // namespace capr::core
