#include "api/engine.h"

namespace atr {

const TrussDecomposition& AtrEngine::Decomposition() {
  if (!decomposition_.has_value()) {
    decomposition_ = ComputeTrussDecomposition(*graph_);
    ++decomposition_builds_;
  }
  return *decomposition_;
}

StatusOr<SolveResult> AtrEngine::Run(const std::string& solver,
                                     const SolverOptions& options) {
  Status name = CheckSolverName(solver);
  if (!name.ok()) return name;
  return Solve(*graph_, Decomposition(), solver, options);
}

StatusOr<SolveResult> AtrEngine::RunSweep(
    const std::string& solver, const std::vector<uint32_t>& checkpoints,
    SolverOptions options) {
  if (checkpoints.empty()) {
    return Status::InvalidArgument("RunSweep: checkpoints must be non-empty");
  }
  options.budget = checkpoints.back();
  options.budget_checkpoints = checkpoints;
  return Run(solver, options);
}

}  // namespace atr
