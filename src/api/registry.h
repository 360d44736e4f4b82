// Name lookup for the unified solvers (api/solver.h).
//
// Built-in names:
//   "base"    — greedy with brute-force gain computation (Algorithm 2)
//   "base+"   — greedy with upward-route follower search (paper §IV)
//   "gas"     — greedy with follower search + component-tree reuse (Alg. 6)
//   "exact"   — exhaustive b-subset enumeration (Exp-2)
//   "rand"    — best of N uniform draws over all edges
//   "sup"     — best of N draws over the top-20% edges by support
//   "tur"     — best of N draws over the top-20% edges by route size
//   "akt:<k>" — AKT vertex anchoring at level k (Zhang et al., ICDE 2018),
//               e.g. "akt:5"; k must be an integer >= 3
//
// The set is fixed at compile time (the table lives in api/solvers.cc);
// names are case-sensitive. Both entry points read only constant data and
// may be called concurrently from any thread.

#ifndef ATR_API_REGISTRY_H_
#define ATR_API_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "util/status.h"

namespace atr {

class SolverRegistry {
 public:
  // Creates the built-in solver named `name`. Unknown names return
  // NotFound listing the known solvers; malformed parameterized names
  // (e.g. "akt:x") return InvalidArgument.
  static StatusOr<std::unique_ptr<Solver>> Create(const std::string& name);

  // The built-in names, sorted; the parameterized entry is listed as
  // "akt:<k>".
  static std::vector<std::string> KnownSolvers();
};

}  // namespace atr

#endif  // ATR_API_REGISTRY_H_
