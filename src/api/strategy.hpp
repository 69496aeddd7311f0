#pragma once
// Pluggable solver strategies — the open-ended dispatch surface of the
// public API.
//
// A SolverStrategy couples a stable name, a structural applicability
// predicate over dag::DagReport, and the solve itself. A StrategyRegistry
// owns an ordered collection of strategies: the four built-ins (Theorem 1,
// split-merge, DSATUR, exact) always occupy ids 0..3, user strategies are
// appended after them, and dispatch picks the first applicable strategy
// scanning user strategies newest-first before the built-ins — so a
// registered backend can take over exactly the hosts it declares itself
// applicable to, without touching the dispatch code.
//
// solve_with() is the canonical solve pipeline shared by every entry
// point (api::Engine, core::solve_rwa, the batch drivers): classify,
// dispatch (or force), run the strategy, optionally certify with the
// exact solver, validate.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/request.hpp"
#include "core/solver.hpp"
#include "dag/classify.hpp"
#include "paths/family.hpp"

namespace wdag::api {

using core::StrategyId;

/// What a strategy hands back to the pipeline. `coloring` must be a valid
/// wavelength assignment of the family using `wavelengths` colors.
struct StrategyResult {
  conflict::Coloring coloring;
  std::size_t wavelengths = 0;
  /// pi(G,P) when the strategy computed it as a byproduct (the structural
  /// colorers do); solve_with computes it otherwise.
  std::optional<std::size_t> load;
  /// True when the strategy itself proves minimality. solve_with
  /// additionally upgrades the verdict whenever wavelengths == load.
  bool optimal = false;
  /// Optional diagnostic surfaced as SolveResponse::diagnostics.
  std::string note;
};

/// Per-call context handed to SolverStrategy::solve.
struct StrategyContext {
  /// Classification of family.graph(), computed once by the pipeline.
  const dag::DagReport& report;
  /// Solver knobs of the request.
  const core::SolveOptions& options;
  /// Per-worker scratch arena; reuse its buffers instead of allocating.
  core::SolveScratch& scratch;
  /// Ignored since 0.5.0: the structural strategies check their
  /// preconditions on `report`, and solve_with re-validates every forced
  /// result. Kept so aggregate initializers that still set it compile;
  /// see the README migration table.
  bool preverified = false;
};

/// A wavelength-assignment backend. Implementations must be stateless or
/// internally synchronized: the batch engine calls solve() concurrently
/// from many workers (per-call mutable state belongs in ctx.scratch).
class SolverStrategy {
 public:
  virtual ~SolverStrategy() = default;

  /// Stable display name, unique within a registry; appears in reports,
  /// CSV rows and --force.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when this strategy can solve hosts matching `report`. dispatch()
  /// runs the first applicable strategy; strategies reachable only by
  /// force or certification (like the built-in exact solver) return false.
  [[nodiscard]] virtual bool applicable(const dag::DagReport& report) const = 0;

  /// Solves `family`; see StrategyResult for the contract.
  [[nodiscard]] virtual StrategyResult solve(const paths::DipathFamily& family,
                                             const StrategyContext& ctx) const = 0;

  /// True when solve() already validates its colorings before returning;
  /// the pipeline then skips its own re-validation on dispatched solves
  /// (a forced solve is always re-validated). Defaults to false, so user
  /// strategies are always cross-checked.
  [[nodiscard]] virtual bool self_validating() const { return false; }
};

/// Ordered, name-unique collection of strategies with dispatch.
class StrategyRegistry {
 public:
  /// Starts with the four built-ins at their fixed ids 0..3.
  StrategyRegistry();
  StrategyRegistry(StrategyRegistry&&) = default;
  StrategyRegistry& operator=(StrategyRegistry&&) = default;

  /// Registers a strategy and returns its id (dense, in registration
  /// order after the built-ins). Newly added strategies take dispatch
  /// precedence over everything registered before them. Throws
  /// wdag::InvalidArgument on a duplicate or empty name.
  StrategyId add(std::unique_ptr<SolverStrategy> strategy);

  [[nodiscard]] std::size_t size() const { return strategies_.size(); }
  [[nodiscard]] const SolverStrategy& at(StrategyId id) const;
  /// Id of the strategy with the given name, if registered.
  [[nodiscard]] std::optional<StrategyId> find(std::string_view name) const;
  /// Display names, indexed by StrategyId.
  [[nodiscard]] std::vector<std::string> names() const;

  /// First applicable strategy in dispatch order: user strategies newest
  /// first, then theorem1 / split-merge / dsatur. Throws wdag::DomainError
  /// when nothing applies (non-DAG hosts).
  [[nodiscard]] StrategyId dispatch(const dag::DagReport& report) const;

 private:
  std::vector<std::unique_ptr<SolverStrategy>> strategies_;
  std::vector<StrategyId> dispatch_order_;
};

/// The shared registry holding only the built-ins; backs the core batch
/// drivers and core::solve_rwa.
const StrategyRegistry& builtin_registry();

/// The canonical solve pipeline over a registry: classify, dispatch (or
/// run `force`), solve, certify small non-optimal results with the exact
/// strategy, validate forced and non-self-validating outcomes. `scratch`
/// may be null (a thread-local arena is used).
SolveResponse solve_with(const StrategyRegistry& registry,
                         const paths::DipathFamily& family,
                         const core::SolveOptions& options,
                         std::optional<StrategyId> force = std::nullopt,
                         core::SolveScratch* scratch = nullptr);

/// solve_with into a pre-allocated batch entry slot; never throws
/// (failures are captured into the entry). Engine::run_batch's
/// entry-filling step.
void solve_into_entry(core::BatchEntry& entry,
                      const StrategyRegistry& registry,
                      const paths::DipathFamily& family,
                      const core::SolveOptions& options,
                      std::optional<StrategyId> force,
                      core::SolveScratch& scratch, bool keep_coloring);

}  // namespace wdag::api
