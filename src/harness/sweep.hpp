// Parallel experiment engine: executes a grid of RunSpecs on a pool of
// worker threads.
//
// Each run executes inside its own isolated obs::Context (installed by
// execute() itself, see runner.cpp), so per-run metrics, traces, and
// fallback counters never interleave and results are byte-identical to
// sequential execution per (spec, seed) — the only nondeterministic fields
// are the wall-clock ones (aa.safe_area_us) that are nondeterministic even
// serially. Every figure/table reproduction is a grid of independent
// simulator runs, which makes this embarrassingly parallel: the engine
// turns minutes-serial sweeps into seconds at hardware concurrency.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace hydra::harness {

/// Resolves a --jobs value: 0 means one worker per hardware thread (and at
/// least 1 when hardware_concurrency is unknown).
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs) noexcept;

/// Invoked after each run completes. Calls are serialized under an internal
/// lock (so the callback may touch shared state freely) but arrive in
/// completion order, not input order.
using SweepProgressFn = std::function<void(std::size_t index, const RunResult&)>;

/// Executes every spec in `grid` and returns the results in input order.
/// `jobs` = 1 runs inline on the calling thread; otherwise a pool of
/// min(resolve_jobs(jobs), grid.size()) workers executes the grid
/// concurrently, each claiming the next unrun spec from one shared counter,
/// so a few expensive cells (large n, async networks) cannot serialize the
/// sweep.
[[nodiscard]] std::vector<RunResult> run_sweep(const std::vector<RunSpec>& grid,
                                               std::size_t jobs = 0,
                                               const SweepProgressFn& on_done = {});

/// Aggregates over one distinct cell — every spec field except the seed.
/// `indices` point into the grid/results arrays (seed order).
struct SweepCell {
  RunSpec spec;  ///< representative spec (first seed seen)
  std::vector<std::size_t> indices;
  std::size_t passed = 0;
  std::vector<std::uint64_t> failed_seeds;
};

/// Groups (grid, results) into per-cell aggregates, in first-appearance
/// order. Exposed for tests and custom reporters.
[[nodiscard]] std::vector<SweepCell> group_cells(const std::vector<RunSpec>& grid,
                                                 const std::vector<RunResult>& results);

/// Writes the merged sweep summary JSON: per-cell aggregates (pass counts,
/// rounds/messages/output-diameter stats, fallback totals, invariant-monitor
/// violation/abort counts, thread-backend timeout/progress totals) plus a
/// flat failure list of (cell, seed) and a top-level `monitor_violations`
/// total. Logs an error and returns false
/// when the path cannot be opened.
bool write_sweep_summary_json(const std::string& path,
                              const std::vector<RunSpec>& grid,
                              const std::vector<RunResult>& results,
                              std::size_t jobs);

}  // namespace hydra::harness
