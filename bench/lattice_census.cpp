// Lattice census: how much of each epoch's cluster lattice reaches the
// §3.1 session floor.  For every epoch of a columnar trace it expands the
// leaf fold twice — the full lattice and the significance-pruned one
// (expand_fold with the floor) — checks that the pruned store holds exactly
// the full store's cells with sessions >= floor, and prints the per-arity
// means: full cells, significant cells, and their share, plus the mean
// number of a leaf's projections at or above the floor against the full
// lattice's, and the per-epoch means of the pruned table's row groups
// against the leaves and of its stored ids (cell_rows.size(), one per
// group-cell membership in the cells' member lists) against one row per
// leaf.
//
//   usage: lattice_census TRACE.vqtc MIN_SESSIONS
//
// EXPERIMENTS.md's significant-cells-per-arity table runs it on the
// e2ebench worlds' cached traces (e.g. .bench_build/cache/paper_2013.vqtc
// at 150 and bench_2013.vqtc at 4500, written by e2ebench/run.py).

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/gen/columnar.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: lattice_census TRACE.vqtc MIN_SESSIONS\n");
    return 2;
  }
  vq::ColumnarReader reader{std::filesystem::path{argv[1]}};
  const auto floor =
      static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10));
  const std::uint32_t epochs = reader.num_epochs();
  if (epochs == 0) {
    std::fprintf(stderr, "lattice_census: trace has no epochs\n");
    return 1;
  }

  std::array<double, vq::kNumDims + 1> full{};
  std::array<double, vq::kNumDims + 1> significant{};
  double leaves = 0.0;
  double row_ids = 0.0;
  double row_groups = 0.0;
  double stored_ids = 0.0;
  vq::SessionColumns columns;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    reader.read_epoch(e, columns);
    const vq::LeafFold fold =
        vq::fold_sessions_columns(columns, vq::ProblemThresholds{}, e);
    const vq::EpochClusterTable all = vq::expand_fold(fold, {});
    const vq::EpochClusterTable pruned =
        vq::expand_fold(fold, {}, nullptr, 1, floor);
    std::size_t kept = 0;
    for (std::uint32_t id = 0; id < all.clusters.size(); ++id) {
      const std::uint64_t key = all.clusters.key(id);
      const int arity = std::popcount(key & vq::kFullMask);
      full[arity] += 1.0;
      if (all.clusters.cell(id).sessions < floor) continue;
      significant[arity] += 1.0;
      if (pruned.clusters.id_of(key) != kept++) {
        std::fprintf(stderr, "FATAL: epoch %u: pruned store differs\n", e);
        return 1;
      }
    }
    if (kept != pruned.clusters.size()) {
      std::fprintf(stderr, "FATAL: epoch %u: pruned store differs\n", e);
      return 1;
    }
    const vq::LeafCellIndex& index = pruned.leaf_index;
    leaves += static_cast<double>(fold.leaves.size());
    row_groups += static_cast<double>(index.num_groups());
    stored_ids += static_cast<double>(index.cell_rows.size());
    // A leaf's row would hold one id per cell its group is a member of.
    std::vector<std::size_t> group_leaves(index.num_groups(), 0);
    for (const std::uint32_t g : index.leaf_group) ++group_leaves[g];
    for (std::uint32_t id = 0; id < pruned.clusters.size(); ++id) {
      for (const std::uint32_t g : index.members(id)) {
        row_ids += static_cast<double>(group_leaves[g]);
      }
    }
  }

  std::printf("%u epochs, min_sessions %u, per-epoch means\n", epochs,
              floor);
  std::printf("| arity | cells | cells >= floor | share |\n|---|---|---|---|\n");
  double full_total = 0.0;
  double significant_total = 0.0;
  for (int a = 1; a <= vq::kNumDims; ++a) {
    full_total += full[a] / epochs;
    significant_total += significant[a] / epochs;
    std::printf("| %d | %.1f | %.1f | %.3f %% |\n", a, full[a] / epochs,
                significant[a] / epochs,
                full[a] == 0.0 ? 0.0 : 100.0 * significant[a] / full[a]);
  }
  std::printf("| all | %.1f | %.1f | %.3f %% |\n", full_total,
              significant_total, 100.0 * significant_total / full_total);
  const auto masks =
      static_cast<double>(vq::lattice_masks(vq::kNumDims).size());
  std::printf("leaves %.1f, ids per leaf row %.1f of %.0f (%.1f %%)\n",
              leaves / epochs, row_ids / leaves, masks,
              100.0 * row_ids / (leaves * masks));
  std::printf("row groups %.1f of %.1f leaves (%.1f %%), stored row ids "
              "%.1f of %.1f at one row per leaf\n",
              row_groups / epochs, leaves / epochs,
              100.0 * row_groups / leaves, stored_ids / epochs,
              row_ids / epochs);
  return 0;
}
