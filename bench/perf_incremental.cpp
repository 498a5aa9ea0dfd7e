// Incremental epoch-update benchmark: the per-epoch cost of
// IncrementalLattice::advance against the from-scratch rebuild
// (expand_fold + the four-metric find_critical_clusters) on a low-churn
// streaming workload — the regime the delta engine targets (DESIGN.md
// §4.13): a stable leaf population where only a few percent of leaves
// change per epoch and the global problem ratios hold steady, so the
// touched-cell set and the candidate caches do the work.
//
// Like perf_fold, a plain main() so CI can run it in smoke mode (gated
// against bench/baselines/incremental_smoke.json via tools/bench_check)
// and the full run's JSON is checked in as BENCH_incremental.json.
//
//   usage: perf_incremental [--smoke] [output.json]
//
//   VIDQUAL_INC_LEAVES   active leaves per epoch        (default 4000)
//   VIDQUAL_INC_CHURN    per-epoch churned leaves       (default 200 = 5%)
//   VIDQUAL_INC_EPOCHS   timed epochs per rep           (default 48)
//   VIDQUAL_INC_REPS     timed repetitions              (default 5)
//
// The workload models migration churn, the monitoring steady state the
// delta engine targets: the client population mix is stable — every epoch
// carries the same leaves with the same per-leaf loads — but each epoch one
// cohort of VIDQUAL_INC_CHURN clients reappears under fresh ASNs (ISP
// re-routing, DHCP pool rotation, CDN client reassignment).  So per epoch,
// `churn` leaf keys retire and `churn` appear, while every projection that
// does not pin the ASN receives a net-zero delta: global totals, site/CDN
// aggregates, and their flags are bit-for-bit constant, and value-based
// invalidation keeps the candidate caches of the ~(active - churn)
// untouched leaves valid.  Adversarial churn that reshuffles broad
// aggregates every epoch degrades the advantage toward the
// expansion-only savings (~1.5x); this harness measures the design point.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/incremental.h"
#include "src/core/problem_cluster.h"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

template <typename F>
double time_reps(std::size_t reps, F&& body) {
  body();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// ASN values live in a prime modulus so the two generations of a cohort
/// (and distinct cohorts within one epoch) never collide.
constexpr std::uint32_t kAsnMod = 65'521;

/// Client cohort i in ASN generation `gen` (0 or 1 — a cohort alternates
/// between two ASNs, the finite-pool steady state of a long-lived
/// monitor).  All non-ASN attributes are a pure function of i, so a
/// migration changes only the 64 ASN-pinning projections of the leaf.
vq::ClusterKey leaf_key(std::uint32_t i, std::uint32_t gen,
                        std::uint32_t active) {
  vq::AttrVec attrs;
  attrs[vq::AttrDim::kSite] = static_cast<std::uint16_t>(i % 331);
  attrs[vq::AttrDim::kCdn] = static_cast<std::uint16_t>(i % 17);
  attrs[vq::AttrDim::kAsn] =
      static_cast<std::uint16_t>((i + gen * active) % kAsnMod);
  attrs[vq::AttrDim::kConnType] = static_cast<std::uint16_t>(i % 5);
  attrs[vq::AttrDim::kPlayer] = static_cast<std::uint16_t>((i / 7) % 4);
  attrs[vq::AttrDim::kBrowser] = static_cast<std::uint16_t>((i / 3) % 6);
  attrs[vq::AttrDim::kVodLive] = static_cast<std::uint16_t>(i % 2);
  return vq::ClusterKey::pack(vq::kFullMask, attrs);
}

/// Per-cohort load, constant across generations (the sessions migrate, the
/// mix does not).  A minority of "hot" cohorts carry problem mass so the
/// analyses have real problem and critical clusters to extract.
vq::ClusterStats leaf_stats(std::uint32_t i) {
  vq::ClusterStats s;
  s.sessions = 40 + i % 21;
  const bool hot = i % 8 == 0;
  for (int m = 0; m < vq::kNumMetrics; ++m) {
    s.problems[m] = hot ? s.sessions / 2 : i % 3;
  }
  return s;
}

/// Epoch e's fold: all `active` cohorts, with cohort group g = i / churn
/// flipping its ASN generation at epochs g+1, g+1+G, g+1+2G, ... (G =
/// number of groups) — exactly `churn` leaf keys retired and `churn` added
/// per epoch after the first, identical totals throughout, periodic with
/// period 2G (each group returns to its original ASN after two flips).
vq::LeafFold make_fold(std::uint32_t epoch, std::uint32_t active,
                       std::uint32_t churn) {
  const std::uint32_t groups = churn == 0 ? 1 : active / churn;
  vq::LeafFold fold;
  fold.epoch = epoch;
  fold.leaves.reserve(active);
  for (std::uint32_t i = 0; i < active; ++i) {
    const std::uint32_t g = churn == 0 ? 0 : i / churn;
    const std::uint32_t flips =
        churn != 0 && epoch > g ? (epoch - g - 1) / groups + 1 : 0;
    const vq::ClusterStats s = leaf_stats(i);
    fold.leaves.push_back({leaf_key(i, flips % 2, active).raw(), s});
    fold.root += s;
  }
  // Canonical order; the cohorts' keys are distinct (see kAsnMod).
  std::sort(fold.leaves.begin(), fold.leaves.end(),
            [](const vq::FoldLeaf& a, const vq::FoldLeaf& b) {
              return a.key < b.key;
            });
  return fold;
}

bool analyses_identical(const vq::CriticalAnalysis& a,
                        const vq::CriticalAnalysis& b) {
  if (a.problem_cluster_keys != b.problem_cluster_keys) return false;
  if (a.attributed_mass != b.attributed_mass) return false;
  if (a.criticals.size() != b.criticals.size()) return false;
  for (std::size_t i = 0; i < a.criticals.size(); ++i) {
    if (a.criticals[i].key.raw() != b.criticals[i].key.raw()) return false;
    if (a.criticals[i].attributed != b.criticals[i].attributed) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vq;

  bool smoke = false;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const auto active = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_INC_LEAVES", smoke ? 1'000 : 4'000));
  const auto churn = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_INC_CHURN", smoke ? 50 : 200));
  const auto num_epochs = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_INC_EPOCHS", smoke ? 12 : 48));
  const auto reps =
      static_cast<std::size_t>(env_u64("VIDQUAL_INC_REPS", smoke ? 2 : 5));

  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 60};
  const ClusterEngineConfig engine;

  // One full migration period of folds; the epoch stream replays it
  // cyclically (the wrap transition churns exactly `churn` keys like every
  // other transition, so the stream is an endless steady state).
  const std::uint32_t groups = churn == 0 ? 1 : active / churn;
  const std::uint32_t period = churn == 0 ? 1 : 2 * groups;
  std::vector<LeafFold> folds;
  folds.reserve(period);
  for (std::uint32_t e = 0; e < period; ++e) {
    folds.push_back(make_fold(e, active, churn));
  }
  std::printf("perf_incremental: %u leaves, %u churn/epoch (%.1f%%), "
              "period %u, %u epochs/rep, %zu reps\n",
              active, churn, 100.0 * churn / active, period, num_epochs,
              reps);

  // Bit-identity gate over two periods — cold build plus a full cycle of
  // slot/cell reuse — before the numbers mean anything (the exhaustive
  // differential lives in tests/test_incremental.cpp).
  {
    IncrementalLattice lattice{params, engine.max_arity};
    for (std::uint32_t e = 0; e < 2 * period; ++e) {
      const LeafFold& fold = folds[e % period];
      const auto analyses = lattice.advance(fold);
      const EpochClusterTable table = expand_fold(fold, engine);
      const auto expected = find_critical_clusters(fold, table, params);
      for (const Metric m : kAllMetrics) {
        const auto mi = static_cast<std::uint8_t>(m);
        if (!analyses_identical(expected[mi], analyses[mi])) {
          std::fprintf(stderr,
                       "FATAL: incremental diverged from rebuild at epoch "
                       "%u metric %d\n",
                       e, static_cast<int>(m));
          return 1;
        }
      }
    }
  }

  // A "rep" is `num_epochs` advances of the stream; per-epoch rates divide
  // by that.  The rebuild side re-expands the full lattice (expand_fold
  // without a floor, the lattice IncrementalLattice keeps) and re-extracts
  // from scratch.
  std::uint32_t rebuild_pos = 0;
  const double rebuild_s = time_reps(reps, [&] {
    for (std::uint32_t e = 0; e < num_epochs; ++e) {
      const LeafFold& fold = folds[rebuild_pos++ % period];
      const EpochClusterTable table = expand_fold(fold, engine);
      const auto analyses = find_critical_clusters(fold, table, params);
      if (analyses[0].sessions == 0) std::abort();
    }
  });

  // The incremental side measures a long-lived stream: one lattice,
  // warmed through a full period (all slots and cells materialised), then
  // timed in its reuse steady state.
  IncrementalLattice lattice{params, engine.max_arity};
  std::uint32_t stream_pos = 0;
  for (std::uint32_t e = 0; e < period; ++e) {
    lattice.advance(folds[stream_pos++ % period]);
  }
  const double incremental_s = time_reps(reps, [&] {
    for (std::uint32_t e = 0; e < num_epochs; ++e) {
      const auto analyses = lattice.advance(folds[stream_pos++ % period]);
      if (analyses[0].sessions == 0) std::abort();
    }
  });
  const double steady_cells_touched =
      static_cast<double>(lattice.last_delta().cells_touched);

  const double n = static_cast<double>(reps) * num_epochs;
  const double rebuild_eps = n / rebuild_s;
  const double incremental_eps = n / incremental_s;
  const double speedup = incremental_eps / rebuild_eps;
  std::printf("  rebuild     : %8.2f epochs/sec\n", rebuild_eps);
  std::printf("  incremental : %8.2f epochs/sec  (%.2fx, %.0f cells "
              "touched/epoch at steady state)\n",
              incremental_eps, speedup, steady_cells_touched);

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"incremental_epoch_update\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"active_leaves\": " << active << ",\n"
      << "  \"churned_leaves_per_epoch\": " << churn << ",\n"
      << "  \"epochs\": " << num_epochs << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"steady_cells_touched_per_epoch\": " << steady_cells_touched
      << ",\n"
      << "  \"rebuild_epochs_per_sec\": " << rebuild_eps << ",\n"
      << "  \"incremental_epochs_per_sec\": " << incremental_eps << ",\n"
      << "  \"speedup_incremental_vs_rebuild\": " << speedup << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
