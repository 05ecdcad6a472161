// Micro-benchmark: cost of the observability layer on kernel dispatch.
//
// For a sweep of launch sizes, three variants of the same serial kernel:
//   raw       — a plain loop, no pp dispatch at all,
//   disabled  — pp::parallel_for with obs::set_enabled(false) (the dispatch
//               gate is one relaxed atomic load),
//   enabled   — pp::parallel_for recording one span + two counters/launch.
//
// Prints a table and writes BENCH_obs.json so CI can track the disabled-mode
// overhead. The design target: at realistic launch sizes (>= a few hundred
// items) disabled dispatch is within 5% of the raw loop; the headline JSON
// fields report the largest size. Timing uses best-of-reps, the standard
// micro-bench estimator least sensitive to scheduler noise.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/obs.hpp"
#include "pp/exec.hpp"

namespace {

using namespace ap3;

constexpr int kReps = 9;

/// Best-of-kReps ns per launch for `launches` launches of `one_launch`.
template <typename Fn>
double best_ns_per_launch(std::size_t launches, const Fn& one_launch) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = obs::now_seconds();
    for (std::size_t l = 0; l < launches; ++l) one_launch();
    const double t1 = obs::now_seconds();
    best = std::min(best, (t1 - t0) * 1e9 / static_cast<double>(launches));
  }
  return best;
}

struct Row {
  std::size_t items;
  double raw_ns;
  double disabled_ns;
  double enabled_ns;
};

Row measure(std::size_t items) {
  std::vector<double> data(items, 1.0);
  const std::size_t launches = 2'000'000 / items + 100;

  obs::set_enabled(false);
  const double raw = best_ns_per_launch(launches, [&] {
    for (std::size_t i = 0; i < items; ++i)
      data[i] = data[i] * 1.0000001 + 1e-9;
  });
  const double disabled = best_ns_per_launch(launches, [&] {
    pp::parallel_for(pp::RangePolicy(0, items), [&](std::size_t i) {
      data[i] = data[i] * 1.0000001 + 1e-9;
    });
  });

  obs::set_enabled(true);
  const double enabled = best_ns_per_launch(launches, [&] {
    pp::parallel_for(pp::RangePolicy(0, items), [&](std::size_t i) {
      data[i] = data[i] * 1.0000001 + 1e-9;
    });
  });
  // The enabled runs overflow the per-buffer span cap by design; drop the
  // recorded data so a later consumer of this process sees a clean slate.
  obs::reset_all();

  return {items, raw, disabled, enabled};
}

}  // namespace

int main() {
  // Warm up the pool, allocators, and the thread-local buffer.
  obs::set_enabled(true);
  pp::parallel_for(pp::RangePolicy(0, 64), [](std::size_t) {});
  obs::reset_all();

  const std::size_t sizes[] = {64, 256, 1024, 4096};
  std::vector<Row> rows;
  for (std::size_t items : sizes) rows.push_back(measure(items));

  std::printf("obs dispatch overhead (serial kernel, best of %d reps)\n",
              kReps);
  std::printf("  %8s %12s %16s %16s\n", "items", "raw ns", "obs off ns (%)",
              "obs on ns (%)");
  for (const Row& row : rows) {
    std::printf("  %8zu %12.1f %10.1f (%+5.1f%%) %10.1f (%+5.1f%%)\n",
                row.items, row.raw_ns, row.disabled_ns,
                100.0 * (row.disabled_ns / row.raw_ns - 1.0), row.enabled_ns,
                100.0 * (row.enabled_ns / row.raw_ns - 1.0));
  }

  const Row& headline = rows.back();
  const double disabled_over = headline.disabled_ns / headline.raw_ns - 1.0;
  const double enabled_over = headline.enabled_ns / headline.raw_ns - 1.0;
  std::printf("\nheadline (%zu items/launch): obs-off dispatch %+.2f%% vs raw "
              "loop, obs-on %+.2f%%\n",
              headline.items, 100.0 * disabled_over, 100.0 * enabled_over);

  FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::fprintf(f,
                   "    {\"items_per_launch\": %zu, \"raw_ns_per_launch\": "
                   "%.3f, \"disabled_ns_per_launch\": %.3f, "
                   "\"enabled_ns_per_launch\": %.3f}%s\n",
                   rows[r].items, rows[r].raw_ns, rows[r].disabled_ns,
                   rows[r].enabled_ns, r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"items_per_launch\": %zu,\n"
                 "  \"raw_ns_per_launch\": %.3f,\n"
                 "  \"disabled_ns_per_launch\": %.3f,\n"
                 "  \"enabled_ns_per_launch\": %.3f,\n"
                 "  \"disabled_overhead_fraction\": %.6f,\n"
                 "  \"enabled_overhead_fraction\": %.6f\n"
                 "}\n",
                 headline.items, headline.raw_ns, headline.disabled_ns,
                 headline.enabled_ns, disabled_over, enabled_over);
    std::fclose(f);
    std::printf("wrote BENCH_obs.json\n");
  }
  return 0;
}
