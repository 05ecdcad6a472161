// Benchmark: the batched AI inference engine across execution spaces and
// precision policies — columns/s for kSerial / kHostThreads / kSunwayCPE
// under fp64 / fp32 / group-scaled, with a per-condition output-hash witness.
//
// Two kinds of numbers, labelled honestly in BENCH_ai.json:
//
//   measured — wall-clock columns/s on THIS host, interleaved best-of-3 per
//     condition so ambient drift hits all conditions equally. On a 1-core
//     container kHostThreads cannot beat kSerial in wall time (the pool's
//     workers share the core with the rank thread), so the measured speedups
//     mainly witness that portability costs nothing, not that threads help.
//
//   modeled — what the same launch plan delivers when the hardware is real:
//     kHostThreads assumes the pool's workers plus the rank thread each own a
//     core (perfect scaling over pool_size+1 — an upper bound); kSunwayCPE
//     charges the suite's tensor flops to one CPE cluster (440 GF/s) plus the
//     measured DMA staging traffic at 40 GB/s + 1.2 us/transfer.
//
// The hash witness is the portability contract: for each precision policy the
// output bytes must be identical across all three spaces, and group-scaled
// must equal fp32 (power-of-two scales round-trip losslessly). Any mismatch
// exits non-zero.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ai/engine.hpp"
#include "ai/suite.hpp"
#include "base/rng.hpp"
#include "obs/obs.hpp"
#include "pp/exec.hpp"
#include "pp/pool.hpp"
#include "sunway/arch.hpp"

namespace {

using namespace ap3;
using ai::EngineConfig;
using ai::PrecisionPolicy;
using tensor::Tensor;

constexpr int kReps = 3;
constexpr std::size_t kColumns = 512;
constexpr std::size_t kLevels = 20;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct Fixture {
  std::shared_ptr<ai::AiPhysicsSuite> suite;
  Tensor columns;
  std::vector<double> tskin, coszr;

  Fixture() : columns({kColumns, 5, kLevels}) {
    ai::SuiteConfig sc;
    sc.cnn_hidden = 16;
    sc.mlp_hidden = 32;
    sc.levels = static_cast<int>(kLevels);
    suite = std::make_shared<ai::AiPhysicsSuite>(sc);
    Rng rng(2026);
    Tensor tendencies({kColumns, 4, kLevels}), fluxes({kColumns, 2});
    tskin.assign(kColumns, 0.0);
    coszr.assign(kColumns, 0.0);
    for (std::size_t s = 0; s < kColumns; ++s) {
      tskin[s] = 285.0 + 10.0 * rng.normal();
      coszr[s] = rng.uniform();
    }
    for (std::size_t i = 0; i < columns.size(); ++i)
      columns[i] = static_cast<float>(rng.normal() * 10.0 + 230.0);
    for (std::size_t i = 0; i < tendencies.size(); ++i)
      tendencies[i] = static_cast<float>(rng.normal() * 1e-4);
    for (std::size_t i = 0; i < fluxes.size(); ++i)
      fluxes[i] = static_cast<float>(350.0 + 40.0 * rng.normal());
    const Tensor rad = suite->make_rad_inputs(columns, tskin, coszr);
    suite->fit_normalizers(columns, tendencies, rad, fluxes);
    // Zero-initialized readout layers would make every condition compute
    // trivial zeros; randomize all weights as a trained suite would look.
    Rng wr(7);
    for (auto* model : {&suite->cnn().model(), &suite->mlp().model()}) {
      std::vector<float> w = model->save_weights();
      for (float& v : w) v = static_cast<float>(wr.normal() * 0.1);
      model->load_weights(w);
    }
  }
};

struct Condition {
  pp::ExecSpace space;
  PrecisionPolicy precision;
  std::size_t pack = pp::kDefaultPackWidth;  ///< 0 = scalar reference path
  double best_seconds = 1e300;
  std::uint64_t output_hash = 0;
  double dma_bytes = 0.0;      ///< staged per run (kSunwayCPE only)
  double dma_transfers = 0.0;  ///< per run (kSunwayCPE only)
};

/// One timed inference pass; returns wall seconds and fills the output hash.
double run_once(const Fixture& fx, Condition& cond) {
  EngineConfig ec;
  ec.space = cond.space;
  ec.precision = cond.precision;
  ec.micro_batch = 64;
  ec.pack_width = cond.pack;
  fx.suite->set_engine_config(ec);

  const double dma_b0 = obs::total_counter("sunway:dma:bytes");
  const double dma_t0 = obs::total_counter("sunway:dma:transfers");
  const double t0 = obs::now_seconds();
  const ai::SuiteOutput out =
      fx.suite->compute(fx.columns, fx.tskin, fx.coszr);
  const double t1 = obs::now_seconds();
  cond.dma_bytes = obs::total_counter("sunway:dma:bytes") - dma_b0;
  cond.dma_transfers = obs::total_counter("sunway:dma:transfers") - dma_t0;

  std::uint64_t h = 1469598103934665603ULL;
  h = fnv_bytes(h, out.tendencies.data(),
                out.tendencies.size() * sizeof(float));
  h = fnv_bytes(h, out.fluxes.data(), out.fluxes.size() * sizeof(float));
  cond.output_hash = h;
  return t1 - t0;
}

const char* precision_name(PrecisionPolicy p) { return ai::to_string(p); }

}  // namespace

int main() {
  obs::set_enabled(true);
  Fixture fx;

  const pp::ExecSpace spaces[] = {pp::ExecSpace::kSerial,
                                  pp::ExecSpace::kHostThreads,
                                  pp::ExecSpace::kSunwayCPE};
  const PrecisionPolicy precisions[] = {PrecisionPolicy::kFp64,
                                        PrecisionPolicy::kFp32,
                                        PrecisionPolicy::kGroupScaled};
  std::vector<Condition> conds;
  for (pp::ExecSpace s : spaces)
    for (PrecisionPolicy p : precisions) conds.push_back({s, p});

  // Warm-up (pool spin-up, lazy allocations), then interleave the full
  // condition grid rep by rep so machine drift is shared.
  for (Condition& c : conds) (void)run_once(fx, c);
  for (int rep = 0; rep < kReps; ++rep)
    for (Condition& c : conds)
      c.best_seconds = std::min(c.best_seconds, run_once(fx, c));

  // --- pack-width sweep ------------------------------------------------------
  // Same engine on kSerial/fp32 with the SIMD pack width swept over the
  // scalar reference (0) and every legal width, interleaved best-of-kReps
  // like the main grid. Pack width is a pure performance knob, so the hash
  // witness extends across the whole sweep.
  const std::size_t pack_widths[] = {0, 1, 2, 4, 8, 16};
  std::vector<Condition> packs;
  for (std::size_t w : pack_widths)
    packs.push_back({pp::ExecSpace::kSerial, PrecisionPolicy::kFp32, w});
  for (Condition& c : packs) (void)run_once(fx, c);
  for (int rep = 0; rep < kReps; ++rep)
    for (Condition& c : packs)
      c.best_seconds = std::min(c.best_seconds, run_once(fx, c));

  // --- hash witness ----------------------------------------------------------
  bool witness_ok = true;
  for (const Condition& c : packs) {
    if (c.output_hash != packs[0].output_hash) {
      std::fprintf(stderr,
                   "error: pack width %zu changed the fp32 output bits "
                   "(%016llx vs %016llx)\n",
                   c.pack,
                   static_cast<unsigned long long>(c.output_hash),
                   static_cast<unsigned long long>(packs[0].output_hash));
      witness_ok = false;
    }
  }
  for (PrecisionPolicy p : precisions) {
    std::uint64_t ref = 0;
    bool have_ref = false;
    for (const Condition& c : conds) {
      if (c.precision != p) continue;
      if (!have_ref) {
        ref = c.output_hash;
        have_ref = true;
      } else if (c.output_hash != ref) {
        std::fprintf(stderr,
                     "error: %s output differs across spaces (%016llx vs "
                     "%016llx on %s)\n",
                     precision_name(p), static_cast<unsigned long long>(ref),
                     static_cast<unsigned long long>(c.output_hash),
                     pp::to_string(c.space));
        witness_ok = false;
      }
    }
  }
  // Group-scaled storage must not move fp32 bits (lossless round trip).
  std::uint64_t fp32_hash = 0, gs_hash = 0;
  for (const Condition& c : conds) {
    if (c.space != pp::ExecSpace::kSerial) continue;
    if (c.precision == PrecisionPolicy::kFp32) fp32_hash = c.output_hash;
    if (c.precision == PrecisionPolicy::kGroupScaled) gs_hash = c.output_hash;
  }
  if (fp32_hash != gs_hash) {
    std::fprintf(stderr, "error: group-scaled output differs from fp32\n");
    witness_ok = false;
  }

  // --- perf model ------------------------------------------------------------
  const std::size_t pool_cores = pp::ThreadPool::global().size() + 1;
  const double flops_per_run =
      fx.suite->flops_per_column() * static_cast<double>(kColumns);

  auto measured_cps = [&](const Condition& c) {
    return static_cast<double>(kColumns) / c.best_seconds;
  };
  auto serial_best = [&](PrecisionPolicy p) {
    for (const Condition& c : conds)
      if (c.space == pp::ExecSpace::kSerial && c.precision == p)
        return c.best_seconds;
    return 0.0;
  };
  auto modeled_cps = [&](const Condition& c) {
    switch (c.space) {
      case pp::ExecSpace::kSerial:
        return measured_cps(c);
      case pp::ExecSpace::kHostThreads:
        // Perfect scaling over the launch plan's worker set — an upper
        // bound; the measured column is the lower one.
        return static_cast<double>(kColumns) /
               (serial_best(c.precision) / static_cast<double>(pool_cores));
      case pp::ExecSpace::kSunwayCPE: {
        const double compute_s =
            flops_per_run / (sunway::kCpeClusterGflops * 1e9);
        const double dma_s =
            c.dma_bytes / (sunway::kDmaBandwidthGBs * 1e9) +
            c.dma_transfers * sunway::kDmaLatencySeconds;
        return static_cast<double>(kColumns) / (compute_s + dma_s);
      }
    }
    return 0.0;
  };

  std::printf(
      "AI inference engine: %zu columns x %zu levels, micro-batch 64, "
      "best of %d (interleaved)\n",
      kColumns, kLevels, kReps);
  std::printf("host: %zu usable cores (pool %zu + rank thread)\n\n",
              pool_cores, pool_cores - 1);
  std::printf("  %-12s %-6s %14s %14s  %s\n", "space", "prec",
              "measured col/s", "modeled col/s", "output hash");
  for (const Condition& c : conds)
    std::printf("  %-12s %-6s %14.0f %14.0f  %016llx\n",
                pp::to_string(c.space), precision_name(c.precision),
                measured_cps(c), modeled_cps(c),
                static_cast<unsigned long long>(c.output_hash));

  const Condition* threads_fp32 = nullptr;
  const Condition* serial_fp32 = nullptr;
  for (const Condition& c : conds) {
    if (c.precision != PrecisionPolicy::kFp32) continue;
    if (c.space == pp::ExecSpace::kHostThreads) threads_fp32 = &c;
    if (c.space == pp::ExecSpace::kSerial) serial_fp32 = &c;
  }
  const double measured_speedup =
      serial_fp32->best_seconds / threads_fp32->best_seconds;
  const double modeled_speedup =
      modeled_cps(*threads_fp32) / measured_cps(*serial_fp32);
  std::printf(
      "\nhost-threads over serial (fp32): measured %.2fx, modeled %.2fx "
      "(launch plan over %zu cores)\n",
      measured_speedup, modeled_speedup, pool_cores);

  std::printf("\npack-width sweep (kSerial, fp32; 0 = scalar reference):\n");
  std::printf("  %-6s %14s %10s  %s\n", "width", "measured col/s", "speedup",
              "output hash");
  const Condition* pack_scalar = &packs[0];
  const Condition* pack_default = nullptr;
  for (const Condition& c : packs) {
    if (c.pack == pp::kDefaultPackWidth) pack_default = &c;
    std::printf("  %-6zu %14.0f %9.2fx  %016llx\n", c.pack, measured_cps(c),
                pack_scalar->best_seconds / c.best_seconds,
                static_cast<unsigned long long>(c.output_hash));
  }
  const double pack_speedup =
      pack_scalar->best_seconds / pack_default->best_seconds;
  std::printf(
      "pack over scalar (width %zu, fp32, serial): measured %.2fx, "
      "identical bits\n",
      pp::kDefaultPackWidth, pack_speedup);
  std::printf("hash witness: %s\n", witness_ok ? "pass" : "FAIL");

  FILE* f = std::fopen("BENCH_ai.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"columns\": %zu,\n  \"levels\": %zu,\n"
                 "  \"micro_batch\": 64,\n  \"reps\": %d,\n"
                 "  \"host_cores\": %zu,\n  \"conditions\": [\n",
                 kColumns, kLevels, kReps, pool_cores);
    for (std::size_t i = 0; i < conds.size(); ++i) {
      const Condition& c = conds[i];
      const char* basis =
          c.space == pp::ExecSpace::kSerial
              ? "measured"
              : (c.space == pp::ExecSpace::kHostThreads
                     ? "modeled: serial plan / (pool+1) cores; measured "
                       "column is the 1-core wall clock"
                     : "modeled: tensor flops at 440 GF/s CPE cluster + "
                       "measured DMA at 40 GB/s, 1.2us/transfer");
      std::fprintf(
          f,
          "    {\"space\": \"%s\", \"precision\": \"%s\", "
          "\"measured_columns_per_s\": %.1f, \"modeled_columns_per_s\": "
          "%.1f, \"basis\": \"%s\", \"output_hash\": \"%016llx\"}%s\n",
          pp::to_string(c.space), precision_name(c.precision), measured_cps(c),
          modeled_cps(c), basis,
          static_cast<unsigned long long>(c.output_hash),
          i + 1 < conds.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"pack_sweep\": [\n");
    for (std::size_t i = 0; i < packs.size(); ++i) {
      const Condition& c = packs[i];
      std::fprintf(
          f,
          "    {\"space\": \"serial\", \"precision\": \"fp32\", "
          "\"pack_width\": %zu, \"measured_columns_per_s\": %.1f, "
          "\"basis\": \"measured\", \"output_hash\": \"%016llx\"}%s\n",
          c.pack, measured_cps(c),
          static_cast<unsigned long long>(c.output_hash),
          i + 1 < packs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"default_pack_width\": %zu,\n"
                 "  \"pack_speedup_measured\": %.4f,\n"
                 "  \"pack_speedup_basis\": \"wall-clock best-of-%d at the "
                 "default pack width over the pack_width=0 scalar reference, "
                 "same host, interleaved; output bits identical across the "
                 "whole sweep\",\n"
                 "  \"host_threads_speedup_measured\": %.4f,\n"
                 "  \"host_threads_speedup_modeled\": %.4f,\n"
                 "  \"speedup_basis\": \"modeled = perfect scaling of the "
                 "kHostThreads launch plan over pool+1 cores; this container "
                 "exposes 1 core, so the measured number cannot exceed 1x\",\n"
                 "  \"hash_witness\": %s\n}\n",
                 pp::kDefaultPackWidth, pack_speedup, kReps, measured_speedup,
                 modeled_speedup, witness_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_ai.json\n");
  }
  return witness_ok ? 0 : 1;
}
