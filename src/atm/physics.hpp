// Column physics for the atmosphere: the conventional diagnostic suite and
// the physics–dynamics coupling interface that lets either the conventional
// suite or the AI suite (§5.2.1) supply tendencies.
//
// The conventional suite is a compact but physically structured package:
//   - dry convective adjustment (mixes statically unstable layers),
//   - large-scale condensation (supersaturation removal + latent heating),
//   - surface fluxes and boundary-layer diffusion toward the skin state,
//   - gray radiation (solar heating by coszr, Newtonian longwave cooling)
//     which also diagnoses surface shortwave/longwave (gsw, glw).
// It is also the training-truth generator for the AI suite, exactly as the
// paper trains on high-resolution conventional-physics output.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ai/suite.hpp"
#include "pp/pack.hpp"
#include "tensor/optimizer.hpp"

namespace ap3::atm {

/// Batch of vertical columns handed to a physics suite. All level arrays are
/// (ncols × nlev), level 0 = model top, level nlev-1 = surface. A batch holds
/// either all of a rank's owned columns or, for a column-local suite, one
/// fixed-size chunk of them (AtmModel::apply_physics).
struct ColumnBatch {
  std::size_t ncols = 0;
  std::size_t nlev = 0;
  /// Physics step length [s]. Relaxation-type schemes convert their rate
  /// constants to effective rates (1−exp(−k·dt))/dt so tendencies never
  /// overshoot, whatever the model step is.
  double dt = 1800.0;
  // Inputs (state).
  std::vector<double> u, v;      ///< winds [m/s]
  std::vector<double> temp;      ///< temperature [K]
  std::vector<double> q;         ///< specific humidity [kg/kg]
  std::vector<double> pressure;  ///< level pressure [Pa]
  std::vector<double> tskin;     ///< per-column skin temperature [K]
  std::vector<double> coszr;     ///< per-column cos(solar zenith)
  // Outputs (tendencies and surface diagnostics).
  std::vector<double> du, dv, dtemp, dq;  ///< [unit/s]
  std::vector<double> gsw, glw;           ///< surface fluxes [W/m²]
  std::vector<double> precip;             ///< precipitation rate [kg/m²/s]

  ColumnBatch(std::size_t ncols, std::size_t nlev);
  /// Change the column count. Leading columns keep their values, added ones
  /// get the constructor's defaults, and shrinking keeps the capacity, so a
  /// tail chunk reuses the storage of a full one.
  void resize(std::size_t ncols);
  std::size_t at(std::size_t col, std::size_t lev) const {
    return col * nlev + lev;
  }
  void zero_outputs();
};

/// Physics–dynamics coupling interface: "this suite gets the input variables
/// from the dynamical core and returns full physical variables back".
class PhysicsSuite {
 public:
  virtual ~PhysicsSuite() = default;
  virtual void compute(ColumnBatch& batch) = 0;
  /// True when every output column depends only on the same input column, so
  /// the model may call compute() once per chunk of columns rather than once
  /// on all owned columns; the results are bitwise the same either way. A
  /// suite that is not column-local (the default) gets exactly one compute()
  /// per model step holding every owned column, even when there are none.
  virtual bool column_local() const { return false; }
  virtual const char* name() const = 0;
  /// Scalar-flops per column (perf-model input; AI suite reports tensor
  /// flops separately).
  virtual double flops_per_column(std::size_t nlev) const = 0;
};

struct ConventionalConfig {
  double qsat_ref = 0.015;          ///< saturation humidity at T_ref [kg/kg]
  double t_ref = 288.0;
  double condensation_rate = 2e-4;  ///< [1/s] relaxation of supersaturation
  double bl_exchange = 5e-5;        ///< surface exchange coefficient [1/s]
  double diffusion = 1e-5;          ///< vertical mixing [1/s]
  double lw_cooling = 2.0e-6;       ///< Newtonian cooling rate [1/s]
  double cloud_albedo_per_q = 8.0;  ///< cloud shortwave blocking per humidity
  /// SIMD pack width for the level-parallel column kernels (radiation
  /// heating, boundary-layer interior diffusion): one of {1,2,4,8,16}, or 0
  /// for the scalar reference sweeps. Bitwise-neutral — lanes are
  /// independent levels; the level-coupled schemes (convective adjustment,
  /// condensation) stay scalarized by construction (DESIGN.md §13).
  std::size_t pack_width = pp::kDefaultPackWidth;
};

class ConventionalPhysics : public PhysicsSuite {
 public:
  explicit ConventionalPhysics(ConventionalConfig config = {});
  void compute(ColumnBatch& batch) override;
  /// Every scheme reads and writes only its own column.
  bool column_local() const override { return true; }
  const char* name() const override { return "conventional"; }
  double flops_per_column(std::size_t nlev) const override;

  /// Saturation specific humidity (simplified Clausius–Clapeyron).
  double qsat(double temp_k) const;

 private:
  void convective_adjustment(ColumnBatch& batch, std::size_t col) const;
  void condensation(ColumnBatch& batch, std::size_t col) const;
  void boundary_layer(ColumnBatch& batch, std::size_t col) const;
  void radiation(ColumnBatch& batch, std::size_t col) const;
  ConventionalConfig config_;
};

/// Online fine-tuning of a deployed AI suite: every `every_steps` physics
/// calls, one Adam step fits both networks against the conventional suite's
/// tendencies/fluxes on a sample of the live batch. Deterministic (no RNG,
/// fixed sample = leading columns), so restart stays bit-exact as long as
/// the weights and the optimizer moments are checkpointed (they are — see
/// the coupler's cpl.ai.* sections).
struct OnlineTrainingConfig {
  int every_steps = 1;          ///< fine-tune every K compute() calls
  std::size_t sample_cols = 8;  ///< leading columns of the batch to fit on
  float lr = 1e-4f;
};

/// Adapter running the trained AI suite behind the same interface. All
/// inference goes through the suite's batched InferenceEngine; pass an
/// EngineConfig to pick the execution space / precision policy / overlap.
/// Not column-local: online training counts compute() calls and fits on the
/// batch's leading columns, so it must see the whole owned batch per step.
class AiPhysics : public PhysicsSuite {
 public:
  explicit AiPhysics(std::shared_ptr<ai::AiPhysicsSuite> suite);
  AiPhysics(std::shared_ptr<ai::AiPhysicsSuite> suite,
            const ai::EngineConfig& engine);
  void compute(ColumnBatch& batch) override;
  const char* name() const override { return "ai"; }
  double flops_per_column(std::size_t nlev) const override;

  ai::AiPhysicsSuite& suite() { return *suite_; }

  void enable_online_training(const OnlineTrainingConfig& config = {});
  bool online_training_active() const { return cnn_opt_ != nullptr; }
  /// Serialized fine-tuning state (call counter + both Adam optimizers),
  /// packed as doubles (float -> double is exact) for the checkpoint
  /// container. Empty when online training is off.
  std::vector<double> pack_training_state() const;
  void restore_training_state(std::span<const double> state);

 private:
  void online_step(const ColumnBatch& batch);

  std::shared_ptr<ai::AiPhysicsSuite> suite_;
  OnlineTrainingConfig online_;
  ConventionalPhysics truth_;  ///< training-truth generator
  std::unique_ptr<tensor::Adam> cnn_opt_, mlp_opt_;
  long long calls_ = 0;
};

/// Generate a training corpus by running the conventional suite over
/// synthetic columns drawn from a seasonal climatology (the stand-in for 80
/// days of 5-km GRIST output; see DESIGN.md substitutions).
struct TrainingData {
  tensor::Tensor columns;     ///< (N, 5, nlev): U,V,T,Q,P
  tensor::Tensor tendencies;  ///< (N, 4, nlev)
  tensor::Tensor fluxes;      ///< (N, 2): gsw, glw
  std::vector<double> tskin, coszr;
  std::size_t days = 0, steps_per_day = 0;
};
/// `dt` must match the model step the trained suite will run at: effective
/// tendencies are dt-dependent, and the network does not see dt as an input.
TrainingData generate_training_data(const ConventionalPhysics& physics,
                                    std::size_t days, std::size_t steps_per_day,
                                    std::size_t nlev, std::uint64_t seed,
                                    double dt = 1800.0);

/// Train a fresh AI suite against the conventional suite's outputs using the
/// paper's split protocol; returns the fitted suite plus test-R² skill.
struct TrainedSuite {
  std::shared_ptr<ai::AiPhysicsSuite> suite;
  float tendency_r2 = 0.0f;
  float flux_r2 = 0.0f;
};
TrainedSuite train_ai_physics(const TrainingData& data,
                              const ai::SuiteConfig& config, int epochs,
                              float lr);

}  // namespace ap3::atm
