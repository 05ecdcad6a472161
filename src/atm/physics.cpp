#include "atm/physics.hpp"

#include <algorithm>
#include <cmath>

#include "ai/trainer.hpp"
#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "obs/obs.hpp"
#include "tensor/dispatch.hpp"

namespace ap3::atm {

using constants::kCpDry;
using constants::kLatentVap;
using constants::kSolarConstant;

ColumnBatch::ColumnBatch(std::size_t ncols_, std::size_t nlev_)
    : nlev(nlev_) {
  resize(ncols_);
}

void ColumnBatch::resize(std::size_t ncols_) {
  ncols = ncols_;
  const std::size_t n = ncols * nlev;
  u.resize(n, 0.0);
  v.resize(n, 0.0);
  temp.resize(n, 260.0);
  q.resize(n, 1e-3);
  pressure.resize(n, 5e4);
  tskin.resize(ncols, 288.0);
  coszr.resize(ncols, 0.5);
  du.resize(n, 0.0);
  dv.resize(n, 0.0);
  dtemp.resize(n, 0.0);
  dq.resize(n, 0.0);
  gsw.resize(ncols, 0.0);
  glw.resize(ncols, 0.0);
  precip.resize(ncols, 0.0);
}

void ColumnBatch::zero_outputs() {
  std::fill(du.begin(), du.end(), 0.0);
  std::fill(dv.begin(), dv.end(), 0.0);
  std::fill(dtemp.begin(), dtemp.end(), 0.0);
  std::fill(dq.begin(), dq.end(), 0.0);
  std::fill(gsw.begin(), gsw.end(), 0.0);
  std::fill(glw.begin(), glw.end(), 0.0);
  std::fill(precip.begin(), precip.end(), 0.0);
}

namespace {
/// Effective relaxation rate for an explicit update: relaxing with rate k
/// over a step dt moves a fraction (1 − e^{−k·dt}) of the gap, never more.
double stable_rate(double k, double dt) {
  return (1.0 - std::exp(-k * dt)) / dt;
}
}  // namespace

ConventionalPhysics::ConventionalPhysics(ConventionalConfig config)
    : config_(config) {}

double ConventionalPhysics::qsat(double temp_k) const {
  // Simplified Clausius–Clapeyron around T_ref.
  return config_.qsat_ref *
         std::exp(0.0687 * (temp_k - config_.t_ref));  // ~doubles per 10 K
}

void ConventionalPhysics::convective_adjustment(ColumnBatch& batch,
                                                std::size_t col) const {
  // Dry adjustment: where the temperature increases too steeply downward
  // relative to the adiabatic reference, relax the pair toward neutrality.
  constexpr double kCritLapse = 9.0;  // K per level-gap proxy
  for (std::size_t k = 0; k + 1 < batch.nlev; ++k) {
    const std::size_t upper = batch.at(col, k);
    const std::size_t lower = batch.at(col, k + 1);
    const double excess = (batch.temp[lower] - batch.temp[upper]) - kCritLapse;
    if (excess > 0.0) {
      // Relax the pair toward neutral without overshooting the excess.
      const double rate = 0.5 * excess * stable_rate(1e-3, batch.dt);
      batch.dtemp[lower] -= rate;
      batch.dtemp[upper] += rate;
      // Convection also lifts moisture.
      const double moisture = 0.1 * rate * batch.q[lower];
      batch.dq[lower] -= moisture;
      batch.dq[upper] += moisture;
    }
  }
}

void ConventionalPhysics::condensation(ColumnBatch& batch,
                                       std::size_t col) const {
  for (std::size_t k = 0; k < batch.nlev; ++k) {
    const std::size_t i = batch.at(col, k);
    const double excess = batch.q[i] - qsat(batch.temp[i]);
    if (excess > 0.0) {
      // Remove at most the supersaturation over this step.
      const double rate =
          excess * stable_rate(config_.condensation_rate / 1e-4 * 5e-5,
                               batch.dt);  // [kg/kg/s]
      batch.dq[i] -= rate;
      batch.dtemp[i] += rate * kLatentVap / kCpDry;
      batch.precip[col] += rate;  // column-integrated proxy
    }
  }
}

void ConventionalPhysics::boundary_layer(ColumnBatch& batch,
                                         std::size_t col) const {
  const std::size_t surf = batch.at(col, batch.nlev - 1);
  const double exchange = stable_rate(config_.bl_exchange, batch.dt);
  // Surface fluxes: relax lowest level toward the skin state; evaporation
  // toward saturation at tskin.
  batch.dtemp[surf] += exchange * (batch.tskin[col] - batch.temp[surf]);
  batch.dq[surf] +=
      exchange * 0.7 * (qsat(batch.tskin[col]) - batch.q[surf]);
  // Surface drag on the lowest-level winds.
  batch.du[surf] -= exchange * batch.u[surf];
  batch.dv[surf] -= exchange * batch.v[surf];
  // Interior vertical diffusion of T, Q, and momentum. Levels are
  // independent outputs here (the stencil reads the input state, never the
  // tendencies), so the pack path sweeps them in lane-parallel tiles; each
  // lane evaluates the exact scalar expression, so bits do not move.
  const double diffusion = stable_rate(config_.diffusion, batch.dt);
  if (config_.pack_width == 0) {
    for (std::size_t k = 1; k + 1 < batch.nlev; ++k) {
      const std::size_t i = batch.at(col, k);
      const std::size_t up = batch.at(col, k - 1);
      const std::size_t dn = batch.at(col, k + 1);
      batch.dtemp[i] += diffusion *
                        (batch.temp[up] + batch.temp[dn] - 2.0 * batch.temp[i]);
      batch.dq[i] +=
          diffusion * (batch.q[up] + batch.q[dn] - 2.0 * batch.q[i]);
      batch.du[i] +=
          diffusion * (batch.u[up] + batch.u[dn] - 2.0 * batch.u[i]);
      batch.dv[i] +=
          diffusion * (batch.v[up] + batch.v[dn] - 2.0 * batch.v[i]);
    }
    return;
  }
  pp::with_pack_width(config_.pack_width, [&]<int N>() {
    using P = pp::Pack<double, N>;
    const std::size_t base = batch.at(col, 0);
    auto diffuse = [&](const std::vector<double>& state,
                       std::vector<double>& tend) {
      const double* s = state.data() + base;
      double* d = tend.data() + base;
      pp::packed_sweep(
          1, batch.nlev >= 1 ? batch.nlev - 1 : 0,
          static_cast<std::size_t>(N), [&](const pp::PackTile& t) {
            const P up = pp::pack_load<double, N>(s + t.offset - 1, t.lanes);
            const P dn = pp::pack_load<double, N>(s + t.offset + 1, t.lanes);
            const P mid = pp::pack_load<double, N>(s + t.offset, t.lanes);
            const P acc = pp::pack_load<double, N>(d + t.offset, t.lanes);
            pp::pack_store(d + t.offset,
                           acc + diffusion * (up + dn - 2.0 * mid), t.lanes);
          });
    };
    diffuse(batch.temp, batch.dtemp);
    diffuse(batch.q, batch.dq);
    diffuse(batch.u, batch.du);
    diffuse(batch.v, batch.dv);
  });
}

void ConventionalPhysics::radiation(ColumnBatch& batch, std::size_t col) const {
  // Column humidity proxies cloud cover, blocking shortwave.
  double column_q = 0.0;
  for (std::size_t k = 0; k < batch.nlev; ++k)
    column_q += batch.q[batch.at(col, k)];
  column_q /= static_cast<double>(batch.nlev);
  const double cloud =
      std::min(0.8, config_.cloud_albedo_per_q * column_q * 10.0);
  const double coszr = std::max(0.0, batch.coszr[col]);

  // Surface downward shortwave and longwave (the two AI radiation targets).
  batch.gsw[col] = kSolarConstant * coszr * (1.0 - cloud) * 0.75;
  const std::size_t low = batch.at(col, batch.nlev - 1);
  const double t_low = batch.temp[low];
  batch.glw[col] = 0.8 * constants::kStefanBoltzmann * t_low * t_low * t_low *
                   t_low * (1.0 + 0.2 * cloud);

  // Heating of the column: solar absorption decays upward from the surface;
  // Newtonian cooling toward a reference profile. The column-q prologue
  // above is a reduction and stays scalar under every pack width; the
  // heating levels are independent outputs and take the pack path. The
  // solar prefactor is hoisted left-associatively, so `s * depth` performs
  // the identical final multiply of the scalar expression.
  const double cooling = stable_rate(config_.lw_cooling, batch.dt);
  if (config_.pack_width == 0) {
    for (std::size_t k = 0; k < batch.nlev; ++k) {
      const std::size_t i = batch.at(col, k);
      const double depth =
          static_cast<double>(k + 1) / static_cast<double>(batch.nlev);
      const double solar_heat = 1.2e-5 * coszr * (1.0 - cloud) * depth;
      const double t_eq = 210.0 + 80.0 * depth;  // reference profile
      batch.dtemp[i] += solar_heat - cooling * (batch.temp[i] - t_eq);
    }
    return;
  }
  pp::with_pack_width(config_.pack_width, [&]<int N>() {
    using P = pp::Pack<double, N>;
    const double s = 1.2e-5 * coszr * (1.0 - cloud);
    const double nlevd = static_cast<double>(batch.nlev);
    const std::size_t base = batch.at(col, 0);
    const double* temp = batch.temp.data() + base;
    double* dtemp = batch.dtemp.data() + base;
    pp::packed_sweep(
        0, batch.nlev, static_cast<std::size_t>(N),
        [&](const pp::PackTile& t) {
          const P depth = P::iota(t.offset + 1) / nlevd;
          const P solar_heat = s * depth;
          const P t_eq = 210.0 + 80.0 * depth;  // reference profile
          const P tv = pp::pack_load<double, N>(temp + t.offset, t.lanes);
          const P acc = pp::pack_load<double, N>(dtemp + t.offset, t.lanes);
          pp::pack_store(dtemp + t.offset,
                         acc + (solar_heat - cooling * (tv - t_eq)), t.lanes);
        });
  });
}

void ConventionalPhysics::compute(ColumnBatch& batch) {
  batch.zero_outputs();
  for (std::size_t col = 0; col < batch.ncols; ++col) {
    convective_adjustment(batch, col);
    condensation(batch, col);
    boundary_layer(batch, col);
    radiation(batch, col);
  }
}

double ConventionalPhysics::flops_per_column(std::size_t nlev) const {
  // Counted by inspection: ~90 flops per level across the four schemes plus
  // the transcendental qsat (~20 flop-equivalents each).
  return static_cast<double>(nlev) * 140.0;
}

AiPhysics::AiPhysics(std::shared_ptr<ai::AiPhysicsSuite> suite)
    : suite_(std::move(suite)) {
  AP3_REQUIRE(suite_ != nullptr);
}

AiPhysics::AiPhysics(std::shared_ptr<ai::AiPhysicsSuite> suite,
                     const ai::EngineConfig& engine)
    : AiPhysics(std::move(suite)) {
  suite_->set_engine_config(engine);
}

void AiPhysics::enable_online_training(const OnlineTrainingConfig& config) {
  AP3_REQUIRE(config.every_steps >= 1 && config.sample_cols >= 1);
  online_ = config;
  const tensor::AdamConfig adam{config.lr, 0.9f, 0.999f, 1e-8f};
  cnn_opt_ = std::make_unique<tensor::Adam>(suite_->cnn().model(), adam);
  mlp_opt_ = std::make_unique<tensor::Adam>(suite_->mlp().model(), adam);
  calls_ = 0;
}

std::vector<double> AiPhysics::pack_training_state() const {
  if (!cnn_opt_) return {};
  // Layout: [calls, then per optimizer (CNN, MLP): t, nparams, m..., v...].
  // float -> double is exact, so the round trip is bitwise.
  std::vector<double> out;
  out.push_back(static_cast<double>(calls_));
  for (const tensor::Adam* opt : {cnn_opt_.get(), mlp_opt_.get()}) {
    const tensor::Adam::State s = opt->state();
    out.push_back(static_cast<double>(s.t));
    out.push_back(static_cast<double>(s.m.size()));
    for (float x : s.m) out.push_back(static_cast<double>(x));
    for (float x : s.v) out.push_back(static_cast<double>(x));
  }
  return out;
}

void AiPhysics::restore_training_state(std::span<const double> state) {
  AP3_REQUIRE_MSG(cnn_opt_ != nullptr,
                  "restore_training_state requires online training enabled");
  std::size_t pos = 0;
  auto take = [&] {
    AP3_REQUIRE_MSG(pos < state.size(), "truncated AI training state");
    return state[pos++];
  };
  calls_ = static_cast<long long>(take());
  for (tensor::Adam* opt : {cnn_opt_.get(), mlp_opt_.get()}) {
    tensor::Adam::State s;
    s.t = static_cast<std::size_t>(take());
    const std::size_t n = static_cast<std::size_t>(take());
    s.m.resize(n);
    s.v.resize(n);
    for (std::size_t i = 0; i < n; ++i) s.m[i] = static_cast<float>(take());
    for (std::size_t i = 0; i < n; ++i) s.v[i] = static_cast<float>(take());
    opt->restore_state(s);
  }
  AP3_REQUIRE_MSG(pos == state.size(), "trailing bytes in AI training state");
}

void AiPhysics::online_step(const ColumnBatch& batch) {
  AP3_SPAN("atm:ai:online_step");
  const std::size_t n = std::min(online_.sample_cols, batch.ncols);
  const std::size_t nlev = batch.nlev;
  if (n == 0) return;

  // Truth on the leading columns of the live batch (a deterministic sample:
  // no RNG, so a restored run replays identical updates).
  ColumnBatch truth(n, nlev);
  truth.dt = batch.dt;
  for (std::size_t c = 0; c < n; ++c) {
    truth.tskin[c] = batch.tskin[c];
    truth.coszr[c] = batch.coszr[c];
    for (std::size_t k = 0; k < nlev; ++k) {
      const std::size_t i = batch.at(c, k);
      truth.u[i] = batch.u[i];
      truth.v[i] = batch.v[i];
      truth.temp[i] = batch.temp[i];
      truth.q[i] = batch.q[i];
      truth.pressure[i] = batch.pressure[i];
    }
  }
  truth_.compute(truth);

  tensor::Tensor raw({n, 5, nlev});
  tensor::Tensor y({n, 4, nlev});
  tensor::Tensor ry({n, 2});
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t k = 0; k < nlev; ++k) {
      const std::size_t i = truth.at(c, k);
      raw.at3(c, 0, k) = static_cast<float>(truth.u[i]);
      raw.at3(c, 1, k) = static_cast<float>(truth.v[i]);
      raw.at3(c, 2, k) = static_cast<float>(truth.temp[i]);
      raw.at3(c, 3, k) = static_cast<float>(truth.q[i]);
      raw.at3(c, 4, k) = static_cast<float>(truth.pressure[i]);
      y.at3(c, 0, k) = static_cast<float>(truth.du[i]);
      y.at3(c, 1, k) = static_cast<float>(truth.dv[i]);
      y.at3(c, 2, k) = static_cast<float>(truth.dtemp[i]);
      y.at3(c, 3, k) = static_cast<float>(truth.dq[i]);
    }
    ry.at2(c, 0) = static_cast<float>(truth.gsw[c]);
    ry.at2(c, 1) = static_cast<float>(truth.glw[c]);
  }
  tensor::Tensor rx = suite_->make_rad_inputs(raw, truth.tskin, truth.coszr);
  tensor::Tensor x = raw;
  suite_->input_norm().apply(x);
  suite_->tendency_norm().apply(y);
  suite_->rad_input_norm().apply(rx);
  suite_->flux_norm().apply(ry);

  // Training always runs serial/fp32 whatever the inference engine's
  // backend: updates must be bit-reproducible across engine configs.
  tensor::DispatchScope scope(
      {pp::ExecSpace::kSerial, 0, tensor::Accum::kFloat32});
  tensor::Sequential& cnn = suite_->cnn().model();
  cnn.zero_grads();
  const tensor::Tensor pred = cnn.forward(x);
  cnn.backward(tensor::mse_grad(pred, y));
  cnn_opt_->step();
  tensor::Sequential& mlp = suite_->mlp().model();
  mlp.zero_grads();
  const tensor::Tensor fpred = mlp.forward(rx);
  mlp.backward(tensor::mse_grad(fpred, ry));
  mlp_opt_->step();
  if (obs::enabled()) obs::counter_add("atm:ai:online_steps", 1.0);
}

void AiPhysics::compute(ColumnBatch& batch) {
  const auto& config = suite_->config();
  AP3_REQUIRE_MSG(batch.nlev == static_cast<std::size_t>(config.levels),
                  "AI suite trained for " << config.levels
                                          << " levels, batch has "
                                          << batch.nlev);
  batch.zero_outputs();
  tensor::Tensor columns({batch.ncols, 5, batch.nlev});
  for (std::size_t c = 0; c < batch.ncols; ++c) {
    for (std::size_t k = 0; k < batch.nlev; ++k) {
      const std::size_t i = batch.at(c, k);
      columns.at3(c, 0, k) = static_cast<float>(batch.u[i]);
      columns.at3(c, 1, k) = static_cast<float>(batch.v[i]);
      columns.at3(c, 2, k) = static_cast<float>(batch.temp[i]);
      columns.at3(c, 3, k) = static_cast<float>(batch.q[i]);
      columns.at3(c, 4, k) = static_cast<float>(batch.pressure[i]);
    }
  }
  const ai::SuiteOutput out = suite_->compute(columns, batch.tskin, batch.coszr);
  // Physical guardrails at the physics–dynamics interface: a network asked
  // to extrapolate outside its training distribution can emit runaway
  // tendencies; deployed ML parameterizations clamp to plausible process
  // rates so one bad column cannot destabilize the dycore.
  const double max_dtemp = 15.0 / batch.dt;   // ≤ 15 K per step
  const double max_dq = 5e-3 / batch.dt;      // ≤ 5 g/kg per step
  const double max_dwind = 15.0 / batch.dt;   // ≤ 15 m/s per step
  auto clamp = [](double v, double bound) {
    if (!std::isfinite(v)) return 0.0;
    return std::clamp(v, -bound, bound);
  };
  for (std::size_t c = 0; c < batch.ncols; ++c) {
    for (std::size_t k = 0; k < batch.nlev; ++k) {
      const std::size_t i = batch.at(c, k);
      batch.du[i] = clamp(out.tendencies.at3(c, 0, k), max_dwind);
      batch.dv[i] = clamp(out.tendencies.at3(c, 1, k), max_dwind);
      batch.dtemp[i] = clamp(out.tendencies.at3(c, 2, k), max_dtemp);
      batch.dq[i] = clamp(out.tendencies.at3(c, 3, k), max_dq);
    }
    batch.gsw[c] = std::clamp(static_cast<double>(out.fluxes.at2(c, 0)), 0.0,
                              1500.0);
    batch.glw[c] = std::clamp(static_cast<double>(out.fluxes.at2(c, 1)), 20.0,
                              700.0);
    // Precipitation diagnosed from the column moisture sink, as the AI suite
    // predicts tendencies rather than process rates.
    double sink = 0.0;
    for (std::size_t k = 0; k < batch.nlev; ++k) {
      const double dq = batch.dq[batch.at(c, k)];
      if (dq < 0.0) sink -= dq;
    }
    batch.precip[c] = sink;
  }

  if (cnn_opt_) {
    ++calls_;
    if (calls_ % online_.every_steps == 0) online_step(batch);
  }
}

double AiPhysics::flops_per_column(std::size_t nlev) const {
  (void)nlev;
  return suite_->flops_per_column();
}

TrainingData generate_training_data(const ConventionalPhysics& physics,
                                    std::size_t days, std::size_t steps_per_day,
                                    std::size_t nlev, std::uint64_t seed,
                                    double dt) {
  const std::size_t n = days * steps_per_day;
  TrainingData data;
  data.days = days;
  data.steps_per_day = steps_per_day;
  data.columns = tensor::Tensor({n, 5, nlev});
  data.tendencies = tensor::Tensor({n, 4, nlev});
  data.fluxes = tensor::Tensor({n, 2});
  data.tskin.resize(n);
  data.coszr.resize(n);

  Rng rng(seed);
  ColumnBatch batch(1, nlev);
  batch.dt = dt;
  ConventionalPhysics suite = physics;  // value copy: suite is stateless
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t day = s / steps_per_day;
    const std::size_t step = s % steps_per_day;
    // Seasonal cycle (20 days per season in the paper's corpus) plus a
    // diurnal cycle and weather noise.
    const double season = std::sin(2.0 * constants::kPi *
                                   static_cast<double>(day) /
                                   std::max<std::size_t>(days, 1));
    const double hour = 2.0 * constants::kPi * static_cast<double>(step) /
                        static_cast<double>(steps_per_day);
    const double lat_band = rng.uniform(-1.0, 1.0);  // sampled column latitude
    batch.tskin[0] = 288.0 + 12.0 * season - 25.0 * lat_band * lat_band +
                     3.0 * rng.normal();
    batch.coszr[0] = std::max(0.0, std::cos(hour) * (1.0 - 0.3 * lat_band * lat_band) +
                                       0.1 * rng.normal());
    for (std::size_t k = 0; k < nlev; ++k) {
      const double depth = static_cast<double>(k + 1) / static_cast<double>(nlev);
      const std::size_t i = batch.at(0, k);
      batch.temp[i] = 215.0 + (batch.tskin[0] - 215.0) * depth + 2.0 * rng.normal();
      batch.q[i] = 0.016 * std::exp(-4.0 * (1.0 - depth)) *
                   (1.0 + 0.4 * rng.normal());
      if (batch.q[i] < 0.0) batch.q[i] = 0.0;
      batch.u[i] = 12.0 * std::sin(3.0 * lat_band) + 4.0 * rng.normal();
      batch.v[i] = 3.0 * rng.normal();
      batch.pressure[i] = 1.0e5 * std::pow(depth, 1.2) + 2000.0;
    }
    suite.compute(batch);
    for (std::size_t k = 0; k < nlev; ++k) {
      const std::size_t i = batch.at(0, k);
      data.columns.at3(s, 0, k) = static_cast<float>(batch.u[i]);
      data.columns.at3(s, 1, k) = static_cast<float>(batch.v[i]);
      data.columns.at3(s, 2, k) = static_cast<float>(batch.temp[i]);
      data.columns.at3(s, 3, k) = static_cast<float>(batch.q[i]);
      data.columns.at3(s, 4, k) = static_cast<float>(batch.pressure[i]);
      data.tendencies.at3(s, 0, k) = static_cast<float>(batch.du[i]);
      data.tendencies.at3(s, 1, k) = static_cast<float>(batch.dv[i]);
      data.tendencies.at3(s, 2, k) = static_cast<float>(batch.dtemp[i]);
      data.tendencies.at3(s, 3, k) = static_cast<float>(batch.dq[i]);
    }
    data.fluxes.at2(s, 0) = static_cast<float>(batch.gsw[0]);
    data.fluxes.at2(s, 1) = static_cast<float>(batch.glw[0]);
    data.tskin[s] = batch.tskin[0];
    data.coszr[s] = batch.coszr[0];
  }
  return data;
}

TrainedSuite train_ai_physics(const TrainingData& data,
                              const ai::SuiteConfig& config, int epochs,
                              float lr) {
  AP3_REQUIRE(data.columns.dim(2) == static_cast<std::size_t>(config.levels));
  TrainedSuite out;
  out.suite = std::make_shared<ai::AiPhysicsSuite>(config);
  ai::AiPhysicsSuite& suite = *out.suite;

  const tensor::Tensor rad_inputs =
      suite.make_rad_inputs(data.columns, data.tskin, data.coszr);
  suite.fit_normalizers(data.columns, data.tendencies, rad_inputs, data.fluxes);

  // Train on normalized copies.
  tensor::Tensor x = data.columns;
  suite.input_norm().apply(x);
  tensor::Tensor y = data.tendencies;
  suite.tendency_norm().apply(y);
  tensor::Tensor rx = rad_inputs;
  suite.rad_input_norm().apply(rx);
  tensor::Tensor ry = data.fluxes;
  suite.flux_norm().apply(ry);

  const ai::DataSplit split =
      ai::DataSplit::make(data.days, data.steps_per_day, config.seed);
  ai::Trainer::Options options;
  options.epochs = epochs;
  options.batch = 16;
  options.lr = lr;
  const ai::TrainReport cnn_report =
      ai::Trainer::fit(suite.cnn().model(), x, y, split, options);
  const ai::TrainReport mlp_report =
      ai::Trainer::fit(suite.mlp().model(), rx, ry, split, options);
  out.tendency_r2 = cnn_report.test_r2;
  out.flux_r2 = mlp_report.test_r2;
  return out;
}

}  // namespace ap3::atm
