#include "atm/model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "obs/obs.hpp"

namespace ap3::atm {

using constants::kDegToRad;
using constants::kPi;
using constants::kSecondsPerDay;

namespace {
constexpr double kRhoAir = 1.2;
constexpr double kDragCd = 1.3e-3;
}  // namespace

AtmModel::AtmModel(const par::Comm& comm, const AtmConfig& config,
                   const grid::IcosahedralGrid& mesh)
    : comm_(comm), config_(config) {
  dycore_ = std::make_unique<Dycore>(comm, config, mesh);
  physics_ = std::make_unique<ConventionalPhysics>();

  const LocalMesh& local = dycore_->mesh();
  std::vector<std::int64_t> owned(local.num_owned());
  for (std::size_t c = 0; c < owned.size(); ++c) owned[c] = local.global_id(c);
  gsmap_ = mct::GlobalSegMap::build(comm, owned);

  land_ = std::make_unique<lnd::LandModel>(local.num_owned());
  land_mask_.resize(local.num_owned());
  tskin_.resize(local.num_owned());
  sst_.resize(local.num_owned());
  ifrac_.assign(local.num_owned(), 0.0);
  gsw_.assign(local.num_owned(), 0.0);
  glw_.assign(local.num_owned(), 0.0);
  precip_.assign(local.num_owned(), 0.0);
  const auto nlev = static_cast<std::size_t>(config.nlev);
  level_pressure_factor_.resize(nlev);
  for (std::size_t k = 0; k < nlev; ++k) {
    const double depth = static_cast<double>(k + 1) / static_cast<double>(nlev);
    level_pressure_factor_[k] = std::pow(depth, 1.2);
  }
  for (std::size_t c = 0; c < local.num_owned(); ++c) {
    land_mask_[c] =
        grid::is_land_at(local.lon_rad(c), local.lat_rad(c), config.seed);
    const double coslat = std::cos(local.lat_rad(c));
    sst_[c] = 271.5 + 28.0 * coslat * coslat;  // default climatological SST
    tskin_[c] = land_mask_[c] ? 285.0 : sst_[c];
  }

  if (config_.stall_seconds_per_point > 0.0 && config_.stall_cell_begin >= 0)
    for (std::size_t c = 0; c < local.num_owned(); ++c)
      if (local.global_id(c) >= config_.stall_cell_begin) ++stall_points_;
}

std::vector<std::string> AtmModel::export_fields() {
  return {"taux", "tauy", "tbot", "qbot", "ps", "gsw", "glw", "precip"};
}

std::vector<std::string> AtmModel::import_fields() { return {"sst", "ifrac"}; }

void AtmModel::set_physics(std::unique_ptr<PhysicsSuite> suite) {
  AP3_REQUIRE(suite != nullptr);
  physics_ = std::move(suite);
}

double AtmModel::surface_pressure(std::size_t owned) const {
  // The shallow-water thickness plays the role of column mass.
  return 101325.0 * dycore_->state().h[owned] / config_.mean_depth_m;
}

double AtmModel::cos_zenith(std::size_t owned, double t_seconds) const {
  const LocalMesh& local = dycore_->mesh();
  const double day_of_year =
      std::fmod(t_seconds / kSecondsPerDay, constants::kDaysPerYear);
  const double declination =
      23.44 * kDegToRad *
      std::sin(2.0 * kPi * (day_of_year - 80.0) / constants::kDaysPerYear);
  const double hour_angle = 2.0 * kPi * std::fmod(t_seconds, kSecondsPerDay) /
                                kSecondsPerDay +
                            local.lon_rad(owned) - kPi;
  const double lat = local.lat_rad(owned);
  const double mu = std::sin(lat) * std::sin(declination) +
                    std::cos(lat) * std::cos(declination) * std::cos(hour_angle);
  return mu > 0.0 ? mu : 0.0;
}

void AtmModel::run(double start_seconds, double duration_seconds) {
  const double dt_model = config_.model_dt_seconds();
  const double steps_exact = duration_seconds / dt_model;
  const auto nsteps = static_cast<long long>(std::lround(steps_exact));
  AP3_REQUIRE_MSG(std::abs(steps_exact - static_cast<double>(nsteps)) < 1e-6 &&
                      nsteps >= 1,
                  "coupling window " << duration_seconds
                                     << " s is not a multiple of the model "
                                        "step "
                                     << dt_model << " s");
  for (long long s = 0; s < nsteps; ++s) {
    model_step(start_seconds + static_cast<double>(s) * dt_model);
    if (stall_points_ > 0) {
      const double stall_seconds =
          config_.stall_seconds_per_point * static_cast<double>(stall_points_);
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_seconds));
      // Export the busy time so the load balancer can tell this rank is the
      // straggler even though phase barriers equalize wall-clock spans.
      obs::counter_add(busy_counter_key(), stall_seconds);
    }
  }
}

void AtmModel::model_step(double t_seconds) {
  const double dt_dyn = config_.dycore_dt_seconds();
  const double dt_tracer = config_.tracer_dt_seconds();
  const double dt_model = config_.model_dt_seconds();

  for (int i = 0; i < config_.dycore_substeps; ++i)
    dycore_->step_dynamics(dt_dyn);
  for (int j = 0; j < config_.tracer_substeps; ++j)
    dycore_->step_tracers(dt_tracer);
  apply_physics(t_seconds, dt_model);
  ++steps_;
}

void AtmModel::apply_physics(double t_seconds, double dt) {
  const LocalMesh& local = dycore_->mesh();
  DycoreState& state = dycore_->state();
  const std::size_t n = local.num_owned();
  const auto nlev = state.nlev;

  // A column-local suite runs chunk by chunk through one small batch; any
  // other suite gets every owned column in one call (the chunk = n case).
  // The do-while makes one call even on a rank that owns no columns.
  const std::size_t chunk =
      physics_->column_local() ? std::min(kPhysicsChunkColumns, n) : n;
  ColumnBatch batch(chunk, nlev);
  batch.dt = dt;
  std::size_t lo = 0;
  do {
    const std::size_t ncols = std::min(chunk, n - lo);
    if (ncols != batch.ncols) batch.resize(ncols);
    for (std::size_t b = 0; b < ncols; ++b) {
      const std::size_t c = lo + b;
      double u_east = 0.0, v_north = 0.0;
      dycore_->wind_at(c, u_east, v_north);
      const double ps = surface_pressure(c);
      for (std::size_t k = 0; k < nlev; ++k) {
        const std::size_t i = batch.at(b, k);
        batch.u[i] = u_east;
        batch.v[i] = v_north;
        batch.temp[i] = state.temp[state.tq(c, k)];
        batch.q[i] = state.q[state.tq(c, k)];
        batch.pressure[i] = ps * level_pressure_factor_[k] + 2000.0;
      }
      batch.tskin[b] = tskin_[c];
      batch.coszr[b] = cos_zenith(c, t_seconds);
    }

    physics_->compute(batch);

    for (std::size_t b = 0; b < ncols; ++b) {
      const std::size_t c = lo + b;
      // Column tendencies back to the 3-D stacks.
      double du_mean = 0.0, dv_mean = 0.0;
      for (std::size_t k = 0; k < nlev; ++k) {
        const std::size_t i = batch.at(b, k);
        state.temp[state.tq(c, k)] += dt * batch.dtemp[i];
        double& q = state.q[state.tq(c, k)];
        q += dt * batch.dq[i];
        if (q < 0.0) q = 0.0;
        du_mean += batch.du[i];
        dv_mean += batch.dv[i];
      }
      du_mean /= static_cast<double>(nlev);
      dv_mean /= static_cast<double>(nlev);
      double u_east = 0.0, v_north = 0.0;
      dycore_->wind_at(c, u_east, v_north);
      dycore_->set_wind_at(c, u_east + dt * du_mean, v_north + dt * dv_mean);

      gsw_[c] = batch.gsw[b];
      glw_[c] = batch.glw[b];
      precip_[c] = batch.precip[b];

      // Directly-coupled land: radiation + precipitation in, skin state out.
      if (land_mask_[c]) {
        lnd::LandForcing forcing;
        forcing.gsw = gsw_[c];
        forcing.glw = glw_[c];
        forcing.t_air = batch.temp[batch.at(b, nlev - 1)];
        forcing.precip = precip_[c];
        const lnd::LandResponse response = land_->step_cell(c, dt, forcing);
        tskin_[c] = response.tskin;
      } else {
        tskin_[c] = ifrac_[c] * (constants::kSeawaterFreeze + constants::kT0) +
                    (1.0 - ifrac_[c]) * sst_[c];
      }
    }
    lo += ncols;
  } while (lo < n);
}

void AtmModel::export_state(mct::AttrVect& a2x) const {
  const LocalMesh& local = dycore_->mesh();
  AP3_REQUIRE(a2x.num_points() == local.num_owned());
  auto taux = a2x.field("taux");
  auto tauy = a2x.field("tauy");
  auto tbot = a2x.field("tbot");
  auto qbot = a2x.field("qbot");
  auto ps = a2x.field("ps");
  auto gsw = a2x.field("gsw");
  auto glw = a2x.field("glw");
  auto precip = a2x.field("precip");
  const DycoreState& state = dycore_->state();
  for (std::size_t c = 0; c < local.num_owned(); ++c) {
    double u_east = 0.0, v_north = 0.0;
    dycore_->wind_at(c, u_east, v_north);
    const double speed = std::sqrt(u_east * u_east + v_north * v_north);
    taux[c] = kRhoAir * kDragCd * speed * u_east;
    tauy[c] = kRhoAir * kDragCd * speed * v_north;
    tbot[c] = state.temp[state.tq(c, state.nlev - 1)];
    qbot[c] = state.q[state.tq(c, state.nlev - 1)];
    ps[c] = surface_pressure(c);
    gsw[c] = gsw_[c];
    glw[c] = glw_[c];
    precip[c] = precip_[c];
  }
}

void AtmModel::import_state(const mct::AttrVect& x2a) {
  const LocalMesh& local = dycore_->mesh();
  AP3_REQUIRE(x2a.num_points() == local.num_owned());
  const auto sst = x2a.field("sst");
  const auto ifrac = x2a.field("ifrac");
  // Coldest physical SST: seawater freezing point at 35 psu, in Kelvin.
  const double sst_floor = constants::kSeawaterFreeze + constants::kT0;
  double rejected = 0.0;
  for (std::size_t c = 0; c < local.num_owned(); ++c) {
    // Values at or below 200 K are fill-value sentinels from unmapped source
    // cells, not temperatures: keep the previous cached SST and count the
    // rejection. Accepted values clamp to physical bounds (regridding can
    // overshoot slightly near coasts). Land cells ignore the import entirely.
    if (!land_mask_[c]) {
      if (sst[c] <= 200.0) {
        rejected += 1.0;
      } else {
        sst_[c] = std::clamp(sst[c], sst_floor, 320.0);
      }
    }
    ifrac_[c] = std::clamp(ifrac[c], 0.0, 1.0);
  }
  if (rejected > 0.0) obs::counter_add("atm:import:sst_rejected", rejected);
}

std::vector<std::string> AtmModel::checkpoint_section_names() {
  // Keep in checkpoint_sections() order.
  return {"atm.h",      "atm.vx",     "atm.vy",        "atm.vz",
          "atm.temp",   "atm.q",      "atm.tskin",     "atm.sst",
          "atm.ifrac",  "atm.gsw",    "atm.glw",       "atm.precip",
          "atm.lnd_tskin", "atm.lnd_water", "atm.steps"};
}

std::vector<io::Section> AtmModel::checkpoint_sections() const {
  const DycoreState& state = dycore_->state();
  std::vector<io::Section> out;
  out.push_back({"atm.h", io::local_field(state.h)});
  out.push_back({"atm.vx", io::local_field(state.vx)});
  out.push_back({"atm.vy", io::local_field(state.vy)});
  out.push_back({"atm.vz", io::local_field(state.vz)});
  out.push_back({"atm.temp", io::local_field(state.temp)});
  out.push_back({"atm.q", io::local_field(state.q)});
  out.push_back({"atm.tskin", io::local_field(tskin_)});
  out.push_back({"atm.sst", io::local_field(sst_)});
  out.push_back({"atm.ifrac", io::local_field(ifrac_)});
  out.push_back({"atm.gsw", io::local_field(gsw_)});
  out.push_back({"atm.glw", io::local_field(glw_)});
  out.push_back({"atm.precip", io::local_field(precip_)});
  out.push_back({"atm.lnd_tskin", io::local_field(land_->tskin_state())});
  out.push_back({"atm.lnd_water", io::local_field(land_->water_state())});
  out.push_back({"atm.steps", io::rank_scalar(comm_.rank(),
                                              static_cast<double>(steps_))});
  return out;
}

void AtmModel::restore_sections(const std::vector<io::Section>& sections) {
  DycoreState& state = dycore_->state();
  state.h = io::section_values(sections, "atm.h", state.h.size());
  state.vx = io::section_values(sections, "atm.vx", state.vx.size());
  state.vy = io::section_values(sections, "atm.vy", state.vy.size());
  state.vz = io::section_values(sections, "atm.vz", state.vz.size());
  state.temp = io::section_values(sections, "atm.temp", state.temp.size());
  state.q = io::section_values(sections, "atm.q", state.q.size());
  tskin_ = io::section_values(sections, "atm.tskin", tskin_.size());
  sst_ = io::section_values(sections, "atm.sst", sst_.size());
  ifrac_ = io::section_values(sections, "atm.ifrac", ifrac_.size());
  gsw_ = io::section_values(sections, "atm.gsw", gsw_.size());
  glw_ = io::section_values(sections, "atm.glw", glw_.size());
  precip_ = io::section_values(sections, "atm.precip", precip_.size());
  land_->set_state(
      io::section_values(sections, "atm.lnd_tskin", land_->ncells()),
      io::section_values(sections, "atm.lnd_water", land_->ncells()));
  steps_ = static_cast<long long>(io::section_values(sections, "atm.steps", 1)[0]);
}

double AtmModel::global_mean_precip() const {
  const LocalMesh& local = dycore_->mesh();
  double sum = 0.0, area = 0.0;
  for (std::size_t c = 0; c < local.num_owned(); ++c) {
    sum += precip_[c] * local.area_m2(c);
    area += local.area_m2(c);
  }
  const double gsum = comm_.allreduce_value(sum, par::ReduceOp::kSum);
  const double garea = comm_.allreduce_value(area, par::ReduceOp::kSum);
  return gsum / garea;
}

}  // namespace ap3::atm
