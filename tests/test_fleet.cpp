// Tests for the ensemble fleet: N coupled members per process over one
// shared immutable SharedInputs context, behind the scenario-centric
// construction API.
//
// The load-bearing property is the determinism contract: a member's
// trajectory (witnessed by the collective state_hash) depends only on its
// ScenarioSpec — not on the fleet size, not on the member ordering, not on
// whether inputs are shared or rebuilt, and not on transport faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "base/error.hpp"
#include "coupler/driver.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "par/comm.hpp"
#include "toy_ai_suite.hpp"

namespace {

using namespace ap3;
using ap3::testing::heavy_fault_plan;
using ap3::testing::make_test_suite;
using ap3::testing::run_ranks;

cpl::CoupledConfig fleet_config() {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;  // 500 cells
  config.atm.nlev = 6;
  config.ocn.grid = grid::TripolarConfig{40, 30, 6};
  config.ocn_couple_ratio = 5;
  return config;
}

/// A spec with a distinct nonzero perturbation per label.
cpl::ScenarioSpec make_spec(const cpl::CoupledConfig& config,
                            std::uint64_t seed,
                            std::shared_ptr<const cpl::SharedInputs> shared) {
  cpl::ScenarioSpec spec;
  spec.config = config;
  spec.perturbation_seed = seed;
  spec.name = "seed-" + std::to_string(seed);
  spec.shared = std::move(shared);
  return spec;
}

/// Run one spec solo and return its collective state hash after `windows`.
std::uint64_t solo_hash(par::Comm& comm, cpl::ScenarioSpec spec, int windows) {
  cpl::CoupledModel model(comm, std::move(spec));
  model.run_windows(windows);
  return model.state_hash();
}

// ---- construction validation ------------------------------------------------

TEST(FleetValidation, RejectsEmptySpecList) {
  run_ranks(1, [](par::Comm& comm) {
    EXPECT_THROW(fleet::EnsembleFleet(comm, {}), ap3::Error);
  });
}

TEST(FleetValidation, RejectsIncompatibleMemberConfigs) {
  run_ranks(1, [](par::Comm& comm) {
    const cpl::CoupledConfig config = fleet_config();
    cpl::CoupledConfig other = config;
    other.atm.nlev = 8;
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 1, nullptr));
    specs.push_back(make_spec(other, 2, nullptr));
    EXPECT_THROW(fleet::EnsembleFleet(comm, std::move(specs)), ap3::Error);
  });
}

TEST(FleetValidation, RejectsRuntimeRebalancing) {
  run_ranks(1, [](par::Comm& comm) {
    cpl::CoupledConfig config = fleet_config();
    config.rebalance_every = 3;
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 1, nullptr));
    EXPECT_THROW(fleet::EnsembleFleet(comm, std::move(specs)), ap3::Error);
  });
}

TEST(FleetValidation, RejectsCallerProvidedPlans) {
  run_ranks(1, [](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(fleet_config(), 1, nullptr));
    specs[0].adopt_plans = std::make_shared<const cpl::CouplingPlans>();
    EXPECT_THROW(fleet::EnsembleFleet(comm, std::move(specs)), ap3::Error);
  });
}

TEST(FleetValidation, RejectsMixedSharedContexts) {
  const cpl::CoupledConfig config = fleet_config();
  const auto shared_a = cpl::build_shared_inputs(config);
  const auto shared_b = cpl::build_shared_inputs(config);
  run_ranks(1, [&](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 1, shared_a));
    specs.push_back(make_spec(config, 2, shared_b));
    EXPECT_THROW(fleet::EnsembleFleet(comm, std::move(specs)), ap3::Error);
  });
}

TEST(FleetValidation, RejectsOnlineTrainingOnMultiMemberFleet) {
  const cpl::CoupledConfig config = fleet_config();
  const auto shared = cpl::build_shared_inputs(config);
  run_ranks(1, [&](par::Comm& comm) {
    fleet::EnsembleFleet fl(
        comm, fleet::EnsembleFleet::perturbed_specs(config, 2, shared));
    cpl::AiInstallOptions options;
    options.suite = make_test_suite(6);
    options.online = atm::OnlineTrainingConfig{};
    EXPECT_THROW(fl.install_ai_physics(options), ap3::Error);
  });
}

TEST(FleetValidation, InstallWithoutSuiteRequiresFrozenWeights) {
  const cpl::CoupledConfig config = fleet_config();
  const auto shared = cpl::build_shared_inputs(config);  // no frozen suite
  run_ranks(1, [&](par::Comm& comm) {
    fleet::EnsembleFleet fl(
        comm, fleet::EnsembleFleet::perturbed_specs(config, 2, shared));
    EXPECT_THROW(fl.install_ai_physics(), ap3::Error);
  });
}

// ---- determinism contract ---------------------------------------------------

// The central property: member k's state hash is invariant to the fleet it
// runs in. Solo runs of specs A and B must match the same specs inside a
// 4-member fleet AND inside a reordered 2-member fleet {B, A}.
TEST(Fleet, MemberHashInvariantToFleetSizeAndOrdering) {
  constexpr int kRanks = 2;
  constexpr int kWindows = 5;
  const cpl::CoupledConfig config = fleet_config();
  const auto shared = cpl::build_shared_inputs(config);

  std::uint64_t hash_a = 0, hash_b = 0;
  run_ranks(kRanks, [&](par::Comm& comm) {
    const std::uint64_t a = solo_hash(comm, make_spec(config, 7001, shared),
                                      kWindows);
    const std::uint64_t b = solo_hash(comm, make_spec(config, 7002, shared),
                                      kWindows);
    if (comm.rank() == 0) {
      hash_a = a;
      hash_b = b;
    }
  });
  // Distinct perturbations produce distinct trajectories.
  EXPECT_NE(hash_a, hash_b);

  run_ranks(kRanks, [&](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    for (std::uint64_t seed : {7001, 7002, 7003, 7004})
      specs.push_back(make_spec(config, seed, shared));
    fleet::EnsembleFleet fl(comm, std::move(specs));
    fl.run_windows(kWindows);
    const auto hashes = fl.state_hashes();
    if (comm.rank() == 0) {
      EXPECT_EQ(hashes[0], hash_a) << "member 0 diverged from its solo run";
      EXPECT_EQ(hashes[1], hash_b) << "member 1 diverged from its solo run";
    }
  });

  run_ranks(kRanks, [&](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 7002, shared));  // reversed order
    specs.push_back(make_spec(config, 7001, shared));
    fleet::EnsembleFleet fl(comm, std::move(specs));
    fl.run_windows(kWindows);
    const auto hashes = fl.state_hashes();
    if (comm.rank() == 0) {
      EXPECT_EQ(hashes[0], hash_b) << "ordering changed member-B trajectory";
      EXPECT_EQ(hashes[1], hash_a) << "ordering changed member-A trajectory";
    }
  });
}

// Same contract under an adversarial transport: drops, duplicates, delays,
// and stalls must not change any member's bits.
TEST(Fleet, MemberHashSurvivesTransportFaults) {
  constexpr int kRanks = 2;
  constexpr int kWindows = 5;
  const cpl::CoupledConfig config = fleet_config();
  const auto shared = cpl::build_shared_inputs(config);

  std::uint64_t hash_a = 0, hash_b = 0;
  run_ranks(kRanks, [&](par::Comm& comm) {
    const std::uint64_t a = solo_hash(comm, make_spec(config, 7001, shared),
                                      kWindows);
    const std::uint64_t b = solo_hash(comm, make_spec(config, 7002, shared),
                                      kWindows);
    if (comm.rank() == 0) {
      hash_a = a;
      hash_b = b;
    }
  });

  run_ranks(kRanks, heavy_fault_plan(20260808), [&](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 7001, shared));
    specs.push_back(make_spec(config, 7002, shared));
    fleet::EnsembleFleet fl(comm, std::move(specs));
    fl.run_windows(kWindows);
    const auto hashes = fl.state_hashes();
    if (comm.rank() == 0) {
      EXPECT_EQ(hashes[0], hash_a) << "faults changed member-A trajectory";
      EXPECT_EQ(hashes[1], hash_b) << "faults changed member-B trajectory";
    }
  });
}

// The unperturbed control member (seed 0, shared inputs, donated plans) is
// bit-identical to the legacy construction path with no scenario at all.
TEST(Fleet, ControlMemberMatchesLegacySoloConstruction) {
  constexpr int kRanks = 2;
  constexpr int kWindows = 5;
  const cpl::CoupledConfig config = fleet_config();
  const auto shared = cpl::build_shared_inputs(config);

  std::uint64_t legacy = 0;
  run_ranks(kRanks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);  // legacy ctor: no spec, no shared
    model.run_windows(kWindows);
    const std::uint64_t h = model.state_hash();
    if (comm.rank() == 0) legacy = h;
  });

  run_ranks(kRanks, [&](par::Comm& comm) {
    fleet::EnsembleFleet fl(
        comm, fleet::EnsembleFleet::perturbed_specs(config, 3, shared));
    EXPECT_EQ(fl.spec(0).perturbation_seed, 0u);
    fl.run_windows(kWindows);
    const auto hashes = fl.state_hashes();
    if (comm.rank() == 0) {
      EXPECT_EQ(hashes[0], legacy)
          << "shared-inputs control diverged from the legacy solo path";
      EXPECT_NE(hashes[1], legacy);  // perturbed members actually diverge
      EXPECT_NE(hashes[2], hashes[1]);
    }
  });
}

// Concurrent task layout: the fleet donates plans across a partitioned
// communicator too.
TEST(Fleet, ConcurrentLayoutMembersMatchSolo) {
  constexpr int kRanks = 2;
  constexpr int kWindows = 5;
  cpl::CoupledConfig config = fleet_config();
  config.layout = cpl::Layout::kConcurrent;
  config.atm_ranks = 1;
  const auto shared = cpl::build_shared_inputs(config);

  std::uint64_t hash_a = 0;
  run_ranks(kRanks, [&](par::Comm& comm) {
    const std::uint64_t a = solo_hash(comm, make_spec(config, 7001, shared),
                                      kWindows);
    if (comm.rank() == 0) hash_a = a;
  });

  run_ranks(kRanks, [&](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 7001, shared));
    specs.push_back(make_spec(config, 7002, shared));
    fleet::EnsembleFleet fl(comm, std::move(specs));
    fl.run_windows(kWindows);
    const auto hashes = fl.state_hashes();
    if (comm.rank() == 0) {
      EXPECT_EQ(hashes[0], hash_a);
    }
  });
}

// ---- shared AI serving ------------------------------------------------------

// Frozen weights in the SharedInputs context thaw into ONE rank-local suite
// serving every member: the engine's column counter must show the whole
// fleet's traffic (2 members => exactly twice the solo count), and a fleet
// member must stay bit-identical to a solo run thawed from the same frozen
// record.
TEST(Fleet, SharedSuiteServesAllMembersBitExactly) {
  constexpr int kRanks = 1;
  constexpr int kWindows = 5;
  const cpl::CoupledConfig config = fleet_config();
  const auto suite = make_test_suite(6);
  const auto shared = cpl::build_shared_inputs(config, *suite);
  ASSERT_TRUE(shared->has_frozen_suite());

  std::uint64_t solo = 0;
  std::uint64_t solo_columns = 0;
  run_ranks(kRanks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, make_spec(config, 7001, shared));
    auto thawed = shared->materialize_suite();
    cpl::AiInstallOptions options;
    options.suite = thawed;
    model.install_ai_physics(options);
    model.run_windows(kWindows);
    const std::uint64_t h = model.state_hash();
    if (comm.rank() == 0) {
      solo = h;
      solo_columns = thawed->engine().stats().columns;
    }
  });
  EXPECT_GT(solo_columns, 0u);

  run_ranks(kRanks, [&](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs;
    specs.push_back(make_spec(config, 7001, shared));
    specs.push_back(make_spec(config, 7002, shared));
    fleet::EnsembleFleet fl(comm, std::move(specs));
    fl.install_ai_physics();  // thaw the frozen weights once for this rank
    ASSERT_NE(fl.shared_suite(), nullptr);
    fl.run_windows(kWindows);
    const auto hashes = fl.state_hashes();
    const std::uint64_t fleet_columns =
        fl.shared_suite()->engine().stats().columns;
    if (comm.rank() == 0) {
      EXPECT_EQ(hashes[0], solo)
          << "fleet member with shared suite diverged from solo thawed run";
      // One engine serving two members sees exactly double the traffic.
      EXPECT_EQ(fleet_columns, 2 * solo_columns);
    }
  });
}

// The engine's SIMD pack width (pp/pack.hpp) is a pure performance knob:
// thawing the shared frozen suite with any pack width — including the scalar
// reference path — must leave every member's state_hash unchanged.
TEST(Fleet, MemberHashInvariantToEnginePackWidth) {
  constexpr int kRanks = 1;
  constexpr int kWindows = 3;
  const cpl::CoupledConfig config = fleet_config();
  const auto suite = make_test_suite(6);
  const auto shared = cpl::build_shared_inputs(config, *suite);
  ASSERT_TRUE(shared->has_frozen_suite());

  std::vector<std::vector<std::uint64_t>> runs;
  for (std::size_t width : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    run_ranks(kRanks, [&](par::Comm& comm) {
      std::vector<cpl::ScenarioSpec> specs;
      specs.push_back(make_spec(config, 9001, shared));
      specs.push_back(make_spec(config, 9002, shared));
      fleet::EnsembleFleet fl(comm, std::move(specs));
      cpl::AiInstallOptions options;  // suite left null: thaw the frozen one
      options.engine.pack_width = width;
      fl.install_ai_physics(options);
      fl.run_windows(kWindows);
      const auto hashes = fl.state_hashes();
      if (comm.rank() == 0) runs.push_back(hashes);
    });
  }
  ASSERT_EQ(runs.size(), 3u);
  for (std::size_t r = 1; r < runs.size(); ++r)
    EXPECT_EQ(runs[r], runs[0])
        << "member hashes changed with engine pack width (run " << r << ")";
}

}  // namespace
