// Checkpoint/restart: the versioned snapshot container (src/io/checkpoint),
// per-component section round-trips, and the coupled driver's bit-exact
// restart contract — running 2N windows straight must equal running N,
// checkpointing, restoring into a fresh model, and running N more.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "base/rng.hpp"
#include "coupler/clock.hpp"
#include "coupler/driver.hpp"
#include "harness.hpp"
#include "ice/ice.hpp"
#include "io/checkpoint.hpp"
#include "ocn/model.hpp"
#include "par/comm.hpp"
#include "toy_ai_suite.hpp"

namespace {

using namespace ap3;
using ap3::testing::expect_fields_equal;
using ap3::testing::make_test_suite;
using ap3::testing::run_ranks;
using ap3::testing::TempDir;

// Compare two section lists (same model type, same rank) bit-exactly.
void expect_sections_identical(const std::vector<io::Section>& actual,
                               const std::vector<io::Section>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t s = 0; s < actual.size(); ++s) {
    EXPECT_EQ(actual[s].name, expected[s].name);
    EXPECT_EQ(actual[s].data.ids, expected[s].data.ids) << actual[s].name;
    expect_fields_equal(actual[s].data.values, expected[s].data.values,
                        /*max_ulp=*/0, actual[s].name);
  }
}

// Flip one byte in the middle of `path` (corruption the checksum must catch).
void corrupt_file(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<long long>(f.tellg());
  ASSERT_GT(size, 0);
  f.seekg(size / 2);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(size / 2);
  f.write(&byte, 1);
}

void truncate_file(const std::string& path, std::size_t keep_bytes) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), keep_bytes);
  bytes.resize(keep_bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- the container ---------------------------------------------------------

TEST(CheckpointContainer, WriteReadRoundTrip) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    std::vector<double> field(8);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = comm.rank() * 100.0 + static_cast<double>(i) / 3.0;

    io::CheckpointWriter writer(comm, dir);
    writer.add_section("state.field", io::local_field(field));
    writer.add_section("state.count",
                       io::rank_scalar(comm.rank(), 7.0 + comm.rank()));
    writer.set_scalar("clock.steps", 42.0);
    writer.finalize();
    // Subfile bytes are accounted on the aggregator ranks that do the writes.
    const double total_bytes = comm.allreduce_value(
        static_cast<double>(writer.bytes_written()), par::ReduceOp::kSum);
    EXPECT_GT(total_bytes, 0.0);

    io::CheckpointReader reader(comm, dir);
    EXPECT_EQ(reader.section_names(),
              (std::vector<std::string>{"state.field", "state.count"}));
    EXPECT_TRUE(reader.has_section("state.field"));
    EXPECT_FALSE(reader.has_section("state.ghost"));
    EXPECT_TRUE(reader.has_scalar("clock.steps"));
    EXPECT_EQ(reader.scalar("clock.steps"), 42.0);
    EXPECT_THROW(reader.scalar("missing"), Error);

    const io::FieldData expected = io::local_field(field);
    const io::FieldData got = reader.read_section("state.field", expected.ids);
    EXPECT_EQ(got.ids, expected.ids);
    expect_fields_equal(got.values, field);

    const io::FieldData count = reader.read_section(
        "state.count", std::vector<std::int64_t>{comm.rank()});
    ASSERT_EQ(count.values.size(), 1u);
    EXPECT_EQ(count.values[0], 7.0 + comm.rank());
  });
}

TEST(CheckpointContainer, EmptyContributionsAreCollectiveSafe) {
  // Concurrent-layout ranks contribute empty FieldData for components they
  // don't own; the round-trip must still work and preserve ownership.
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(3, [&](par::Comm& comm) {
    io::FieldData local;  // only rank 1 owns anything
    if (comm.rank() == 1) local = io::local_field({3.25, -7.5});
    io::CheckpointWriter writer(comm, dir);
    writer.add_section("sparse", local);
    writer.finalize();

    io::CheckpointReader reader(comm, dir);
    const io::FieldData got = reader.read_section("sparse", local.ids);
    EXPECT_EQ(got.ids, local.ids);
    expect_fields_equal(got.values, local.values);
  });
}

TEST(CheckpointContainer, WriterRejectsMisuse) {
  TempDir tmp;
  run_ranks(1, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, tmp.file("bad"));
    EXPECT_THROW(writer.add_section("", io::local_field({1.0})), Error);
    EXPECT_THROW(writer.add_section("a/b", io::local_field({1.0})), Error);
    writer.add_section("ok", io::local_field({1.0}));
    EXPECT_THROW(writer.add_section("ok", io::local_field({1.0})), Error);
    writer.finalize();
    EXPECT_THROW(writer.add_section("late", io::local_field({1.0})), Error);
    EXPECT_THROW(writer.finalize(), Error);
  });
}

TEST(CheckpointContainer, MissingSnapshotRejected) {
  TempDir tmp;
  run_ranks(2, [&](par::Comm& comm) {
    EXPECT_THROW(io::CheckpointReader(comm, tmp.file("nowhere")), Error);
  });
}

TEST(CheckpointContainer, CorruptedManifestRejectedOnEveryRank) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    writer.add_section("f", io::local_field({1.0, 2.0}));
    writer.finalize();
  });
  corrupt_file(dir + "/MANIFEST.bin");
  run_ranks(2, [&](par::Comm& comm) {
    // Validation is symmetric: every rank throws (no rank deadlocks waiting
    // for a broadcast that never comes).
    EXPECT_THROW(io::CheckpointReader(comm, dir), Error);
  });
}

TEST(CheckpointContainer, TruncatedManifestRejected) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    writer.add_section("f", io::local_field({1.0, 2.0}));
    writer.set_scalar("s", 3.0);
    writer.finalize();
  });
  truncate_file(dir + "/MANIFEST.bin", 20);
  run_ranks(2, [&](par::Comm& comm) {
    EXPECT_THROW(io::CheckpointReader(comm, dir), Error);
  });
}

TEST(CheckpointContainer, CorruptedSectionPayloadRejected) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  const std::vector<std::int64_t> ids =
      io::local_field(std::vector<double>(16, 0.0)).ids;
  run_ranks(1, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    writer.add_section("f", io::local_field(std::vector<double>(16, 1.5)));
    writer.finalize();
  });
  // Zap the whole-record checksum footer of the section's subfile
  // (<dir>/f.0.bin); the reader must reject the payload even though the
  // manifest is intact.
  {
    std::fstream f(dir + "/f.0.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-8, std::ios::end);
    const std::uint64_t garbage = 0xdeadbeefdeadbeefULL;
    f.write(reinterpret_cast<const char*>(&garbage), 8);
  }
  run_ranks(1, [&](par::Comm& comm) {
    io::CheckpointReader reader(comm, dir);  // manifest is fine
    EXPECT_THROW(reader.read_section("f", ids), Error);
  });
}

TEST(CheckpointContainer, TamperedIdTableRejectedOnEveryRank) {
  // v1 only checksummed the value payload, so a flipped id byte slipped
  // through structural validation and was caught (at best) on the one rank
  // whose decomposition check noticed. The v2 whole-record checksum catches
  // it before parsing, and the world-level fold makes EVERY rank throw.
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    std::vector<double> field(16, 1.5 + comm.rank());
    writer.add_section("f", io::local_field(field));
    writer.finalize();
  });
  // v2 layout: magic 8 | version 4 | codec 4 | nranks 8 | counts i64[2] |
  // nruns u64 | runs (start,len)[...] | payload | checksum. Corrupt a byte
  // inside the id-run table.
  {
    std::fstream f(dir + "/f.0.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(8 + 4 + 4 + 8 + 2 * 8 + 8 + 4);  // mid-run
    const std::int64_t garbage = 9999;
    f.write(reinterpret_cast<const char*>(&garbage), 8);
  }
  run_ranks(2, [&](par::Comm& comm) {
    io::CheckpointReader reader(comm, dir);
    const std::vector<std::int64_t> ids =
        io::local_field(std::vector<double>(16, 0.0)).ids;
    int threw = 0;
    try {
      reader.read_section("f", ids);
    } catch (const Error&) {
      threw = 1;
    }
    const int total = comm.allreduce_value(threw, par::ReduceOp::kSum);
    EXPECT_EQ(total, comm.size());
  });
}

TEST(CheckpointContainer, RankCountMismatchRejected) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    writer.add_section("f", io::local_field({1.0}));
    writer.finalize();
  });
  run_ranks(3, [&](par::Comm& comm) {
    EXPECT_THROW(io::CheckpointReader(comm, dir), Error);
  });
}

TEST(CheckpointContainer, DecompositionMismatchRejected) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    writer.add_section("f", io::local_field({1.0, 2.0, 3.0}));
    writer.finalize();

    io::CheckpointReader reader(comm, dir);
    // Asking for a different id layout than was written is a hard error,
    // not silent corruption.
    std::vector<std::int64_t> wrong{0, 1};
    EXPECT_THROW(reader.read_section("f", wrong), Error);
  });
}

// ---- serializable leaf state ----------------------------------------------

TEST(RestartState, RngRoundTripResumesStream) {
  Rng rng(0xbeefULL);
  for (int i = 0; i < 37; ++i) rng.normal();  // leave a Marsaglia spare armed
  const RngState saved = rng.raw_state();

  std::vector<double> tail(32);
  for (double& v : tail) v = rng.normal();

  Rng resumed(1);  // different seed: state must come entirely from `saved`
  resumed.set_raw_state(saved);
  for (double expected : tail) EXPECT_EQ(resumed.normal(), expected);
}

TEST(RestartState, ClockRestoreMatchesAdvance) {
  cpl::Clock advanced(100.0, 480.0);
  const int alarm = advanced.add_alarm("ocn", 5);
  for (int s = 0; s < 13; ++s) advanced.advance();

  cpl::Clock restored(100.0, 480.0);
  const int alarm2 = restored.add_alarm("ocn", 5);
  restored.restore(13);

  EXPECT_EQ(restored.steps_taken(), advanced.steps_taken());
  EXPECT_DOUBLE_EQ(restored.now(), advanced.now());
  for (int s = 0; s < 10; ++s) {
    EXPECT_EQ(restored.ringing(alarm2), advanced.ringing(alarm));
    restored.advance();
    advanced.advance();
  }
  EXPECT_THROW(restored.restore(-1), Error);
}

// ---- per-component restart -------------------------------------------------

TEST(ComponentRestart, IceRoundTripsThroughContainer) {
  TempDir tmp;
  const std::string dir = tmp.file("ice_snap");
  run_ranks(2, [&](par::Comm& comm) {
    ice::IceConfig config;
    config.grid = grid::TripolarConfig{24, 18, 4};
    ice::IceModel model(comm, config);
    model.run(0.0, 4.0 * config.dt_seconds);

    io::CheckpointWriter writer(comm, dir);
    for (const auto& section : model.checkpoint_sections())
      writer.add_section(section);
    writer.finalize();

    ice::IceModel fresh(comm, config);
    io::CheckpointReader reader(comm, dir);
    std::vector<io::Section> restored;
    for (const auto& layout : fresh.checkpoint_sections())
      restored.push_back(
          {layout.name, reader.read_section(layout.name, layout.data.ids)});
    fresh.restore_sections(restored);
    EXPECT_EQ(fresh.steps(), model.steps());
    expect_sections_identical(fresh.checkpoint_sections(),
                              model.checkpoint_sections());

    // The restored model evolves bit-identically to the original.
    model.run(0.0, 2.0 * config.dt_seconds);
    fresh.run(0.0, 2.0 * config.dt_seconds);
    expect_sections_identical(fresh.checkpoint_sections(),
                              model.checkpoint_sections());
  });
}

TEST(ComponentRestart, OcnSectionsRestoreExactly) {
  run_ranks(2, [](par::Comm& comm) {
    ocn::OcnConfig config;
    config.grid = grid::TripolarConfig{24, 18, 4};
    ocn::OcnModel model(comm, config);
    model.run(0.0, 4.0 * config.baroclinic_dt_seconds());

    ocn::OcnModel fresh(comm, config);
    fresh.restore_sections(model.checkpoint_sections());
    EXPECT_EQ(fresh.baroclinic_steps(), model.baroclinic_steps());
    expect_sections_identical(fresh.checkpoint_sections(),
                              model.checkpoint_sections());

    const double dt = config.baroclinic_dt_seconds();
    model.run(4.0 * dt, 2.0 * dt);
    fresh.run(4.0 * dt, 2.0 * dt);
    expect_sections_identical(fresh.checkpoint_sections(),
                              model.checkpoint_sections());
  });
}

TEST(ComponentRestart, RestoreRejectsMissingSection) {
  run_ranks(1, [](par::Comm& comm) {
    ice::IceConfig config;
    config.grid = grid::TripolarConfig{24, 18, 4};
    ice::IceModel model(comm, config);
    std::vector<io::Section> sections = model.checkpoint_sections();
    sections.pop_back();
    EXPECT_THROW(model.restore_sections(sections), Error);
  });
}

// ---- coupled driver --------------------------------------------------------

cpl::CoupledConfig restart_config() {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;  // 500 cells
  config.atm.nlev = 6;
  config.ocn.grid = grid::TripolarConfig{40, 30, 6};
  config.ocn_couple_ratio = 2;  // exercise the ocean phase within few windows
  return config;
}

// The central contract: run 2N windows straight vs N + checkpoint +
// restore-into-fresh-model + N. Hashes (FNV over every checkpointed byte on
// every rank) must be identical at the checkpoint and at the end.
void expect_bit_exact_restart(int nranks, const cpl::CoupledConfig& config) {
  TempDir tmp;
  const std::string dir = tmp.file("cpl_snap");
  constexpr int kWindows = 4;

  std::uint64_t hash_mid = 0, hash_end = 0;
  run_ranks(nranks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(kWindows);
    model.checkpoint(dir);
    const std::uint64_t mid = model.state_hash();  // collective
    model.run_windows(kWindows);
    const std::uint64_t end = model.state_hash();  // collective
    if (comm.rank() == 0) {
      hash_mid = mid;
      hash_end = end;
    }
  });

  run_ranks(nranks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.restore(dir);
    EXPECT_EQ(model.windows_run(), kWindows);
    const std::uint64_t mid = model.state_hash();  // collective
    model.run_windows(kWindows);
    const std::uint64_t end = model.state_hash();  // collective
    if (comm.rank() == 0) {
      EXPECT_EQ(mid, hash_mid) << "restore is not bit-exact";
      EXPECT_EQ(end, hash_end)
          << "resumed trajectory diverged from the uninterrupted run";
    }
  });
}

TEST(CoupledRestart, SequentialLayoutBitExact) {
  expect_bit_exact_restart(2, restart_config());
}

// ---- streaming (async) checkpoints ------------------------------------------

// The async writer snapshots state at checkpoint_async() time while the
// gather+encode+write overlaps the next windows. The snapshot must still be
// bit-exact: N + ckpt_async + restore + N ≡ 2N, with the model advancing
// WHILE the checkpoint drains.
TEST(CoupledRestart, AsyncCheckpointBitExact) {
  const cpl::CoupledConfig config = restart_config();
  TempDir tmp;
  const std::string dir = tmp.file("cpl_async");
  constexpr int kWindows = 4;

  std::uint64_t hash_mid = 0, hash_end = 0;
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(kWindows);
    model.checkpoint_async(dir);
    const std::uint64_t mid = model.state_hash();
    model.run_windows(kWindows);  // overlaps the in-flight write
    const std::uint64_t end = model.state_hash();
    model.checkpoint_wait();
    EXPECT_EQ(model.checkpoints_in_flight(), 0u);
    if (comm.rank() == 0) {
      hash_mid = mid;
      hash_end = end;
    }
  });

  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.restore(dir);
    EXPECT_EQ(model.windows_run(), kWindows);
    const std::uint64_t mid = model.state_hash();
    model.run_windows(kWindows);
    const std::uint64_t end = model.state_hash();
    if (comm.rank() == 0) {
      EXPECT_EQ(mid, hash_mid) << "async snapshot is not bit-exact";
      EXPECT_EQ(end, hash_end)
          << "trajectory diverged after restoring an async snapshot";
    }
  });
}

// At most two snapshots may be in flight; a third checkpoint_async must
// fence the oldest first (back-pressure, not unbounded memory), and every
// fenced snapshot must be restorable.
TEST(CoupledRestart, AsyncCheckpointBackPressure) {
  const cpl::CoupledConfig config = restart_config();
  TempDir tmp;
  const std::string d1 = tmp.file("s1"), d2 = tmp.file("s2"),
                    d3 = tmp.file("s3");
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(1);
    model.checkpoint_async(d1);
    model.run_windows(1);
    model.checkpoint_async(d2);
    EXPECT_LE(model.checkpoints_in_flight(), 2u);
    model.run_windows(1);
    model.checkpoint_async(d3);
    EXPECT_LE(model.checkpoints_in_flight(), 2u);
    model.checkpoint_wait();
    EXPECT_EQ(model.checkpoints_in_flight(), 0u);

    for (const auto& [dir, windows] :
         {std::pair<std::string, int>{d1, 1}, {d2, 2}, {d3, 3}}) {
      cpl::CoupledModel fresh(comm, config);
      fresh.restore(dir);
      EXPECT_EQ(fresh.windows_run(), windows) << dir;
    }
  });
}

// Re-issuing checkpoint_async to the SAME directory must finalize the
// pending snapshot for that dir first (never two writers racing one path).
TEST(CoupledRestart, AsyncCheckpointSameDirSerializes) {
  const cpl::CoupledConfig config = restart_config();
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(1);
    model.checkpoint_async(dir);
    model.run_windows(1);
    model.checkpoint_async(dir);  // finalizes the first, starts a second
    model.checkpoint_wait();

    cpl::CoupledModel fresh(comm, config);
    fresh.restore(dir);  // latest snapshot wins
    EXPECT_EQ(fresh.windows_run(), 2);
  });
}

// ---- precision-aware (group-scaled) checkpoints -----------------------------

bool lossless_required(const std::string& name) {
  // Mirrors the driver's policy: control/RNG/counter state must round-trip
  // bit-exactly even under a lossy field codec.
  if (name == "cpl.rng" || name == "cpl.balance_busy" ||
      name == "cpl.ai.train")
    return true;
  const std::string suffix = ".steps";
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Group-scaled snapshots trade bit-exactness of field data for ~2x smaller
// checkpoints. The restore must land within the codec's ULP bound on every
// field value, and control state (RNG words, counters) must still be exact.
TEST(CoupledRestart, GroupScaledRestoreWithinUlpBound) {
  cpl::CoupledConfig config = restart_config();
  config.checkpoint.codec.codec = io::Codec::kGroupScaled;
  TempDir tmp;
  const std::string dir = tmp.file("cpl_gs");

  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(2);
    model.checkpoint(dir);
    const auto original = model.local_checkpoint_sections();

    cpl::CoupledModel fresh(comm, config);
    fresh.restore(dir);
    EXPECT_EQ(fresh.windows_run(), 2);
    const auto restored = fresh.local_checkpoint_sections();

    ASSERT_EQ(restored.size(), original.size());
    for (const auto& [name, data] : original) {
      const auto it = restored.find(name);
      ASSERT_NE(it, restored.end()) << name;
      ASSERT_EQ(it->second.values.size(), data.values.size()) << name;
      const std::uint64_t bound =
          lossless_required(name) ? 0 : config.checkpoint.codec.ulp_bound;
      expect_fields_equal(it->second.values, data.values, bound, name);
    }
  });
}

// An unmeetable ULP bound must hard-fail the checkpoint on EVERY rank at
// the finalize fence — never write a snapshot that silently violates it.
TEST(CoupledRestart, GroupScaledImpossibleBoundFailsOnEveryRank) {
  cpl::CoupledConfig config = restart_config();
  config.checkpoint.codec.codec = io::Codec::kGroupScaled;
  config.checkpoint.codec.ulp_bound = 0;  // demands losslessness from fp32
  TempDir tmp;
  const std::string dir = tmp.file("cpl_gs0");
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(1);
    int threw = 0;
    try {
      model.checkpoint(dir);
    } catch (const Error&) {
      threw = 1;
    }
    const int total = comm.allreduce_value(threw, par::ReduceOp::kSum);
    EXPECT_EQ(total, comm.size());
  });
}

// ---- AI physics with online training ---------------------------------------

// The satellite contract of this PR: with the AI suite deployed AND
// fine-tuning itself online every step (so the network weights and Adam
// moments are evolving prognostic state), N + restore + N must still equal
// 2N bit for bit — which requires the cpl.ai.cnn_w / cpl.ai.mlp_w /
// cpl.ai.train checkpoint sections to round-trip exactly.
TEST(CoupledRestart, OnlineTrainingBitExact) {
  const cpl::CoupledConfig config = restart_config();
  TempDir tmp;
  const std::string dir = tmp.file("cpl_snap_ai");
  constexpr int kWindows = 3;
  constexpr int kRanks = 2;

  atm::OnlineTrainingConfig online;
  online.every_steps = 1;
  online.sample_cols = 4;
  online.lr = 1e-3f;
  ai::EngineConfig engine;
  engine.micro_batch = 32;

  auto install = [&](cpl::CoupledModel& model) {
    model.install_ai_physics(
        cpl::AiInstallOptions{make_test_suite(6), engine, online});
  };

  std::uint64_t hash_mid = 0, hash_end = 0;
  run_ranks(kRanks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    install(model);
    model.run_windows(kWindows);
    model.checkpoint(dir);
    const std::uint64_t mid = model.state_hash();
    model.run_windows(kWindows);
    const std::uint64_t end = model.state_hash();
    if (comm.rank() == 0) {
      hash_mid = mid;
      hash_end = end;
    }
  });

  run_ranks(kRanks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    install(model);  // fresh weights; restore must overwrite them
    model.restore(dir);
    const std::uint64_t mid = model.state_hash();
    model.run_windows(kWindows);
    const std::uint64_t end = model.state_hash();
    if (comm.rank() == 0) {
      EXPECT_EQ(mid, hash_mid) << "AI restore is not bit-exact";
      EXPECT_EQ(end, hash_end)
          << "resumed online-training trajectory diverged";
    }
  });
}

// Restoring a training-enabled checkpoint into a model without online
// training (or vice versa) must be rejected, not silently resumed.
TEST(CoupledRestart, OnlineTrainingFlagMismatchRejected) {
  const cpl::CoupledConfig config = restart_config();
  TempDir tmp;
  const std::string dir = tmp.file("cpl_snap_ai_flag");
  atm::OnlineTrainingConfig online;
  online.sample_cols = 4;
  run_ranks(1, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.install_ai_physics(
        cpl::AiInstallOptions{make_test_suite(6), {}, online});
    model.run_windows(1);
    model.checkpoint(dir);

    cpl::CoupledModel plain(comm, config);
    cpl::AiInstallOptions plain_opts;
    plain_opts.suite = make_test_suite(6);
    plain.install_ai_physics(plain_opts);
    EXPECT_THROW(plain.restore(dir), Error);
  });
}

TEST(CoupledRestart, ConcurrentLayoutBitExact) {
  cpl::CoupledConfig config = restart_config();
  config.layout = cpl::Layout::kConcurrent;
  expect_bit_exact_restart(4, config);
}

TEST(CoupledRestart, ConfigMismatchRejected) {
  TempDir tmp;
  const std::string dir = tmp.file("cpl_snap");
  const cpl::CoupledConfig config = restart_config();
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(1);
    model.checkpoint(dir);

    cpl::CoupledConfig other = config;
    other.ocn_couple_ratio = 3;
    cpl::CoupledModel wrong(comm, other);
    EXPECT_THROW(wrong.restore(dir), Error);
  });
}

TEST(CoupledRestart, MissingSnapshotRejected) {
  TempDir tmp;
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, restart_config());
    EXPECT_THROW(model.restore(tmp.file("not_there")), Error);
  });
}

TEST(CoupledRestart, CorruptedSnapshotRejected) {
  TempDir tmp;
  const std::string dir = tmp.file("cpl_snap");
  const cpl::CoupledConfig config = restart_config();
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    model.run_windows(1);
    model.checkpoint(dir);
  });
  corrupt_file(dir + "/MANIFEST.bin");
  run_ranks(2, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, config);
    EXPECT_THROW(model.restore(dir), Error);
  });
}

}  // namespace
