// A small deployable AI physics suite for tests that need one without the
// cost of training: handcrafted normalizers plus deterministic random
// weights (fresh networks have zero-initialized readouts, which would make
// inference trivially zero).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ai/suite.hpp"
#include "base/rng.hpp"

namespace ap3::testing {

inline std::shared_ptr<ai::AiPhysicsSuite> make_test_suite(std::size_t nlev) {
  ai::SuiteConfig sc;
  sc.cnn_hidden = 4;
  sc.mlp_hidden = 8;
  sc.levels = static_cast<int>(nlev);
  auto suite = std::make_shared<ai::AiPhysicsSuite>(sc);

  const std::vector<float> ch_mean = {0.0f, 0.0f, 260.0f, 1e-3f, 5e4f};
  const std::vector<float> ch_std = {10.0f, 10.0f, 30.0f, 2e-3f, 3e4f};
  const std::size_t rad_feat = 5 * nlev + 2;
  std::vector<float> rad_mean(rad_feat), rad_std(rad_feat);
  for (std::size_t f = 0; f < 5 * nlev; ++f) {
    rad_mean[f] = ch_mean[f / nlev];
    rad_std[f] = ch_std[f / nlev];
  }
  rad_mean[5 * nlev] = 288.0f;  // tskin
  rad_std[5 * nlev] = 15.0f;
  rad_mean[5 * nlev + 1] = 0.5f;  // coszr
  rad_std[5 * nlev + 1] = 0.3f;
  suite->set_normalizers(
      ai::ChannelNormalizer::from_raw(false, ch_mean, ch_std),
      ai::ChannelNormalizer::from_raw(
          false, {0.0f, 0.0f, 0.0f, 0.0f}, {1e-5f, 1e-5f, 1e-5f, 1e-7f}),
      ai::ChannelNormalizer::from_raw(true, std::move(rad_mean),
                                      std::move(rad_std)),
      ai::ChannelNormalizer::from_raw(true, {400.0f, 350.0f},
                                      {100.0f, 50.0f}));

  Rng wr(91);
  for (auto* model : {&suite->cnn().model(), &suite->mlp().model()}) {
    std::vector<float> w = model->save_weights();
    for (float& v : w) v = static_cast<float>(wr.normal() * 0.05);
    model->load_weights(w);
  }
  return suite;
}

}  // namespace ap3::testing
