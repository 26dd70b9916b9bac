// End-to-end finite-difference verification of TinyBert: gradients of a
// scalar loss on the [CLS] output are checked against central differences
// for EVERY parameter of the model — token/position/segment embeddings,
// the embedding LayerNorm, and all transformer-block parameters — with a
// service vector injected mid-sequence, so the injection path (fixed
// vector, no token-table gradient) is exercised too.

#include <gtest/gtest.h>

#include "grad_check.h"
#include "nn/parameter.h"
#include "tensor/init.h"
#include "text/tiny_bert.h"
#include "text/tokenizer.h"

namespace pkgm::text {
namespace {

TEST(TinyBertGradCheck, AllParametersMatchFiniteDifference) {
  TinyBertConfig cfg;
  cfg.vocab_size = 20;
  cfg.dim = 8;
  cfg.layers = 1;
  cfg.heads = 2;
  cfg.ff_dim = 16;
  cfg.max_len = 8;
  cfg.seed = 3;
  TinyBert bert(cfg);

  EncodedInput input;
  input.token_ids = {kClsId, 7, 9, kPadId, kSepId};
  input.segment_ids = {0, 0, 1, 1, 1};
  input.valid_len = 5;
  // Injected service vector replacing token 3's embedding.
  Rng rng(11);
  Vec service(cfg.dim);
  UniformInit(cfg.dim, -0.5f, 0.5f, &rng, service.data());
  input.injected.emplace_back(3, service);

  // Fixed loss coefficients over the CLS vector.
  Vec coeff(cfg.dim);
  UniformInit(cfg.dim, -1.0f, 1.0f, &rng, coeff.data());

  auto loss = [&] {
    Vec cls;
    bert.EncodeCls(input, &cls);
    double acc = 0;
    for (uint32_t j = 0; j < cfg.dim; ++j) {
      acc += static_cast<double>(cls[j]) * coeff[j];
    }
    return acc;
  };

  // One forward + backward to populate analytic gradients.
  std::vector<nn::Parameter*> params = bert.Params();
  nn::ZeroAllGrads(params);
  loss();
  bert.BackwardFromCls(input, coeff);

  for (nn::Parameter* p : params) {
    // Token-table rows for absent ids have zero grads and zero numeric
    // grads, so checking the full tables is safe, but subsample large ones
    // to keep the test quick.
    const size_t stride = p->size() > 64 ? 7 : 1;
    auto result = nn::CheckParameterGradient(p, loss, 1e-3, stride);
    EXPECT_LT(result.max_rel_error, 3e-2) << p->name;
    EXPECT_GT(result.checked, 0u) << p->name;
  }
}

TEST(TinyBertGradCheck, SequenceBackwardMatchesFiniteDifference) {
  TinyBertConfig cfg;
  cfg.vocab_size = 16;
  cfg.dim = 8;
  cfg.layers = 1;
  cfg.heads = 2;
  cfg.ff_dim = 16;
  cfg.max_len = 6;
  cfg.seed = 5;
  TinyBert bert(cfg);

  EncodedInput input;
  input.token_ids = {kClsId, 6, 7, kSepId};
  input.valid_len = 4;

  Rng rng(13);
  Mat coeff(4, cfg.dim);
  UniformInit(coeff.size(), -1.0f, 1.0f, &rng, coeff.data());

  auto loss = [&] {
    Mat seq;
    bert.EncodeSequence(input, &seq);
    double acc = 0;
    for (size_t i = 0; i < seq.size(); ++i) {
      acc += static_cast<double>(seq.data()[i]) * coeff.data()[i];
    }
    return acc;
  };

  std::vector<nn::Parameter*> params = bert.Params();
  nn::ZeroAllGrads(params);
  loss();
  bert.BackwardSequence(input, coeff);

  for (nn::Parameter* p : params) {
    const size_t stride = p->size() > 64 ? 5 : 1;
    auto result = nn::CheckParameterGradient(p, loss, 1e-3, stride);
    EXPECT_LT(result.max_rel_error, 3e-2) << p->name;
  }
}

}  // namespace
}  // namespace pkgm::text
