#include <gtest/gtest.h>

#include <cmath>

#include "grad_check.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "nn/transformer.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace pkgm::nn {
namespace {

constexpr double kGradTol = 2e-2;  // float32 + central differences

// A scalar "loss" that exercises every output element: sum of x .* c for a
// fixed pseudo-random coefficient tensor c.
Mat MakeCoefficients(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Mat c(rows, cols);
  UniformInit(c.size(), -1.0f, 1.0f, &rng, c.data());
  return c;
}

double WeightedSum(const Mat& x, const Mat& c) {
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(x.data()[i]) * c.data()[i];
  }
  return acc;
}

// ------------------------------------------------------------ Activations --

TEST(ActivationsTest, ReluForward) {
  Mat x(1, 4);
  x(0, 0) = -1;
  x(0, 1) = 0;
  x(0, 2) = 2;
  x(0, 3) = -3;
  Mat y(1, 4);
  ActivationForward(Activation::kRelu, x, &y);
  EXPECT_FLOAT_EQ(y(0, 0), 0);
  EXPECT_FLOAT_EQ(y(0, 2), 2);
}

TEST(ActivationsTest, SigmoidRange) {
  EXPECT_NEAR(SigmoidScalar(0.0f), 0.5f, 1e-6);
  EXPECT_GT(SigmoidScalar(10.0f), 0.999f);
  EXPECT_LT(SigmoidScalar(-10.0f), 0.001f);
  // Stability at extremes.
  EXPECT_FALSE(std::isnan(SigmoidScalar(500.0f)));
  EXPECT_FALSE(std::isnan(SigmoidScalar(-500.0f)));
}

TEST(ActivationsTest, GeluKnownValues) {
  EXPECT_NEAR(GeluScalar(0.0f), 0.0f, 1e-6);
  // GELU(x) -> x for large positive x, -> 0 for large negative x.
  EXPECT_NEAR(GeluScalar(6.0f), 6.0f, 1e-3);
  EXPECT_NEAR(GeluScalar(-6.0f), 0.0f, 1e-3);
}

class ActivationGradSweep : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradSweep, BackwardMatchesFiniteDifference) {
  const Activation act = GetParam();
  Rng rng(7);
  Mat x(3, 5);
  UniformInit(x.size(), -2.0f, 2.0f, &rng, x.data());
  // Keep ReLU away from the kink where the subgradient is ambiguous.
  if (act == Activation::kRelu) {
    for (size_t i = 0; i < x.size(); ++i) {
      if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] = 0.1f;
    }
  }
  Mat c = MakeCoefficients(3, 5, 11);

  Mat y(3, 5);
  auto loss = [&] {
    ActivationForward(act, x, &y);
    return WeightedSum(y, c);
  };
  loss();
  Mat dx(3, 5);
  ActivationBackward(act, x, c, &dx);
  auto result = CheckInputGradient(&x, dx, loss, 1e-3);
  EXPECT_LT(result.max_rel_error, kGradTol) << "activation " << (int)act;
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradSweep,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kGelu));

// ----------------------------------------------------------------- Linear --

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(3);
  Linear lin(2, 2, &rng, "t");
  lin.weight().value(0, 0) = 1;
  lin.weight().value(0, 1) = 2;
  lin.weight().value(1, 0) = 3;
  lin.weight().value(1, 1) = 4;
  lin.bias().value(0, 0) = 10;
  lin.bias().value(0, 1) = 20;
  Mat x(1, 2);
  x(0, 0) = 1;
  x(0, 1) = 1;
  Mat y;
  lin.Forward(x, &y);
  EXPECT_FLOAT_EQ(y(0, 0), 14);  // 1+3+10
  EXPECT_FLOAT_EQ(y(0, 1), 26);  // 2+4+20
}

TEST(LinearTest, GradCheckWeightsBiasInput) {
  Rng rng(5);
  Linear lin(4, 3, &rng, "t");
  Mat x(2, 4);
  UniformInit(x.size(), -1, 1, &rng, x.data());
  Mat c = MakeCoefficients(2, 3, 13);

  Mat y;
  auto loss = [&] {
    lin.Forward(x, &y);
    return WeightedSum(y, c);
  };
  loss();
  ZeroAllGrads([&] {
    std::vector<Parameter*> p;
    lin.Params(&p);
    return p;
  }());
  Mat dx;
  lin.Backward(x, c, &dx);

  EXPECT_LT(CheckParameterGradient(&lin.weight(), loss).max_rel_error, kGradTol);
  EXPECT_LT(CheckParameterGradient(&lin.bias(), loss).max_rel_error, kGradTol);
  EXPECT_LT(CheckInputGradient(&x, dx, loss).max_rel_error, kGradTol);
}

// -------------------------------------------------------------- Embedding --

TEST(EmbeddingTest, ForwardLooksUpRows) {
  Rng rng(7);
  Embedding emb(5, 3, &rng, "e");
  std::vector<uint32_t> ids = {4, 0, 4};
  Mat y;
  emb.Forward(ids, &y);
  EXPECT_EQ(y.rows(), 3u);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(y(0, j), emb.Row(4)[j]);
    EXPECT_FLOAT_EQ(y(1, j), emb.Row(0)[j]);
    EXPECT_FLOAT_EQ(y(2, j), y(0, j));
  }
}

TEST(EmbeddingTest, BackwardAccumulatesRepeatedIds) {
  Rng rng(9);
  Embedding emb(4, 2, &rng, "e");
  std::vector<uint32_t> ids = {1, 1, 2};
  Mat dy(3, 2, 1.0f);
  emb.Backward(ids, dy);
  EXPECT_FLOAT_EQ(emb.table().grad(1, 0), 2.0f);  // id 1 twice
  EXPECT_FLOAT_EQ(emb.table().grad(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(0, 0), 0.0f);
}

// -------------------------------------------------------------- LayerNorm --

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(8, "ln");
  Rng rng(11);
  Mat x(4, 8);
  UniformInit(x.size(), -3, 3, &rng, x.data());
  Mat y;
  ln.Forward(x, &y);
  for (size_t i = 0; i < 4; ++i) {
    double mean = 0, var = 0;
    for (size_t j = 0; j < 8; ++j) mean += y(i, j);
    mean /= 8;
    for (size_t j = 0; j < 8; ++j) var += (y(i, j) - mean) * (y(i, j) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, GradCheck) {
  LayerNorm ln(6, "ln");
  Rng rng(13);
  // Non-trivial gamma/beta so their gradients are exercised.
  UniformInit(ln.gamma().value.size(), 0.5f, 1.5f, &rng,
              ln.gamma().value.data());
  UniformInit(ln.beta().value.size(), -0.5f, 0.5f, &rng,
              ln.beta().value.data());
  Mat x(3, 6);
  UniformInit(x.size(), -2, 2, &rng, x.data());
  Mat c = MakeCoefficients(3, 6, 17);

  Mat y;
  auto loss = [&] {
    ln.Forward(x, &y);
    return WeightedSum(y, c);
  };
  loss();
  Mat dx;
  ln.Backward(x, c, &dx);
  EXPECT_LT(CheckInputGradient(&x, dx, loss).max_rel_error, kGradTol);
  EXPECT_LT(CheckParameterGradient(&ln.gamma(), loss).max_rel_error, kGradTol);
  EXPECT_LT(CheckParameterGradient(&ln.beta(), loss).max_rel_error, kGradTol);
}

// ----------------------------------------------------------------- Losses --

TEST(LossesTest, SoftmaxCrossEntropyUniformLogits) {
  Mat logits(2, 4);  // all zero -> uniform -> loss = log(4)
  float loss = SoftmaxCrossEntropy(logits, {0, 3}, nullptr);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5);
}

TEST(LossesTest, SoftmaxCrossEntropyGradCheck) {
  Rng rng(31);
  Mat logits(3, 5);
  UniformInit(logits.size(), -1, 1, &rng, logits.data());
  std::vector<uint32_t> labels = {2, 0, 4};
  auto loss = [&] {
    return static_cast<double>(SoftmaxCrossEntropy(logits, labels, nullptr));
  };
  Mat dlogits;
  SoftmaxCrossEntropy(logits, labels, &dlogits);
  EXPECT_LT(CheckInputGradient(&logits, dlogits, loss).max_rel_error, kGradTol);
}

TEST(LossesTest, BceWithLogitsKnownValue) {
  Mat logits(1, 1);
  logits(0, 0) = 0.0f;
  float loss = BinaryCrossEntropyWithLogits(logits, {1.0f}, nullptr);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-5);
}

TEST(LossesTest, BceGradCheck) {
  Rng rng(37);
  Mat logits(4, 1);
  UniformInit(logits.size(), -2, 2, &rng, logits.data());
  std::vector<float> labels = {1, 0, 1, 0};
  auto loss = [&] {
    return static_cast<double>(
        BinaryCrossEntropyWithLogits(logits, labels, nullptr));
  };
  Mat dlogits;
  BinaryCrossEntropyWithLogits(logits, labels, &dlogits);
  EXPECT_LT(CheckInputGradient(&logits, dlogits, loss).max_rel_error, kGradTol);
}

TEST(LossesTest, BceStableAtExtremeLogits) {
  Mat logits(2, 1);
  logits(0, 0) = 200.0f;
  logits(1, 0) = -200.0f;
  float loss = BinaryCrossEntropyWithLogits(logits, {1.0f, 0.0f}, nullptr);
  EXPECT_NEAR(loss, 0.0f, 1e-5);
  EXPECT_FALSE(std::isnan(loss));
}

// -------------------------------------------------------------- Attention --

TEST(AttentionTest, OutputShape) {
  Rng rng(41);
  MultiHeadSelfAttention attn(8, 2, &rng, "a");
  Mat x(5, 8);
  UniformInit(x.size(), -1, 1, &rng, x.data());
  Mat y;
  attn.Forward(x, 5, &y);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 8u);
}

TEST(AttentionTest, PaddingMaskBlocksPaddedKeys) {
  Rng rng(43);
  MultiHeadSelfAttention attn(8, 2, &rng, "a");
  Mat x(4, 8);
  UniformInit(x.size(), -1, 1, &rng, x.data());
  Mat y_full_pad;
  attn.Forward(x, 2, &y_full_pad);  // only first 2 tokens are valid keys
  // Changing a padded token must not change valid-token outputs.
  Mat x2 = x;
  for (size_t j = 0; j < 8; ++j) x2(3, j) += 5.0f;
  Mat y2;
  attn.Forward(x2, 2, &y2);
  for (size_t j = 0; j < 8; ++j) {
    EXPECT_FLOAT_EQ(y_full_pad(0, j), y2(0, j));
    EXPECT_FLOAT_EQ(y_full_pad(1, j), y2(1, j));
  }
}

TEST(AttentionTest, GradCheckInputAndParams) {
  Rng rng(47);
  MultiHeadSelfAttention attn(6, 2, &rng, "a");
  Mat x(4, 6);
  UniformInit(x.size(), -1, 1, &rng, x.data());
  Mat c = MakeCoefficients(4, 6, 53);

  Mat y;
  auto loss = [&] {
    attn.Forward(x, 4, &y);
    return WeightedSum(y, c);
  };
  loss();
  std::vector<Parameter*> params;
  attn.Params(&params);
  ZeroAllGrads(params);
  Mat dx;
  attn.Backward(x, c, &dx);

  EXPECT_LT(CheckInputGradient(&x, dx, loss).max_rel_error, kGradTol);
  for (Parameter* p : params) {
    auto r = CheckParameterGradient(p, loss, 1e-3, 3);
    EXPECT_LT(r.max_rel_error, kGradTol) << p->name;
  }
}

// ------------------------------------------------------------ Transformer --

TEST(TransformerTest, LayerGradCheck) {
  Rng rng(59);
  TransformerEncoderLayer layer(6, 2, 12, &rng, "l");
  Mat x(3, 6);
  UniformInit(x.size(), -1, 1, &rng, x.data());
  Mat c = MakeCoefficients(3, 6, 61);

  Mat y;
  auto loss = [&] {
    layer.Forward(x, 3, &y);
    return WeightedSum(y, c);
  };
  loss();
  std::vector<Parameter*> params;
  layer.Params(&params);
  ZeroAllGrads(params);
  Mat dx;
  layer.Backward(x, c, &dx);

  EXPECT_LT(CheckInputGradient(&x, dx, loss).max_rel_error, kGradTol);
  for (Parameter* p : params) {
    auto r = CheckParameterGradient(p, loss, 1e-3, 5);
    EXPECT_LT(r.max_rel_error, kGradTol) << p->name;
  }
}

TEST(TransformerTest, StackGradCheckInput) {
  Rng rng(67);
  TransformerEncoder enc(2, 6, 2, 12, &rng, "enc");
  Mat x(3, 6);
  UniformInit(x.size(), -1, 1, &rng, x.data());
  Mat c = MakeCoefficients(3, 6, 71);

  Mat y;
  auto loss = [&] {
    enc.Forward(x, 3, &y);
    return WeightedSum(y, c);
  };
  loss();
  std::vector<Parameter*> params;
  enc.Params(&params);
  ZeroAllGrads(params);
  Mat dx;
  enc.Backward(c, &dx);
  EXPECT_LT(CheckInputGradient(&x, dx, loss).max_rel_error, kGradTol);
}

// --------------------------------------------------------------- Optimizer --

TEST(OptimizerTest, SgdStepsDownhill) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 1.0f;
  SgdOptimizer opt({&p}, 0.1f);
  // Minimize f(w) = w^2: grad = 2w.
  for (int i = 0; i < 100; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);
    opt.Step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 1e-4);
}

TEST(OptimizerTest, SgdZeroesGradAfterStep) {
  Parameter p("p", 1, 1);
  p.grad(0, 0) = 5.0f;
  SgdOptimizer opt({&p}, 0.1f);
  opt.Step();
  EXPECT_FLOAT_EQ(p.grad(0, 0), 0.0f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Parameter p("p", 1, 2);
  p.value(0, 0) = 3.0f;
  p.value(0, 1) = -2.0f;
  AdamOptimizer::Options opt_cfg;
  opt_cfg.lr = 0.05f;
  AdamOptimizer opt({&p}, opt_cfg);
  for (int i = 0; i < 500; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);
    p.grad(0, 1) = 2.0f * p.value(0, 1);
    opt.Step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 1e-2);
  EXPECT_NEAR(p.value(0, 1), 0.0f, 1e-2);
  EXPECT_EQ(opt.step_count(), 500u);
}

TEST(OptimizerTest, AdamFirstStepMagnitudeIsLr) {
  // With bias correction, |first step| ~= lr regardless of grad scale.
  Parameter p("p", 1, 1);
  AdamOptimizer::Options cfg;
  cfg.lr = 0.1f;
  AdamOptimizer opt({&p}, cfg);
  p.grad(0, 0) = 1e-3f;
  opt.Step();
  EXPECT_NEAR(std::fabs(p.value(0, 0)), 0.1f, 1e-3);
}

}  // namespace
}  // namespace pkgm::nn
