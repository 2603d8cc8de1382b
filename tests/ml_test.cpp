// Tests for the ml module: sparse ops, feature hashing, encoders, linear
// models, MLP, and the DPO adapter.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/dpo.hpp"
#include "ml/encoder.hpp"
#include "ml/feature_hash.hpp"
#include "ml/linear.hpp"
#include "ml/sparse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace adaparse::ml {
namespace {

// -------------------------------------------------------------- sparse ----

TEST(Sparse, CompactMergesDuplicates) {
  SparseVec v = {{3, 1.0F}, {1, 2.0F}, {3, 0.5F}};
  compact(v);
  ASSERT_EQ(v.size(), 2U);
  EXPECT_EQ(v[0].index, 1U);
  EXPECT_EQ(v[1].index, 3U);
  EXPECT_FLOAT_EQ(v[1].value, 1.5F);
}

TEST(Sparse, L2NormalizeUnitNorm) {
  SparseVec v = {{0, 3.0F}, {1, 4.0F}};
  l2_normalize(v);
  double norm = 0.0;
  for (const auto& f : v) norm += f.value * f.value;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(Sparse, L2NormalizeZeroVectorNoOp) {
  SparseVec v = {{0, 0.0F}};
  l2_normalize(v);
  EXPECT_EQ(v[0].value, 0.0F);
}

TEST(Sparse, DotAndAxpy) {
  SparseVec v = {{0, 1.0F}, {2, 2.0F}};
  std::vector<double> w = {0.5, 9.0, 0.25};
  EXPECT_NEAR(dot(v, w), 0.5 + 0.5, 1e-12);
  axpy(2.0, v, w);
  EXPECT_NEAR(w[0], 2.5, 1e-12);
  EXPECT_NEAR(w[2], 4.25, 1e-12);
  EXPECT_NEAR(w[1], 9.0, 1e-12);
}

TEST(Sparse, DotIgnoresOutOfRangeIndices) {
  SparseVec v = {{100, 1.0F}};
  std::vector<double> w = {1.0};
  EXPECT_EQ(dot(v, w), 0.0);
}

// ------------------------------------------------------- feature hash ----

TEST(FeatureHash, DeterministicAndNormalized) {
  HashOptions options;
  const auto a = hash_text("the quick brown fox", options);
  const auto b = hash_text("the quick brown fox", options);
  ASSERT_EQ(a.size(), b.size());
  double norm = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].value, b[i].value);
    norm += a[i].value * a[i].value;
  }
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(FeatureHash, IndicesWithinDim) {
  HashOptions options;
  options.dim = 256;
  for (const auto& f : hash_text("some words and more words", options)) {
    EXPECT_LT(f.index, 256U);
  }
}

TEST(FeatureHash, SaltDecorrelates) {
  HashOptions a, b;
  b.salt = 999;
  const auto va = hash_text("identical input", a);
  const auto vb = hash_text("identical input", b);
  // At least some indices must differ.
  bool differs = va.size() != vb.size();
  for (std::size_t i = 0; !differs && i < va.size(); ++i) {
    differs = va[i].index != vb[i].index;
  }
  EXPECT_TRUE(differs);
}

TEST(FeatureHash, SimilarTextsShareMoreMass) {
  HashOptions options;
  auto cos = [&](const SparseVec& x, const SparseVec& y) {
    double s = 0.0;
    for (const auto& fx : x) {
      for (const auto& fy : y) {
        if (fx.index == fy.index) s += fx.value * fy.value;
      }
    }
    return s;
  };
  const auto base = hash_text("the model predicts parser accuracy", options);
  const auto near = hash_text("the model predicts parser quality", options);
  const auto far = hash_text("unrelated chemistry compounds dissolve", options);
  EXPECT_GT(cos(base, near), cos(base, far));
}

TEST(FeatureHash, CategoricalStable) {
  const auto a = hash_categorical("producer", "pdfTeX", 1024, 7);
  const auto b = hash_categorical("producer", "pdfTeX", 1024, 7);
  EXPECT_EQ(a.index, b.index);
  const auto c = hash_categorical("producer", "scanner", 1024, 7);
  EXPECT_NE(a.index, c.index);
}

TEST(FeatureHash, TruncatesLongInput) {
  HashOptions options;
  options.max_chars = 64;
  std::string longtext(100000, 'a');
  longtext += " zzz_unique_tail";
  const auto v = hash_text(longtext, options);
  EXPECT_LT(v.size(), 80U);  // only the head contributed
}

// ------------------------------------------------------------ encoder ----

TEST(Encoder, FactoryProducesAllArchs) {
  for (EncoderArch arch :
       {EncoderArch::kSciBert, EncoderArch::kBert, EncoderArch::kMiniLm,
        EncoderArch::kSpecter, EncoderArch::kFastText}) {
    const auto encoder = make_encoder(arch);
    ASSERT_NE(encoder, nullptr);
    EXPECT_GT(encoder->dim(), 0U);
    EXPECT_GT(encoder->inference_cost_seconds(), 0.0);
  }
}

TEST(Encoder, CapacityOrdering) {
  EXPECT_GT(make_encoder(EncoderArch::kSciBert)->dim(),
            make_encoder(EncoderArch::kMiniLm)->dim());
}

TEST(Encoder, SciBertSeesBodyText) {
  const auto scibert = make_encoder(EncoderArch::kSciBert);
  EncoderInput with_body;
  with_body.text = "some body text with \\latex{residue}";
  EncoderInput without_body;
  EXPECT_GT(scibert->encode(with_body).size(),
            scibert->encode(without_body).size());
}

TEST(Encoder, SpecterIgnoresBodyText) {
  const auto specter = make_encoder(EncoderArch::kSpecter);
  doc::Metadata meta;
  EncoderInput a;
  a.text = "body text one";
  a.title = "Title";
  a.metadata = &meta;
  EncoderInput b;
  b.text = "completely different body";
  b.title = "Title";
  b.metadata = &meta;
  const auto va = specter->encode(a);
  const auto vb = specter->encode(b);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].index, vb[i].index);
  }
}

// -------------------------------------------------------------- linear ----

/// Builds a noisy linear regression problem over sparse inputs.
struct SyntheticRegression {
  std::vector<SparseVec> inputs;
  std::vector<std::vector<double>> targets;
};

SyntheticRegression make_regression(std::size_t n, std::uint32_t dim,
                                    std::size_t outputs, double noise,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> w(outputs, std::vector<double>(dim));
  for (auto& row : w) {
    for (auto& x : row) x = rng.normal();
  }
  SyntheticRegression data;
  for (std::size_t i = 0; i < n; ++i) {
    SparseVec v;
    for (int k = 0; k < 8; ++k) {
      v.push_back({static_cast<std::uint32_t>(rng.below(dim)),
                   static_cast<float>(rng.uniform(0.1, 1.0))});
    }
    compact(v);
    l2_normalize(v);
    std::vector<double> y(outputs);
    for (std::size_t o = 0; o < outputs; ++o) {
      y[o] = dot(v, w[o]) + rng.normal(0.0, noise);
    }
    data.inputs.push_back(std::move(v));
    data.targets.push_back(std::move(y));
  }
  return data;
}

TEST(Regressor, LearnsLinearSignal) {
  const auto data = make_regression(600, 128, 2, 0.05, 5);
  MultiOutputRegressor model(128, 2);
  TrainOptions options;
  options.epochs = 30;
  model.fit(data.inputs, data.targets, options);
  std::vector<double> truth, pred;
  for (std::size_t i = 0; i < data.inputs.size(); ++i) {
    truth.push_back(data.targets[i][0]);
    pred.push_back(model.predict(data.inputs[i])[0]);
  }
  EXPECT_GT(util::r_squared(truth, pred), 0.7);
}

TEST(Regressor, PredictOneMatchesPredict) {
  const auto data = make_regression(50, 64, 3, 0.1, 6);
  MultiOutputRegressor model(64, 3);
  model.fit(data.inputs, data.targets);
  const auto full = model.predict(data.inputs[0]);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(model.predict_one(data.inputs[0], k), full[k]);
  }
}

TEST(Regressor, FitRejectsSizeMismatch) {
  MultiOutputRegressor model(8, 1);
  std::vector<SparseVec> inputs(2);
  std::vector<std::vector<double>> targets(1, std::vector<double>{0.0});
  EXPECT_THROW(model.fit(inputs, targets), std::invalid_argument);
}

TEST(Logistic, SeparatesLinearlySeparableData) {
  util::Rng rng(11);
  std::vector<SparseVec> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 400; ++i) {
    const bool positive = rng.chance(0.5);
    SparseVec v = {{positive ? 0U : 1U, 1.0F},
                   {static_cast<std::uint32_t>(2 + rng.below(30)), 0.5F}};
    compact(v);
    l2_normalize(v);
    inputs.push_back(v);
    labels.push_back(positive ? 1 : 0);
  }
  LogisticRegression model(32);
  TrainOptions options;
  options.epochs = 20;
  model.fit(inputs, labels, options);
  int correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    correct += model.predict(inputs[i]) == labels[i] ? 1 : 0;
  }
  EXPECT_GT(correct, 380);
}

TEST(Logistic, ProbabilitiesInUnitInterval) {
  LogisticRegression model(4);
  SparseVec v = {{0, 1.0F}};
  const double p = model.predict_proba(v);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  EXPECT_NEAR(p, 0.5, 1e-9);  // untrained model is indifferent
}

TEST(Sigmoid, SymmetryAndRange) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_GT(sigmoid(30.0), 0.999);
  EXPECT_LT(sigmoid(-30.0), 0.001);
}

TEST(Svc, MulticlassSeparation) {
  util::Rng rng(13);
  std::vector<SparseVec> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 600; ++i) {
    const int cls = static_cast<int>(rng.below(3));
    SparseVec v = {{static_cast<std::uint32_t>(cls), 1.0F},
                   {static_cast<std::uint32_t>(3 + rng.below(20)), 0.4F}};
    compact(v);
    l2_normalize(v);
    inputs.push_back(v);
    labels.push_back(cls);
  }
  LinearSvc model(32, 3);
  TrainOptions options;
  options.epochs = 15;
  model.fit(inputs, labels, options);
  int correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    correct += model.predict(inputs[i]) == labels[i] ? 1 : 0;
  }
  EXPECT_GT(correct, 550);
}

TEST(Svc, DecisionVectorHasOneScorePerClass) {
  LinearSvc model(16, 5);
  SparseVec v = {{1, 1.0F}};
  EXPECT_EQ(model.decision(v).size(), 5U);
}

// ---------------------------------------------------------------- dpo ----

TEST(Dpo, AdapterStartsAtReference) {
  MultiOutputRegressor base(32, 3);
  DpoOptions options;
  DpoAdapter adapter(base, options);
  SparseVec x = {{1, 0.7F}, {5, 0.7F}};
  const auto d = adapter.delta(x);
  for (double v : d) EXPECT_EQ(v, 0.0);
  const auto base_pred = base.predict(x);
  const auto adapted = adapter.predict(x);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(adapted[k], base_pred[k]);
  }
}

TEST(Dpo, LearnsConsistentPreference) {
  // Every pair prefers output 2 over output 0: after DPO, the adapted score
  // of 2 must exceed 0 on the training inputs.
  MultiOutputRegressor base(64, 4);
  util::Rng rng(19);
  std::vector<PreferencePair> pairs;
  for (int i = 0; i < 200; ++i) {
    PreferencePair pair;
    for (int k = 0; k < 6; ++k) {
      pair.x.push_back({static_cast<std::uint32_t>(rng.below(64)),
                        static_cast<float>(rng.uniform(0.2, 1.0))});
    }
    compact(pair.x);
    l2_normalize(pair.x);
    pair.winner = 2;
    pair.loser = 0;
    pairs.push_back(std::move(pair));
  }
  DpoOptions options;
  options.epochs = 40;
  DpoAdapter adapter(base, options);
  adapter.fit(pairs);
  int consistent = 0;
  for (const auto& pair : pairs) {
    const auto scores = adapter.predict(pair.x);
    consistent += scores[2] > scores[0] ? 1 : 0;
  }
  EXPECT_GT(consistent, 190);
  EXPECT_LT(adapter.last_loss(), std::log(2.0));  // better than indifferent
}

TEST(Dpo, ContextDependentPreference) {
  // Preference flips with an input feature: DPO must use the features, not
  // just per-output biases.
  MultiOutputRegressor base(16, 2);
  std::vector<PreferencePair> pairs;
  for (int i = 0; i < 300; ++i) {
    PreferencePair pair;
    const bool ctx = i % 2 == 0;
    pair.x.push_back({ctx ? 0U : 1U, 1.0F});
    pair.winner = ctx ? 0U : 1U;
    pair.loser = ctx ? 1U : 0U;
    pairs.push_back(std::move(pair));
  }
  DpoOptions options;
  options.epochs = 60;
  options.learning_rate = 0.25;
  DpoAdapter adapter(base, options);
  adapter.fit(pairs);
  int consistent = 0;
  for (const auto& pair : pairs) {
    const auto scores = adapter.predict(pair.x);
    consistent += scores[pair.winner] > scores[pair.loser] ? 1 : 0;
  }
  EXPECT_GT(consistent, 280);
}

TEST(Dpo, EmptyPairsIsNoOp) {
  MultiOutputRegressor base(8, 2);
  DpoAdapter adapter(base, {});
  adapter.fit({});
  SparseVec x = {{0, 1.0F}};
  EXPECT_EQ(adapter.delta(x)[0], 0.0);
}

}  // namespace
}  // namespace adaparse::ml
