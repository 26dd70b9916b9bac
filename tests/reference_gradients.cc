#include "reference_gradients.h"

#include <vector>

#include "tensor/ops.h"

namespace pkgm::core {

namespace {

std::vector<float>& GetOrInit(
    std::unordered_map<uint32_t, std::vector<float>>* map, uint32_t id,
    uint32_t size) {
  auto [it, inserted] = map->try_emplace(id);
  if (inserted) it->second.assign(size, 0.0f);
  return it->second;
}

// Accumulates the gradient of sign_factor * f(triple) into grad.
void AccumulateScoreGradients(const PkgmModel& model, const kg::Triple& t,
                              float sign_factor, SparseGrad* grad) {
  const uint32_t d = model.dim();
  const float* h = model.entity(t.head);
  const float* r = model.relation(t.relation);
  const float* tl = model.entity(t.tail);

  // Triple query module gradients, per scoring family.
  std::vector<float>& gh = grad->Entity(t.head, d);
  std::vector<float>& gr = grad->Relation(t.relation, d);
  std::vector<float>& gt = grad->Entity(t.tail, d);
  switch (model.scorer()) {
    case TripleScorerKind::kTransE: {
      // f = ||h + r - t||_1, subgradient s = sign(h + r - t); vectorized
      // as diff = h + r - t, s = sign(diff), three Axpy accumulations.
      std::vector<float> diff(d), s(d);
      Add(d, h, r, diff.data());
      Sub(d, diff.data(), tl, diff.data());
      SignOf(d, diff.data(), s.data());
      Axpy(d, sign_factor, s.data(), gh.data());
      Axpy(d, sign_factor, s.data(), gr.data());
      Axpy(d, -sign_factor, s.data(), gt.data());
      break;
    }
    case TripleScorerKind::kDistMult:
      // f = -sum h r t.
      for (uint32_t i = 0; i < d; ++i) {
        gh[i] -= sign_factor * r[i] * tl[i];
        gr[i] -= sign_factor * h[i] * tl[i];
        gt[i] -= sign_factor * h[i] * r[i];
      }
      break;
    case TripleScorerKind::kTransH: {
      // f = ||u||_1 with u = (h - w<w,h>) + r - (t - w<w,t>). With
      // s = sign(u) and alpha = <w,h> - <w,t>:
      //   dh = s - w<w,s>, dt = -(s - w<w,s>), dr = s,
      //   dw = -(alpha * s + <s,w> * (h - t)).
      const float* w = model.hyperplane(t.relation);
      const float wh = Dot(d, w, h);
      const float wt = Dot(d, w, tl);
      const float alpha = wh - wt;
      std::vector<float> u(d), sgn(d);
      for (uint32_t i = 0; i < d; ++i) {
        u[i] = (h[i] - wh * w[i]) + r[i] - (tl[i] - wt * w[i]);
      }
      SignOf(d, u.data(), sgn.data());
      const float ws = Dot(d, w, sgn.data());
      std::vector<float>& gw = grad->Hyperplane(t.relation, d);
      for (uint32_t i = 0; i < d; ++i) {
        const float dh_i = sgn[i] - w[i] * ws;
        gh[i] += sign_factor * dh_i;
        gt[i] -= sign_factor * dh_i;
        gr[i] += sign_factor * sgn[i];
        gw[i] -= sign_factor * (alpha * sgn[i] + ws * (h[i] - tl[i]));
      }
      break;
    }
    case TripleScorerKind::kComplEx: {
      // f = -Re<h, r, conj(t)> with layout [real(0..d/2); imag(d/2..d)].
      const uint32_t half = d / 2;
      const float* h_re = h;
      const float* h_im = h + half;
      const float* r_re = r;
      const float* r_im = r + half;
      const float* t_re = tl;
      const float* t_im = tl + half;
      for (uint32_t i = 0; i < half; ++i) {
        gh[i] -= sign_factor * (r_re[i] * t_re[i] + r_im[i] * t_im[i]);
        gh[half + i] -=
            sign_factor * (r_re[i] * t_im[i] - r_im[i] * t_re[i]);
        gr[i] -= sign_factor * (h_re[i] * t_re[i] + h_im[i] * t_im[i]);
        gr[half + i] -=
            sign_factor * (h_re[i] * t_im[i] - h_im[i] * t_re[i]);
        gt[i] -= sign_factor * (h_re[i] * r_re[i] - h_im[i] * r_im[i]);
        gt[half + i] -=
            sign_factor * (h_re[i] * r_im[i] + h_im[i] * r_re[i]);
      }
      break;
    }
  }

  // Relation query module: u = M_r h - r, s' = sign(u).
  if (model.use_relation_module()) {
    const float* m = model.transfer(t.relation);
    std::vector<float> u(d);
    GemvRaw(d, d, m, h, u.data());
    for (uint32_t i = 0; i < d; ++i) u[i] -= r[i];

    std::vector<float> s2(d);
    SignOf(d, u.data(), s2.data());

    std::vector<float>& gm = grad->Transfer(t.relation, d * d);
    for (uint32_t i = 0; i < d; ++i) {
      if (s2[i] == 0.0f) continue;
      // dM_r row i += sign_factor * s2[i] * h
      Axpy(d, sign_factor * s2[i], h, gm.data() + i * d);
    }
    // dh += sign_factor * M_r^T s2
    std::vector<float> mts(d);
    GemvTransposedRaw(d, d, m, s2.data(), mts.data());
    Axpy(d, sign_factor, mts.data(), gh.data());
    // dr -= sign_factor * s2
    Axpy(d, -sign_factor, s2.data(), gr.data());
  }
}

}  // namespace

std::vector<float>& SparseGrad::Entity(uint32_t id, uint32_t dim) {
  return GetOrInit(&entities_, id, dim);
}
std::vector<float>& SparseGrad::Relation(uint32_t id, uint32_t dim) {
  return GetOrInit(&relations_, id, dim);
}
std::vector<float>& SparseGrad::Transfer(uint32_t id, uint32_t dim) {
  return GetOrInit(&transfers_, id, dim);
}
std::vector<float>& SparseGrad::Hyperplane(uint32_t id, uint32_t dim) {
  return GetOrInit(&hyperplanes_, id, dim);
}

void SparseGrad::Clear() {
  entities_.clear();
  relations_.clear();
  transfers_.clear();
  hyperplanes_.clear();
}

float AccumulateHingeGradients(const PkgmModel& model, const kg::Triple& pos,
                               const kg::Triple& neg, float margin,
                               SparseGrad* grad) {
  const float f_pos = model.Score(pos);
  const float f_neg = model.Score(neg);
  const float hinge = f_pos + margin - f_neg;
  if (hinge <= 0.0f) return 0.0f;
  if (grad != nullptr) {
    AccumulateScoreGradients(model, pos, +1.0f, grad);
    AccumulateScoreGradients(model, neg, -1.0f, grad);
  }
  return hinge;
}

}  // namespace pkgm::core
