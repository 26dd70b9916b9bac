#include "nn/parameter.h"

namespace pkgm::nn {

void ZeroAllGrads(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->ZeroGrad();
}

}  // namespace pkgm::nn
