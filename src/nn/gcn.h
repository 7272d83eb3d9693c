// Graph convolution layers (STSM Eq. 6-7).

#ifndef STSM_NN_GCN_H_
#define STSM_NN_GCN_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {

// One graph convolution: GCN(A, Z) = Â Z W (Eq. 6), where the normalised
// adjacency Â is supplied at call time so the same weights can be used with
// different graphs (training vs testing graphs in STSM).
class GcnLayer : public Module {
 public:
  GcnLayer(int64_t in_features, int64_t out_features, Rng* rng);

  // adj: [N, N] (constant, pre-normalised), dense or CSR — node mixing
  // routes to MatMul or SpMM accordingly; x: [..., N, in] -> [..., N, out].
  Tensor Forward(const Adjacency& adj, const Tensor& x) const;

  std::vector<Tensor> Parameters() const override;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
};

// Gated GCN layer (Eq. 7): GCNL(A, Z) = GCN(A, Z) * sigmoid(GCN'(A, Z)) with
// two parallel graph convolutions acting as value and gate.
//
// Forward is ONE autograd node. Both convolutions read the same Â·Z, so it
// is propagated once (through Adjacency::Apply's MatMul or Spmm route);
// then P·W_v and P·W_g run as one GEMM call against one packing of P, and
// the biases, the sigmoid and the product are applied on the same row
// block. The backward repeats the composed graph's arithmetic — the
// Mul(value, Sigmoid(gate)) over two GcnLayer forwards — bit for bit:
// the same kernels, the same per-slice weight-gradient order, and Âᵀ·dP
// accumulated into Z's gradient for the gate before the value, the order
// the graph walk ran the two propagation nodes in.
class GcnlLayer : public Module {
 public:
  GcnlLayer(int64_t in_features, int64_t out_features, Rng* rng);

  Tensor Forward(const Adjacency& adj, const Tensor& x) const;

  std::vector<Tensor> Parameters() const override;

  // The two convolutions. Mul(value().Forward(adj, x),
  // Sigmoid(gate().Forward(adj, x))) is the composed reference graph that
  // tests compare Forward against.
  const GcnLayer& value() const { return value_; }
  const GcnLayer& gate() const { return gate_; }

 private:
  GcnLayer value_;
  GcnLayer gate_;
};

}  // namespace stsm

#endif  // STSM_NN_GCN_H_
