// Serving-time precision control (DESIGN.md §13).
//
// Training is fp32 bit-for-bit and never touches these helpers. A serving
// replica that wants half-size resident weights calls CastModuleForServing
// after restoring a checkpoint: every parameter is rounded to the target
// dtype (RNE for bf16) in place and frozen — gradients off, autograd
// history cleared — so a later training step on the cast module is a
// checked error rather than silent mixed-precision drift.

#ifndef STSM_NN_PRECISION_H_
#define STSM_NN_PRECISION_H_

#include <cstdint>

#include "nn/module.h"
#include "tensor/dtype.h"

namespace stsm {

// Converts every parameter of `module` to `dtype` in place and freezes the
// module for inference (requires_grad off, grad_fn cleared, layout
// compacted). Idempotent; casting to kF32 still freezes. The parameter
// Tensor handles the module hands out keep working — conversion swaps the
// storage under the existing impls, so views and owner modules agree.
void CastModuleForServing(Module* module, DType dtype);

// Resident parameter bytes of the module at its current dtypes
// (ServedModel::weight_bytes). For a bf16-cast model it is exactly half the
// fp32 figure: every parameter converts.
int64_t ModuleWeightBytes(const Module& module);

}  // namespace stsm

#endif  // STSM_NN_PRECISION_H_
