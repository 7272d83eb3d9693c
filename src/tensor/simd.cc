// Runtime kernel dispatch: CPUID detection + STSM_SIMD env veto + test
// override. See simd.h for the determinism contract.

#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <mutex>
#include <string>

#include "common/env.h"

namespace stsm {
namespace simd {
namespace {

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelTable* DetectSupported() {
  const KernelTable* table = internal::Avx2Table();
  if (table == nullptr) return nullptr;  // Built without AVX2 support.
  return CpuHasAvx2Fma() ? table : nullptr;
}

bool EnvVetoed() {
  std::string v = GetEnvOr("STSM_SIMD", std::string("on"));
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return v == "off" || v == "0" || v == "scalar" || v == "false";
}

const KernelTable* DefaultActive() {
  return EnvVetoed() ? nullptr : DetectSupported();
}

// Cached on first use; g_active is what every op call reads. Atomic so the
// differential tests can flip dispatch while ParallelFor workers exist
// without a data race (workers only run inside an op call, which loads the
// pointer exactly once up front).
std::once_flag g_init_once;
const KernelTable* g_supported = nullptr;
std::atomic<const KernelTable*> g_active{nullptr};

void InitOnce() {
  std::call_once(g_init_once, [] {
    g_supported = DetectSupported();
    g_active.store(DefaultActive(), std::memory_order_release);
  });
}

}  // namespace

const KernelTable* Supported() {
  InitOnce();
  return g_supported;
}

const KernelTable* Active() {
  InitOnce();
  return g_active.load(std::memory_order_acquire);
}

void SetDispatchForTesting(bool enabled) {
  SetDispatchForTesting(enabled ? Supported() : nullptr);
}

void SetDispatchForTesting(const KernelTable* table) {
  InitOnce();
  g_active.store(table, std::memory_order_release);
}

void ResetDispatch() {
  InitOnce();
  g_active.store(DefaultActive(), std::memory_order_release);
}

}  // namespace simd
}  // namespace stsm
