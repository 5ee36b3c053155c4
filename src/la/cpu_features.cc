#include "la/cpu_features.h"

#include <atomic>
#include <cstdlib>

#include "util/check.h"

namespace turbo::la {

namespace {

CpuFeatures Probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports consults cpuid AND xgetbv, so it already
  // accounts for OS XSAVE support of the wide register files.
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
#endif
  return f;
}

bool CompiledIsa(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#if defined(TURBO_LA_HAVE_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

// Resolved active tier; kUnresolved until the first ActiveIsa() call or
// SetKernelIsa override.
constexpr int kUnresolved = -1;
std::atomic<int> g_active_isa{kUnresolved};

KernelIsa ResolveFromEnvironment() {
  if (const char* env = std::getenv("TURBO_KERNEL_ISA")) {
    KernelIsa isa;
    TURBO_CHECK_MSG(ParseIsaName(env, &isa),
                    "TURBO_KERNEL_ISA: unknown ISA name '" << env << "'");
    TURBO_CHECK_MSG(IsaSupported(isa),
                    "TURBO_KERNEL_ISA=" << env
                                        << " is not supported on this host "
                                           "(or not compiled in)");
    return isa;
  }
  return BestIsa();
}

}  // namespace

const CpuFeatures& CpuFeatures::Get() {
  static const CpuFeatures features = Probe();
  return features;
}

bool IsaSupported(KernelIsa isa) {
  if (!CompiledIsa(isa)) return false;
  const CpuFeatures& f = CpuFeatures::Get();
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
      return f.avx2 && f.fma;
  }
  return false;
}

KernelIsa BestIsa(const CpuFeatures& features) {
  if (features.avx2 && features.fma && CompiledIsa(KernelIsa::kAvx2)) {
    return KernelIsa::kAvx2;
  }
  return KernelIsa::kScalar;
}

KernelIsa ActiveIsa() {
  int isa = g_active_isa.load(std::memory_order_acquire);
  if (isa == kUnresolved) {
    // Benign race: concurrent first calls resolve to the same value.
    isa = static_cast<int>(ResolveFromEnvironment());
    g_active_isa.store(isa, std::memory_order_release);
  }
  return static_cast<KernelIsa>(isa);
}

void SetKernelIsa(KernelIsa isa) {
  TURBO_CHECK_MSG(IsaSupported(isa), "kernel ISA "
                                         << IsaName(isa)
                                         << " is not supported on this host "
                                            "(or not compiled in)");
  g_active_isa.store(static_cast<int>(isa), std::memory_order_release);
}

void ResetKernelIsa() {
  g_active_isa.store(kUnresolved, std::memory_order_release);
}

const char* IsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseIsaName(const std::string& name, KernelIsa* out) {
  if (name == "scalar") {
    *out = KernelIsa::kScalar;
  } else if (name == "avx2") {
    *out = KernelIsa::kAvx2;
  } else if (name == "auto") {
    *out = BestIsa();
  } else {
    return false;
  }
  return true;
}

ScopedKernelIsa::ScopedKernelIsa(KernelIsa isa) : previous_(ActiveIsa()) {
  SetKernelIsa(isa);
}

ScopedKernelIsa::~ScopedKernelIsa() { SetKernelIsa(previous_); }

}  // namespace turbo::la
