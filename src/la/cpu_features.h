// Runtime CPU-capability probe and kernel-ISA selection.
//
// Two kernel tiers exist: scalar, and AVX2+FMA compiled per-file with the
// matching -m flags (see kernel_dispatch.h). CpuFeatures::Get() probes
// the host once (cpuid-backed __builtin_cpu_supports on x86; every other
// architecture runs the scalar tier), BestIsa() maps the probe to the
// widest tier this binary both compiled and the host supports, and the
// kernel table resolves against that choice the first time a dispatched
// kernel runs.
//
// Every tier is overridable for testing: SetKernelIsa() forces a
// specific tier (so one AVX2 machine can exercise both paths in a single
// test binary), and the TURBO_KERNEL_ISA environment variable
// ("scalar" | "avx2" | "auto") applies the same override at process
// start. An unknown name, or a tier the host cannot execute, is a CHECK
// failure, not an illegal instruction.
//
// The training path never consults this: the plain la:: kernels autograd
// calls always run the scalar table, whatever the active ISA, so
// training stays bit-exact across machines (see DESIGN.md §13).
#pragma once

#include <string>

namespace turbo::la {

/// Kernel instruction-set tiers, narrowest first. kScalar is always
/// available; kAvx2 exists only when the binary was compiled with the
/// per-file flags AND the host CPU reports support.
enum class KernelIsa {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 + FMA (x86-64-v3)
};

/// One-time host probe. Fields are false on architectures where the
/// feature does not exist.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;

  /// Probed once, cached for the process lifetime.
  static const CpuFeatures& Get();
};

/// True when this binary contains the tier's kernels AND the host CPU
/// can execute them. kScalar is always true.
bool IsaSupported(KernelIsa isa);

/// Widest supported tier for the given probe (host probe by default).
KernelIsa BestIsa(const CpuFeatures& features = CpuFeatures::Get());

/// The tier dispatched kernels currently run on. Resolution order:
/// SetKernelIsa override > TURBO_KERNEL_ISA env var > BestIsa().
KernelIsa ActiveIsa();

/// Forces the active tier (CHECKs IsaSupported). Pass-through for
/// tests and benches; not meant to be called while kernels are in
/// flight on other threads.
void SetKernelIsa(KernelIsa isa);

/// Drops any override and re-resolves from the environment / probe.
void ResetKernelIsa();

/// "scalar" | "avx2".
const char* IsaName(KernelIsa isa);

/// Inverse of IsaName; also accepts "auto" (reported as BestIsa()).
/// Returns false on an unknown name.
bool ParseIsaName(const std::string& name, KernelIsa* out);

/// RAII tier override for tests: forces `isa` on construction, restores
/// the previous resolution on destruction.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa);
  ~ScopedKernelIsa();
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  KernelIsa previous_;
};

}  // namespace turbo::la
