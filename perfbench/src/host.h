// Host fingerprint recorded with every benchmark run, so results from
// different machines or builds can be told apart without trusting the
// timings. Read from CPUID and process state only — no files.
#pragma once

#include <string>

namespace perfbench {

/// One-line JSON object: nproc, CPU model, ISA flags, L2/L3 sizes,
/// worker-pool threads, compiler, build type and flags.
std::string HostFingerprintJson(int pool_threads);

/// Peak resident set size of this process so far, in MB (1e6 bytes).
double PeakRssMb();

}  // namespace perfbench
