#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <sstream>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/build_info.h"

namespace perfbench {
namespace {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

struct CpuInfo {
  std::string model = "unknown";
  std::vector<std::string> isa;
  long l2_kib = 0;
  long l3_kib = 0;
};

#if defined(__x86_64__) || defined(__i386__)
// Deterministic cache parameters: Intel leaf 4, AMD leaf 0x8000001D
// (same register layout). Sizes are per cache instance.
void ReadCaches(unsigned leaf, CpuInfo* info) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(leaf & 0x80000000u, nullptr) < leaf) return;
  for (unsigned sub = 0; sub < 16; ++sub) {
    __cpuid_count(leaf, sub, a, b, c, d);
    const unsigned type = a & 0x1f;
    if (type == 0) break;
    if (type == 2) continue;  // instruction cache
    const unsigned level = (a >> 5) & 0x7;
    const long bytes = static_cast<long>((b >> 22) + 1) *
                       (((b >> 12) & 0x3ff) + 1) * ((b & 0xfff) + 1) *
                       (static_cast<long>(c) + 1);
    if (level == 2) info->l2_kib = bytes / 1024;
    if (level == 3) info->l3_kib = bytes / 1024;
  }
}

CpuInfo ReadCpu() {
  CpuInfo info;
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __cpuid(0x80000002u + i, a, b, c, d);
      std::memcpy(brand + 16 * i + 0, &a, 4);
      std::memcpy(brand + 16 * i + 4, &b, 4);
      std::memcpy(brand + 16 * i + 8, &c, 4);
      std::memcpy(brand + 16 * i + 12, &d, 4);
    }
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    info.model = first == std::string::npos ? "unknown" : s.substr(first);
  }
  const auto flag = [&](bool on, const char* name) {
    if (on) info.isa.emplace_back(name);
  };
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    flag(c & (1u << 20), "sse4_2");
    flag(c & (1u << 12), "fma");
    flag(c & (1u << 28), "avx");
    flag(c & (1u << 29), "f16c");
  }
  if (__get_cpuid_max(0, nullptr) >= 7) {
    __cpuid_count(7, 0, a, b, c, d);
    flag(b & (1u << 5), "avx2");
    flag(b & (1u << 16), "avx512f");
    flag(b & (1u << 30), "avx512bw");
    flag(b & (1u << 31), "avx512vl");
    flag(c & (1u << 11), "avx512_vnni");
    flag(d & (1u << 23), "avx512_fp16");
    flag(d & (1u << 24), "amx_tile");
  }
  ReadCaches(4, &info);
  if (info.l2_kib == 0) ReadCaches(0x8000001Du, &info);
  return info;
}
#else
CpuInfo ReadCpu() { return {}; }
#endif

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

}  // namespace

std::string HostFingerprintJson(int pool_threads) {
  const CpuInfo cpu = ReadCpu();
  const shflbw::BuildInfo& build = shflbw::GetBuildInfo();
  std::ostringstream os;
  os << "{\"nproc\":" << Nproc() << ",\"cpu\":" << Quoted(cpu.model)
     << ",\"isa\":[";
  for (std::size_t i = 0; i < cpu.isa.size(); ++i) {
    os << (i ? "," : "") << Quoted(cpu.isa[i]);
  }
  os << "],\"l2_kib\":" << cpu.l2_kib << ",\"l3_kib\":" << cpu.l3_kib
     << ",\"pool_threads\":" << pool_threads
     << ",\"compiler\":" << Quoted(build.compiler)
     << ",\"build_type\":" << Quoted(build.build_type)
     << ",\"cxx_flags\":" << Quoted(build.cxx_flags) << "}";
  return os.str();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

}  // namespace perfbench
