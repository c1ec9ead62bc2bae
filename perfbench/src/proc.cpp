// Process-level measurements (usable CPUs, wall clock, CPU time, resident
// memory) and the median every reported figure is taken as.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::size_t worker_count() {
  // The CPUs this process may run on (what nproc reports), which can be
  // fewer than the machine has.
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::size_t n = sched_getaffinity(0, sizeof set, &set) == 0
                      ? static_cast<std::size_t>(CPU_COUNT(&set))
                      : std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool reset_peak_rss() noexcept {
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_bytes() noexcept {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

}  // namespace perfbench
