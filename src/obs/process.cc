#include "obs/process.h"

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>

#ifdef __linux__
#include <dirent.h>
#endif

#include "obs/metrics.h"
#include "support/clock.h"

namespace tcm::obs {

namespace {

// Read at static initialization, before any test can replace the clock.
const support::TimePoint g_process_start = support::now();

#ifdef __linux__
std::uint64_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::uint64_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  // ".", ".." and the directory's own fd.
  return n > 3 ? n - 3 : 0;
}
#endif

}  // namespace

ProcessStats read_process_stats() {
  ProcessStats s;
  s.uptime_seconds = support::seconds_since(g_process_start);
#ifdef __linux__
  // /proc/self/status has kB-denominated VmRSS/VmSize and the thread count;
  // one short sequential read per scrape.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    const auto parse_kb = [&](const char* key) -> std::uint64_t {
      return std::strtoull(line.c_str() + std::strlen(key), nullptr, 10) * 1024;
    };
    if (line.rfind("VmRSS:", 0) == 0) {
      s.resident_bytes = parse_kb("VmRSS:");
    } else if (line.rfind("VmSize:", 0) == 0) {
      s.virtual_bytes = parse_kb("VmSize:");
    } else if (line.rfind("Threads:", 0) == 0) {
      s.threads = std::strtoull(line.c_str() + std::strlen("Threads:"), nullptr, 10);
    }
  }
  s.open_fds = count_open_fds();
#endif
  return s;
}

void register_process_metrics(MetricsRegistry& registry) {
  registry.gauge_callback("tcm_process_resident_memory_bytes", "Resident set size (VmRSS).", "",
                          [] { return static_cast<double>(read_process_stats().resident_bytes); });
  registry.gauge_callback("tcm_process_virtual_memory_bytes", "Virtual memory size (VmSize).", "",
                          [] { return static_cast<double>(read_process_stats().virtual_bytes); });
  registry.gauge_callback("tcm_process_open_fds", "Open file descriptors.", "",
                          [] { return static_cast<double>(read_process_stats().open_fds); });
  registry.gauge_callback("tcm_process_threads", "OS threads in the process.", "",
                          [] { return static_cast<double>(read_process_stats().threads); });
  registry.gauge_callback("tcm_process_uptime_seconds", "Seconds since process start.", "",
                          [] { return read_process_stats().uptime_seconds; });

  std::string build_labels = "compiler=\"";
#if defined(__clang__)
  build_labels += "clang ";
  build_labels += __clang_version__;
#elif defined(__GNUC__)
  build_labels += "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
  build_labels += "unknown";
#endif
  build_labels += "\",mode=\"";
#ifdef NDEBUG
  build_labels += "release";
#else
  build_labels += "debug";
#endif
  build_labels += "\"";
  registry.gauge("tcm_build_info", "Constant 1; build metadata in the labels.", build_labels)
      .set(1.0);
}

}  // namespace tcm::obs
