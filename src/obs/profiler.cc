#include "src/obs/profiler.h"

#include <algorithm>
#include <chrono>

#include "src/common/mutex.h"
#include "src/common/table.h"
#include "src/common/thread_annotations.h"

namespace cedar {
namespace {

std::atomic<bool> g_profiling_enabled{false};

// Registry of every constructed site. Sites are function-local statics, so
// registration happens a handful of times per process; a mutex is fine.
struct SiteRegistry {
  Mutex mutex;
  std::vector<ProfileSite*> sites CEDAR_GUARDED_BY(mutex);
};

SiteRegistry& Registry() {
  // Intentionally leaked process singleton (no destruction-order hazards).
  static SiteRegistry* registry = new SiteRegistry();
  return *registry;
}

}  // namespace

bool ProfilingEnabled() { return g_profiling_enabled.load(std::memory_order_relaxed); }

void SetProfilingEnabled(bool enabled) {
  g_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProfileSite::ProfileSite(const char* name) : name_(name) {
  SiteRegistry& registry = Registry();
  MutexLock lock(registry.mutex);
  registry.sites.push_back(this);
}

void ProfileSite::Record(int64_t elapsed_ns) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
  int64_t current = max_ns_.load(std::memory_order_relaxed);
  while (elapsed_ns > current &&
         !max_ns_.compare_exchange_weak(current, elapsed_ns, std::memory_order_relaxed)) {
  }
}

void ProfileSite::Reset() {
  calls_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

std::vector<ProfileSample> CollectProfileSamples() {
  std::vector<ProfileSample> samples;
  {
    SiteRegistry& registry = Registry();
    MutexLock lock(registry.mutex);
    samples.reserve(registry.sites.size());
    for (const ProfileSite* site : registry.sites) {
      if (site->calls() == 0) {
        continue;
      }
      samples.push_back({site->name(), site->calls(), site->total_ns(), site->max_ns()});
    }
  }
  std::sort(samples.begin(), samples.end(), [](const ProfileSample& a, const ProfileSample& b) {
    if (a.total_ns != b.total_ns) {
      return a.total_ns > b.total_ns;
    }
    return a.name < b.name;
  });
  return samples;
}

void WriteProfileReport(std::ostream& out) {
  PrintBanner(out, "profile report");
  std::vector<ProfileSample> samples = CollectProfileSamples();
  if (samples.empty()) {
    out << "(no profile samples — run with profiling enabled)\n";
    return;
  }
  TablePrinter table({"site", "calls", "total ms", "mean us", "max us"});
  for (const ProfileSample& sample : samples) {
    table.AddRow({sample.name, std::to_string(sample.calls),
                  TablePrinter::FormatDouble(static_cast<double>(sample.total_ns) / 1e6, 3),
                  TablePrinter::FormatDouble(sample.MeanNs() / 1e3, 3),
                  TablePrinter::FormatDouble(static_cast<double>(sample.max_ns) / 1e3, 3)});
  }
  table.Print(out);
}

void ResetProfile() {
  SiteRegistry& registry = Registry();
  MutexLock lock(registry.mutex);
  for (ProfileSite* site : registry.sites) {
    site->Reset();
  }
}

}  // namespace cedar
