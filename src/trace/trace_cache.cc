#include "src/trace/trace_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>

#include <sys/stat.h>

#include "src/trace/calibrated_workload.h"
#include "src/trace/synth_workload.h"
#include "src/util/atomic_file.h"
#include "src/util/hash.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

constexpr char kEntrySuffix[] = ".mtc";

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

void AppendCalibratedConfig(std::ostringstream& out,
                            const CalibratedWorkloadConfig& c) {
  out << "generator = calibrated\n"
      << "name = " << c.name << "\n"
      << "duration_sec = " << CanonicalDouble(c.duration_sec) << "\n"
      << "distinct_kbytes = " << c.distinct_kbytes << "\n"
      << "read_fraction = " << CanonicalDouble(c.read_fraction) << "\n"
      << "block_bytes = " << c.block_bytes << "\n"
      << "mean_read_blocks = " << CanonicalDouble(c.mean_read_blocks) << "\n"
      << "mean_write_blocks = " << CanonicalDouble(c.mean_write_blocks) << "\n"
      << "short_fraction = " << CanonicalDouble(c.short_fraction) << "\n"
      << "short_mean_sec = " << CanonicalDouble(c.short_mean_sec) << "\n"
      << "long_mean_sec = " << CanonicalDouble(c.long_mean_sec) << "\n"
      << "max_gap_sec = " << CanonicalDouble(c.max_gap_sec) << "\n"
      << "delete_fraction = " << CanonicalDouble(c.delete_fraction) << "\n"
      << "file_count = " << c.file_count << "\n"
      << "mean_file_kbytes = " << CanonicalDouble(c.mean_file_kbytes) << "\n"
      << "zipf_skew = " << CanonicalDouble(c.zipf_skew) << "\n"
      << "sequential_fraction = " << CanonicalDouble(c.sequential_fraction) << "\n"
      << "drift_cycles = " << CanonicalDouble(c.drift_cycles) << "\n"
      << "seed = " << c.seed << "\n";
}

void AppendSynthConfig(std::ostringstream& out, const SynthWorkloadConfig& c) {
  out << "generator = synth\n"
      << "dataset_bytes = " << c.dataset_bytes << "\n"
      << "file_bytes = " << c.file_bytes << "\n"
      << "op_count = " << c.op_count << "\n"
      << "hot_access_fraction = " << CanonicalDouble(c.hot_access_fraction) << "\n"
      << "hot_data_fraction = " << CanonicalDouble(c.hot_data_fraction) << "\n"
      << "read_fraction = " << CanonicalDouble(c.read_fraction) << "\n"
      << "write_fraction = " << CanonicalDouble(c.write_fraction) << "\n"
      << "short_fraction = " << CanonicalDouble(c.short_fraction) << "\n"
      << "short_mean_ms = " << CanonicalDouble(c.short_mean_ms) << "\n"
      << "long_base_ms = " << CanonicalDouble(c.long_base_ms) << "\n"
      << "long_exp_mean_ms = " << CanonicalDouble(c.long_exp_mean_ms) << "\n"
      << "seed = " << c.seed << "\n";
}

bool IsEntryName(const std::string& name) {
  const std::string suffix(kEntrySuffix);
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string CanonicalTraceKeyText(const std::string& workload, double scale,
                                  std::uint64_t seed, std::uint32_t format_version) {
  // The key captures the *effective* generator configuration, resolved as
  // GenerateNamedWorkload resolves it, so a change to any preset constant
  // (or to how scale/seed feed in) produces a different fingerprint.
  std::ostringstream out;
  out << "mobisim-trace-cache v" << format_version << "\n"
      << "workload = " << workload << "\n"
      << "scale = " << CanonicalDouble(scale) << "\n"
      << "request_seed = " << seed << "\n";
  if (workload == "synth") {
    AppendSynthConfig(out, NamedSynthConfig(scale, seed));
  } else if (IsNamedWorkload(workload)) {
    AppendCalibratedConfig(out, NamedCalibratedConfig(workload, scale, seed));
  } else {
    // Unknown names MOBISIM_CHECK-fail at generation time; the key is only
    // ever used for lookups that will fail the same way.
    out << "generator = unknown\n";
  }
  return out.str();
}

std::string TraceCacheFingerprint(const std::string& workload, double scale,
                                  std::uint64_t seed, std::uint32_t format_version) {
  return HexU64(Fnv1a64(CanonicalTraceKeyText(workload, scale, seed, format_version)));
}

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {}

std::string TraceCache::EntryPath(const std::string& fingerprint) const {
  return dir_ + "/" + fingerprint + kEntrySuffix;
}

TraceView TraceCache::LoadView(const std::string& fingerprint) {
  const std::string path = EntryPath(fingerprint);
  // A file that cannot be mapped (or a missing one) is read instead.
  MmapFile map;
  std::string data;
  std::string_view bytes;
  if (map.Open(path)) {
    bytes = std::string_view(map.data(), map.size());
  } else if (ReadFileToString(path, &data)) {
    bytes = data;
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return TraceView();
  }
  if (!map.valid() || !KnownValid(fingerprint, map.identity())) {
    validated_.fetch_add(1, std::memory_order_relaxed);
    if (!ValidateEntry(bytes.data(), bytes.size())) {
      // Torn or corrupted: drop the entry so the regenerated trace replaces
      // it, and report the lookup as a (corrupt) miss.
      std::remove(path.c_str());
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return TraceView();
    }
    if (map.valid()) {
      Remember(fingerprint, map.identity());
    }
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (map.valid() && ColumnsAddressableInPlace(map.data())) {
    views_.fetch_add(1, std::memory_order_relaxed);
    return TraceView::FromMapping(std::move(map));
  }
  // Valid, but not addressable in place (read, misaligned, or a big-endian
  // host): the copying decode into an owned image.
  copies_.fetch_add(1, std::memory_order_relaxed);
  return TraceView::FromImage(TraceImage::Copy(bytes));
}

bool TraceCache::Store(const std::string& fingerprint, const TraceImage& image,
                       std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    SetError(error, "cannot create cache dir " + dir_ + ": " + ec.message());
    errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  FileIdentity identity;
  if (!WriteFileAtomic(EntryPath(fingerprint), image.bytes(), error, &identity)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Remember(fingerprint, identity);
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool TraceCache::KnownValid(const std::string& fingerprint, const FileIdentity& identity) {
  const std::lock_guard<std::mutex> lock(known_mu_);
  const auto it = known_valid_.find(fingerprint);
  return it != known_valid_.end() && it->second == identity;
}

void TraceCache::Remember(const std::string& fingerprint, const FileIdentity& identity) {
  const std::lock_guard<std::mutex> lock(known_mu_);
  known_valid_[fingerprint] = identity;
}

TraceCacheStats TraceCache::stats() const {
  TraceCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.corrupt = corrupt_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.views = views_.load(std::memory_order_relaxed);
  s.copies = copies_.load(std::memory_order_relaxed);
  s.validated = validated_.load(std::memory_order_relaxed);
  return s;
}

std::string TraceCache::StatsLine() const {
  const TraceCacheStats s = stats();
  std::ostringstream out;
  out << "trace-cache: hits=" << s.hits << " misses=" << s.misses
      << " stores=" << s.stores << " corrupt=" << s.corrupt
      << " errors=" << s.errors << " views=" << s.views
      << " copies=" << s.copies << " validated=" << s.validated << " dir=" << dir_;
  return out.str();
}

TraceView LoadOrGenerateTraceView(TraceCache* cache, const std::string& workload,
                                  double scale, std::uint64_t seed) {
  std::string fingerprint;
  if (cache != nullptr) {
    fingerprint = TraceCacheFingerprint(workload, scale, seed);
    if (TraceView view = cache->LoadView(fingerprint)) {
      return view;
    }
  }
  TraceImage image = LowerNamedWorkload(workload, scale, seed);
  if (cache != nullptr) {
    cache->Store(fingerprint, image);  // best-effort; failure only counts
  }
  return TraceView::FromImage(std::move(image));
}

std::vector<TraceCacheEntry> ListTraceCache(const std::string& dir) {
  std::vector<TraceCacheEntry> entries;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    if (!item.is_regular_file(ec)) {
      continue;
    }
    const std::string name = item.path().filename().string();
    if (!IsEntryName(name)) {
      continue;
    }
    TraceCacheEntry entry;
    entry.path = item.path().string();
    entry.fingerprint = name.substr(0, name.size() - (sizeof(kEntrySuffix) - 1));
    entry.bytes = static_cast<std::uint64_t>(item.file_size(ec));
    struct stat st {};
    if (::stat(entry.path.c_str(), &st) == 0) {
      entry.mtime = static_cast<std::int64_t>(st.st_mtime);
    }
    MmapFile map;
    entry.valid = map.Open(entry.path) && ValidateEntry(map.data(), map.size());
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const TraceCacheEntry& a, const TraceCacheEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  return entries;
}

TraceCacheGcResult GcTraceCache(const std::string& dir, std::uint64_t max_bytes) {
  TraceCacheGcResult result;
  std::error_code ec;
  // Leftover temp files (a writer that died mid-store) are garbage too.
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (name.find(".mtc.tmp.") != std::string::npos) {
      result.removed_bytes += static_cast<std::uint64_t>(item.file_size(ec));
      std::filesystem::remove(item.path(), ec);
      ++result.removed;
    }
  }

  std::vector<TraceCacheEntry> entries = ListTraceCache(dir);
  std::uint64_t total = 0;
  std::vector<TraceCacheEntry> valid;
  for (TraceCacheEntry& entry : entries) {
    if (!entry.valid) {
      result.removed_bytes += entry.bytes;
      std::remove(entry.path.c_str());
      ++result.removed;
      continue;
    }
    total += entry.bytes;
    valid.push_back(std::move(entry));
  }

  // Oldest-first eviction down to the byte budget.
  std::sort(valid.begin(), valid.end(),
            [](const TraceCacheEntry& a, const TraceCacheEntry& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime
                                        : a.fingerprint < b.fingerprint;
            });
  for (const TraceCacheEntry& entry : valid) {
    if (max_bytes != 0 && total > max_bytes) {
      total -= entry.bytes;
      result.removed_bytes += entry.bytes;
      std::remove(entry.path.c_str());
      ++result.removed;
    } else {
      ++result.kept;
      result.kept_bytes += entry.bytes;
    }
  }
  return result;
}

}  // namespace mobisim
