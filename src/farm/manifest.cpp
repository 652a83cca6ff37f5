#include "farm/manifest.hpp"

#include <cstdio>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/fault_draw.hpp"
#include "common/rng.hpp"

namespace mf {
namespace {

constexpr const char* kHeader = "macroflow-farm-manifest v1";
constexpr const char* kFooter = "# end";

constexpr const char* kInfeHeader = "macroflow-farm-infeasible v1";
constexpr const char* kInfeFooter = "# count ";

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

int FarmManifest::shard_of_item(const std::string& name) const noexcept {
  const auto shards = static_cast<std::uint64_t>(plan_.shards_per_grid);
  return static_cast<int>(task_seed(plan_.seed, "farm-shard:" + name) %
                          shards);
}

std::vector<std::size_t> FarmManifest::shard_items(
    int shard, const std::vector<GenSpec>& specs) const {
  const int local = local_shard(shard);
  std::vector<std::size_t> items;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (shard_of_item(specs[i].name) == local) items.push_back(i);
  }
  return items;
}

std::string manifest_to_text(const FarmManifest& manifest) {
  const FarmPlan& plan = manifest.plan();
  std::ostringstream out;
  out << kHeader << '\n';
  out << "count " << plan.count << '\n';
  out << "seed " << plan.seed << '\n';
  out << "grid";
  // Room for the chaos line's three %.17g fields (each up to 24 bytes)
  // plus separators and the terminator.
  char buf[80];
  for (const double g : plan.grid) {
    // %.17g round-trips any double exactly; the manifest must reproduce the
    // same search starts in every process.
    std::snprintf(buf, sizeof buf, " %.17g", g);
    out << buf;
  }
  out << '\n';
  out << "shards-per-grid " << plan.shards_per_grid << '\n';
  out << "checkpoint-every " << plan.checkpoint_every << '\n';
  out << "worker-jobs " << plan.worker_jobs << '\n';
  const FarmChaosOptions& chaos = plan.chaos;
  std::snprintf(buf, sizeof buf, "%.17g %.17g %.17g", chaos.p_kill,
                chaos.p_hang, chaos.p_slow);
  out << "chaos " << (chaos.enabled ? 1 : 0) << ' ' << chaos.seed << ' '
      << buf << ' ' << chaos.faults_per_shard << ' ';
  std::snprintf(buf, sizeof buf, "%.17g", chaos.slow_ms);
  out << buf << '\n';
  out << kFooter << '\n';
  return out.str();
}

std::optional<FarmManifest> manifest_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  strip_cr(line);
  if (line != kHeader) return std::nullopt;

  FarmPlan plan;
  plan.grid.clear();
  bool footer_seen = false;
  while (std::getline(in, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line == kFooter) {
      footer_seen = true;
      continue;
    }
    if (footer_seen) return std::nullopt;  // data after the footer: corrupt
    std::istringstream row(line);
    std::string key;
    if (!(row >> key)) return std::nullopt;
    if (key == "count") {
      if (!(row >> plan.count)) return std::nullopt;
    } else if (key == "seed") {
      if (!(row >> plan.seed)) return std::nullopt;
    } else if (key == "grid") {
      double g = 0.0;
      while (row >> g) plan.grid.push_back(g);
    } else if (key == "shards-per-grid") {
      if (!(row >> plan.shards_per_grid)) return std::nullopt;
    } else if (key == "checkpoint-every") {
      if (!(row >> plan.checkpoint_every)) return std::nullopt;
    } else if (key == "worker-jobs") {
      if (!(row >> plan.worker_jobs)) return std::nullopt;
    } else if (key == "chaos") {
      int enabled = 0;
      FarmChaosOptions& chaos = plan.chaos;
      if (!(row >> enabled >> chaos.seed >> chaos.p_kill >> chaos.p_hang >>
            chaos.p_slow >> chaos.faults_per_shard >> chaos.slow_ms)) {
        return std::nullopt;
      }
      chaos.enabled = enabled != 0;
      if (!fault_probabilities_valid(
              {chaos.p_kill, chaos.p_hang, chaos.p_slow})) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;  // unknown key: not our version after all
    }
  }
  if (!footer_seen || plan.count <= 0 || plan.grid.empty() ||
      plan.shards_per_grid <= 0 || plan.checkpoint_every <= 0) {
    return std::nullopt;
  }
  return FarmManifest(std::move(plan));
}

bool save_manifest(const std::string& path, const FarmManifest& manifest) {
  return atomic_write_file(path, manifest_to_text(manifest));
}

std::optional<FarmManifest> load_manifest(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) return std::nullopt;
  return manifest_from_text(*text);
}

std::string farm_manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}

std::string farm_shards_dir(const std::string& dir) { return dir + "/shards"; }

std::string farm_quarantine_dir(const std::string& dir) {
  return dir + "/quarantine";
}

std::string farm_shard_stem(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%04d", shard);
  return buf;
}

std::string farm_shard_gt_path(const std::string& dir, int shard) {
  return farm_shards_dir(dir) + "/" + farm_shard_stem(shard) + ".gt";
}

std::string farm_shard_infeasible_path(const std::string& dir, int shard) {
  return farm_shards_dir(dir) + "/" + farm_shard_stem(shard) + ".infe";
}

std::string farm_shard_heartbeat_path(const std::string& dir, int shard) {
  return farm_shards_dir(dir) + "/" + farm_shard_stem(shard) + ".hb";
}

std::string farm_shard_done_path(const std::string& dir, int shard) {
  return farm_shards_dir(dir) + "/" + farm_shard_stem(shard) + ".done";
}

std::string farm_merged_path(const std::string& dir, int grid,
                             int grid_size) {
  if (grid_size <= 1) return dir + "/ground_truth.gt";
  return dir + "/ground_truth.g" + std::to_string(grid) + ".gt";
}

std::string infeasible_to_text(const std::vector<std::string>& names) {
  std::ostringstream out;
  out << kInfeHeader << '\n';
  for (const std::string& name : names) out << name << '\n';
  out << kInfeFooter << names.size() << '\n';
  return out.str();
}

std::optional<std::vector<std::string>> infeasible_from_text(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  strip_cr(line);
  if (line != kInfeHeader) return std::nullopt;

  std::vector<std::string> names;
  bool footer_seen = false;
  std::size_t footer_count = 0;
  while (std::getline(in, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line.rfind(kInfeFooter, 0) == 0) {
      std::istringstream footer(line.substr(std::string(kInfeFooter).size()));
      if (!(footer >> footer_count)) return std::nullopt;
      footer_seen = true;
      continue;
    }
    if (footer_seen) return std::nullopt;
    names.push_back(line);
  }
  if (!footer_seen || footer_count != names.size()) return std::nullopt;
  return names;
}

}  // namespace mf
