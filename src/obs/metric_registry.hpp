// Unified metric registry: the single store every layer (sim network,
// stream runtime, resource monitor, coordinator, supervisor, experiment
// runner) emits its telemetry through.
//
// Layers obtain a cell once (map lookup at deploy/construction time) and
// keep the returned reference — cells have stable addresses for the
// registry's lifetime, so the steady-state emit path is one pointer
// increment. Snapshots iterate the backing std::map, which keys cells by
// (name, labels); the ordering is total and value-based, so two runs that
// created the same metrics in any order export byte-identical CSV/JSON.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace rasc::obs {

/// One exported metric in a deterministic snapshot.
struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;

  /// Counter value or gauge reading (0 for histograms).
  double value = 0;
  /// Histogram-only fields (0 otherwise).
  std::int64_t count = 0;
  double mean = 0, stddev = 0, min = 0, max = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

const char* to_string(MetricRow::Kind kind);

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Finds or creates a cell. The reference stays valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  /// Read-only lookup; nullptr when the cell does not exist.
  const Counter* find_counter(std::string_view name,
                              const Labels& labels = {}) const;
  const Gauge* find_gauge(std::string_view name,
                          const Labels& labels = {}) const;
  const Histogram* find_histogram(std::string_view name,
                                  const Labels& labels = {}) const;

  /// Sum of one counter over every label combination (deterministic:
  /// integer addition in sorted label order).
  std::int64_t counter_total(std::string_view name) const;

  /// Merge of one histogram over every label combination, in sorted label
  /// order (deterministic given identical per-cell contents).
  Histogram histogram_total(std::string_view name) const;

  /// Folds another registry into this one (sweep aggregation): counters
  /// add, gauges take the other's reading, histograms merge.
  void merge_from(const MetricRegistry& other);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// All cells as rows sorted by (name, labels) — a stable, total order.
  std::vector<MetricRow> snapshot() const;

  /// Exports a snapshot with a fixed header/field layout. Keys appear in
  /// snapshot order, so identical runs produce byte-identical files.
  static void write_csv(const std::vector<MetricRow>& rows,
                        std::ostream& out);
  static void write_json(const std::vector<MetricRow>& rows,
                         std::ostream& out);
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;

 private:
  using Key = std::pair<std::string, Labels>;

  template <typename T>
  using CellMap = std::map<Key, std::unique_ptr<T>>;

  template <typename T>
  static T& get_cell(CellMap<T>& cells, std::string_view name,
                     Labels labels);
  template <typename T>
  static const T* find_cell(const CellMap<T>& cells, std::string_view name,
                            const Labels& labels);

  /// Guards the cell maps themselves, not the cells: cells are created
  /// lazily (deploy.* counters, per-kind network columns), possibly while
  /// another thread reads the registry. Cells keep stable addresses, so
  /// the steady-state emit path — through a cached pointer — takes no lock.
  mutable std::mutex mu_;
  CellMap<Counter> counters_;
  CellMap<Gauge> gauges_;
  CellMap<Histogram> histograms_;
};

}  // namespace rasc::obs
