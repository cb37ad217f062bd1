#include "telemetry/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace nd::telemetry {

namespace {

/// How long snapshot() retries for a consistent generation before it
/// settles for a possibly-torn read.
constexpr std::chrono::milliseconds kSnapshotRetry{100};

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

bool valid_label_name(const std::string& name) {
  // Same grammar minus the colon.
  return valid_metric_name(name) &&
         name.find(':') == std::string::npos;
}

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

const Snapshot::Sample* Snapshot::find(std::string_view name,
                                       const Labels& labels) const {
  const Labels sorted = canonical(labels);
  for (const Sample& sample : samples) {
    if (sample.name == name && sample.labels == sorted) {
      return &sample;
    }
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string name,
                                                  Labels labels,
                                                  MetricKind kind) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("telemetry: invalid metric name '" + name +
                                "'");
  }
  for (const auto& [label, value] : labels) {
    (void)value;
    if (!valid_label_name(label)) {
      throw std::invalid_argument("telemetry: invalid label name '" +
                                  label + "'");
    }
  }
  labels = canonical(std::move(labels));
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.name == name && entry.labels == labels) {
      if (entry.kind != kind) {
        throw std::invalid_argument(
            "telemetry: metric '" + name +
            "' re-registered with a different kind");
      }
      return entry;
    }
  }
  Entry entry;
  entry.name = std::move(name);
  entry.labels = std::move(labels);
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter& MetricsRegistry::counter(std::string name, Labels labels) {
  return *entry_for(std::move(name), std::move(labels),
                    MetricKind::kCounter)
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string name, Labels labels) {
  return *entry_for(std::move(name), std::move(labels), MetricKind::kGauge)
              .gauge;
}

Histogram& MetricsRegistry::histogram(std::string name, Labels labels) {
  return *entry_for(std::move(name), std::move(labels),
                    MetricKind::kHistogram)
              .histogram;
}

Snapshot MetricsRegistry::snapshot(std::uint64_t interval) const {
  Snapshot snapshot;
  snapshot.interval = interval;
  // Seqlock read side: retry while a guarded multi-instrument update is
  // in flight (odd generation, yield so the writer can finish) or
  // completed mid-read (generation moved: re-read at once — the writer
  // has just left its window, so the gap before its next one is now).
  // Yielding after a failed validation too was tried and tore more
  // reads when threads outnumber cores: the reader gave its core away
  // during exactly those gaps. Bounded by wall time rather than by
  // attempts, so back-to-back update windows (a sanitizer's slowdown)
  // cannot exhaust a spin budget, yet a writer that died inside a guard
  // still can't hang a scrape; past the bound the possibly-torn read is
  // returned — the next interval's snapshot self-heals.
  const auto deadline = std::chrono::steady_clock::now() + kSnapshotRetry;
  bool read = false;
  for (;;) {
    const std::uint64_t before =
        generation_.load(std::memory_order_acquire);
    if ((before & 1) == 0) {
      snapshot.samples.clear();
      read_samples(snapshot);
      read = true;
      if (generation_.load(std::memory_order_acquire) == before) break;
    } else {
      std::this_thread::yield();
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  if (!read) read_samples(snapshot);  // wedged writer: torn beats empty
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const Snapshot::Sample& a, const Snapshot::Sample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snapshot;
}

void MetricsRegistry::read_samples(Snapshot& snapshot) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.samples.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      Snapshot::Sample sample;
      sample.name = entry.name;
      sample.labels = entry.labels;
      sample.kind = entry.kind;
      switch (entry.kind) {
        case MetricKind::kCounter:
          sample.counter_value = entry.counter->value();
          break;
        case MetricKind::kGauge:
          sample.gauge_value = entry.gauge->value();
          break;
        case MetricKind::kHistogram: {
          Snapshot::HistogramValue& value = sample.histogram;
          for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t count = entry.histogram->bucket_count(b);
            if (count == 0) continue;
            value.buckets.emplace_back(Histogram::upper_bound(b), count);
            value.count += count;
          }
          value.sum = entry.histogram->sum();
          break;
        }
      }
      snapshot.samples.push_back(std::move(sample));
    }
  }
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace nd::telemetry
