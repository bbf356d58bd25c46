#include "metrics/registry.h"

#include <algorithm>
#include <stdexcept>

namespace serve::metrics {

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (labels[i].first == labels[i - 1].first) {
      throw std::invalid_argument("Registry: duplicate label key '" + labels[i].first + "'");
    }
  }
  return labels;
}

bool same_key_set(const Labels& a, const Labels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
  }
  return true;
}

}  // namespace

Registry::Instrument& Registry::intern(std::string name, Labels labels, InstrumentType type,
                                       bool wall_clock) {
  labels = canonical(std::move(labels));
  std::lock_guard lock{mu_};
  for (auto& ins : instruments_) {
    if (ins->name != name) continue;
    // A name is bound to one type and one label key-set forever.
    if (ins->type != type) {
      throw std::invalid_argument("Registry: '" + name + "' already registered as " +
                                  std::string(instrument_type_name(ins->type)) +
                                  ", re-registered as " +
                                  std::string(instrument_type_name(type)));
    }
    if (!same_key_set(ins->labels, labels)) {
      throw std::invalid_argument("Registry: '" + name +
                                  "' re-registered with a different label key set");
    }
    if (ins->labels == labels) return *ins;
  }
  auto ins = std::make_unique<Instrument>();
  ins->name = std::move(name);
  ins->labels = std::move(labels);
  ins->type = type;
  ins->wall_clock = wall_clock;
  if (type == InstrumentType::kHistogram) ins->hist = std::make_unique<Histogram>();
  instruments_.push_back(std::move(ins));
  return *instruments_.back();
}

Counter Registry::counter(std::string name, Labels labels) {
  return Counter{&intern(std::move(name), std::move(labels), InstrumentType::kCounter, false).cell};
}

Counter Registry::wall_clock_counter(std::string name, Labels labels) {
  return Counter{&intern(std::move(name), std::move(labels), InstrumentType::kCounter, true).cell};
}

Gauge Registry::gauge(std::string name, Labels labels) {
  return Gauge{&intern(std::move(name), std::move(labels), InstrumentType::kGauge, false).cell};
}

void Registry::counter_fn(std::string name, Labels labels, std::function<double()> fn) {
  intern(std::move(name), std::move(labels), InstrumentType::kCounter, false).callback =
      std::move(fn);
}

void Registry::gauge_fn(std::string name, Labels labels, std::function<double()> fn) {
  intern(std::move(name), std::move(labels), InstrumentType::kGauge, false).callback =
      std::move(fn);
}

HistogramHandle Registry::histogram(std::string name, Labels labels,
                                    const Histogram::Options& opts) {
  auto& ins = intern(std::move(name), std::move(labels), InstrumentType::kHistogram, false);
  // First registration decides the layout; intern() made a default-layout
  // histogram, replace it while it's still empty.
  if (ins.hist->count() == 0) ins.hist = std::make_unique<Histogram>(opts);
  return HistogramHandle{ins.hist.get()};
}

Registry::InstrumentSnapshot Registry::snapshot_one(const Instrument& ins) const {
  InstrumentSnapshot s;
  s.name = ins.name;
  s.labels = ins.labels;
  s.type = ins.type;
  s.wall_clock = ins.wall_clock;
  s.value = ins.value();
  if (ins.type == InstrumentType::kHistogram) {
    const Histogram& h = *ins.hist;
    s.count = h.count();
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
    for (const auto& b : h.nonzero_buckets()) {
      s.buckets.push_back({b.lower, b.upper, b.count, b.exemplar_trace_id, b.exemplar_value});
    }
  }
  return s;
}

std::vector<Registry::InstrumentSnapshot> Registry::snapshot() const {
  std::lock_guard lock{mu_};
  std::vector<InstrumentSnapshot> out;
  out.reserve(instruments_.size());
  for (const auto& ins : instruments_) out.push_back(snapshot_one(*ins));
  return out;
}

void Registry::freeze_callbacks() {
  std::lock_guard lock{mu_};
  for (auto& ins : instruments_) {
    if (!ins->callback) continue;
    ins->cell.store(ins->callback(), std::memory_order_relaxed);
    ins->callback = nullptr;
  }
}

std::size_t Registry::size() const {
  std::lock_guard lock{mu_};
  return instruments_.size();
}

Registry::InstrumentInfo Registry::info(std::size_t i) const {
  std::lock_guard lock{mu_};
  const auto& ins = *instruments_.at(i);
  return {ins.name, ins.labels, ins.type, ins.wall_clock};
}

void Registry::sample_values(std::vector<double>& out) const {
  std::lock_guard lock{mu_};
  out.resize(instruments_.size());
  for (std::size_t i = 0; i < instruments_.size(); ++i) out[i] = instruments_[i]->value();
}

std::pair<std::uint64_t, double> Registry::histogram_count_below(std::size_t i,
                                                                 double threshold) const {
  std::lock_guard lock{mu_};
  const auto& ins = *instruments_.at(i);
  if (ins.type != InstrumentType::kHistogram) return {0, 0.0};
  return {ins.hist->count(), ins.hist->count_at_or_below(threshold)};
}

std::optional<Registry::InstrumentSnapshot> Registry::find(const std::string& name,
                                                           const Labels& labels) const {
  const Labels canon = canonical(labels);
  std::lock_guard lock{mu_};
  for (const auto& ins : instruments_) {
    if (ins->name == name && ins->labels == canon) return snapshot_one(*ins);
  }
  return std::nullopt;
}

}  // namespace serve::metrics
