#include "src/runner/bench_registry.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/util/check.h"

namespace mobisim {

namespace {

std::vector<BenchDef>& Registry() {
  static std::vector<BenchDef> registry;
  return registry;
}

// Tags every row with the bench that produced it; forwarded Finish is a
// no-op so RunSweep's per-grid Finish cannot close a sink that later grids
// (or later benches) still write to — the sink's owner finishes it once.
class BenchLabelSink : public ResultSink {
 public:
  BenchLabelSink(std::string bench, ResultSink* inner)
      : bench_(std::move(bench)), inner_(inner) {}

  void Write(const ResultRow& row) override {
    ResultRow labeled;
    labeled.AddText("bench", bench_);
    for (const ResultField& field : row.fields) {
      labeled.fields.push_back(field);
    }
    inner_->Write(labeled);
  }
  void Finish() override {}
  bool AcceptsErrorRows() const override { return inner_->AcceptsErrorRows(); }
  bool AcceptsDynamicRows() const override { return inner_->AcceptsDynamicRows(); }

 private:
  std::string bench_;
  ResultSink* inner_;
};

}  // namespace

BenchContext::BenchContext(const BenchDef& def, const Options& options)
    : def_(def), options_(options) {
  scale_ = options_.scale > 0.0
               ? options_.scale
               : (options_.smoke ? def_.smoke_scale : def_.default_scale);
  param_ = options_.param != 0
               ? options_.param
               : (options_.smoke ? def_.smoke_param : def_.default_param);
}

std::vector<SweepOutcome> BenchContext::RunPoints(std::vector<ExperimentPoint> points) {
  // Re-index so rows from successive grids of one bench never collide: the
  // `point` column is unique (and monotonic) within the whole bench run.
  for (ExperimentPoint& point : points) {
    point.index = next_index_++;
    if (options_.seed) {
      point.seed = *options_.seed;
    }
  }
  std::vector<BenchLabelSink> labeled;
  labeled.reserve(options_.sinks.size());
  SweepOptions sweep_options;
  sweep_options.threads = options_.threads;
  sweep_options.trace_cache = options_.trace_cache;
  for (ResultSink* sink : options_.sinks) {
    labeled.emplace_back(def_.name, sink);
  }
  for (BenchLabelSink& sink : labeled) {
    sweep_options.sinks.push_back(&sink);
  }
  std::vector<SweepOutcome> outcomes;
  outcomes.reserve(points.size());
  sweep_options.on_emit = [this, &outcomes](const SweepOutcome& outcome) {
    failed_ += outcome.failed ? 1 : 0;
    outcomes.push_back(outcome);
  };
  RunSweep(points, sweep_options);
  return outcomes;
}

std::vector<SweepOutcome> BenchContext::RunGrid(ExperimentSpec spec) {
  if (options_.seed) {
    spec.seeds = {*options_.seed};
  }
  if (options_.replicas) {
    spec.replicas = *options_.replicas;
  }
  return RunPoints(EnumerateGrid(spec));
}

void BenchContext::Emit(ResultRow row) {
  if (row.Find("point") == nullptr) {
    ResultRow indexed;
    indexed.AddInt("point", next_index_);
    for (ResultField& field : row.fields) {
      indexed.fields.push_back(std::move(field));
    }
    row = std::move(indexed);
  }
  ++next_index_;
  for (ResultSink* sink : options_.sinks) {
    if (!sink->AcceptsDynamicRows()) {
      continue;
    }
    if (row.Find("_error") != nullptr && !sink->AcceptsErrorRows()) {
      continue;
    }
    BenchLabelSink labeled(def_.name, sink);
    labeled.Write(row);
  }
}

bool RegisterBench(BenchDef def) {
  MOBISIM_CHECK(!def.name.empty());
  MOBISIM_CHECK(def.run != nullptr);
  MOBISIM_CHECK(FindBench(def.name) == nullptr);
  Registry().push_back(std::move(def));
  return true;
}

std::vector<const BenchDef*> AllBenches() {
  std::vector<const BenchDef*> benches;
  benches.reserve(Registry().size());
  for (const BenchDef& def : Registry()) {
    benches.push_back(&def);
  }
  std::sort(benches.begin(), benches.end(),
            [](const BenchDef* a, const BenchDef* b) { return a->name < b->name; });
  return benches;
}

const BenchDef* FindBench(const std::string& name) {
  for (const BenchDef& def : Registry()) {
    if (def.name == name) {
      return &def;
    }
  }
  return nullptr;
}

std::size_t RunBench(const BenchDef& def, const BenchContext::Options& options) {
  BenchContext context(def, options);
  try {
    def.run(context);
  } catch (const std::exception& e) {
    // A bench that throws becomes one `_error` row (mirroring failed sweep
    // points) so `run --all` keeps going and the export records the failure.
    ResultRow row;
    row.AddText("_error", e.what());
    context.Emit(std::move(row));
    return context.failed_points() + 1;
  }
  return context.failed_points();
}

}  // namespace mobisim
