#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/model_factory.h"
#include "engine/sweep_runner.h"
#include "engine/sweep_telemetry.h"
#include "math/stats.h"
#include "obs/trace.h"

namespace perfbench {

using namespace fdtdmm;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- spans

SpanLog::Scope::Scope(SpanLog* log, std::string name, int parent) : log_(log) {
  if (log_ == nullptr) return;
  id_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans_[id_];
  s.end = Clock::now();
  if (obs::TraceWriter* w = obs::TraceWriter::active())
    w->completeEvent(s.name, "bench", s.begin, s.end);
}

double SpanLog::seconds(int id) const {
  return secondsBetween(spans_[id].begin, spans_[id].end);
}

double SpanLog::selfSeconds(int id) const {
  double self = seconds(id);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent == id) self -= seconds(static_cast<int>(i));
  return self;
}

// ---------------------------------------------------------------- one rep

namespace {

// Expands the workload for `seed` and identifies its models from the
// transistor-level devices (never through the process-wide default model
// cache). Spans go under `parent` when `spans` is set.
SetupResult runSetup(const Workload& w, std::uint64_t seed, SpanLog* spans, int parent) {
  SetupResult out;
  {
    SpanLog::Scope s(spans, "engine.expand", parent);
    // Each repeat starts, like a user's single expansion, with no earlier
    // task list alive: holding two would inflate the heap and peak_rss_mb.
    double total = 0.0;
    for (std::size_t i = 0; i < w.expand_repeats; ++i) {
      out.tasks.clear();
      const auto a = Clock::now();
      out.tasks = w.spec(seed).expandDetailed().tasks;
      total += secondsBetween(a, Clock::now());
    }
    out.expand_s = total / static_cast<double>(w.expand_repeats);
  }
  {
    // The span and timer wrap the decision too: a workload that needs no
    // driver reads the (sub-microsecond) cost of skipping it.
    SpanLog::Scope s(spans, "rbf.identify_driver", parent);
    const auto a = Clock::now();
    if (w.needs_driver) {
      out.models.driver = std::make_shared<const RbfDriverModel>(
          buildDriverMacromodel(defaultDriverDevice()));
      ++out.drivers_identified;
    }
    out.identify_driver_s = secondsBetween(a, Clock::now());
  }
  {
    SpanLog::Scope s(spans, "rbf.identify_receiver", parent);
    const auto a = Clock::now();
    if (w.needs_receiver) {
      out.models.receiver = std::make_shared<const RbfReceiverModel>(
          buildReceiverMacromodel(defaultReceiverDevice()));
      ++out.receivers_identified;
    }
    out.identify_receiver_s = secondsBetween(a, Clock::now());
  }
  out.setup_s = out.expand_s + out.identify_driver_s + out.identify_receiver_s;
  return out;
}

}  // namespace

RepResult runRep(const Workload& w, std::uint64_t seed, const RepOptions& opt) {
  RepResult out;
  SpanLog::Scope rep(opt.spans, "bench.rep");
  out.rep_span = rep.id();

  out.setup = runSetup(w, seed, opt.spans, rep.id());

  {
    SpanLog::Scope s(opt.spans, "engine.sweep", rep.id());
    const auto a = Clock::now();
    out.result = runTasks(out.setup.tasks, out.setup.models, opt.workers, opt.keep_waveforms);
    out.sweep_s = secondsBetween(a, Clock::now());
  }

  const std::string base = opt.out_dir + "/" + w.name;
  {
    SpanLog::Scope s(opt.spans, "engine.export", rep.id());
    const auto a = Clock::now();
    writeSweepCsv(out.result, base + "_results.csv");
    writeSweepJson(out.result, base + "_results.json");
    writeSweepTelemetryJson(out.result, base + "_telemetry.json");
    out.export_s = secondsBetween(a, Clock::now());
  }
  out.time_to_results_s = out.setup.setup_s + out.sweep_s + out.export_s;
  out.csv = readFile(base + "_results.csv");
  return out;
}

SweepResult runTasks(const std::vector<SimulationTask>& tasks, const Models& models,
                     std::size_t workers, bool keep_waveforms) {
  auto cache = std::make_shared<ModelCache>();
  if (models.driver) cache->putDriver(kModelName, models.driver);
  if (models.receiver) cache->putReceiver(kModelName, models.receiver);
  SweepRunnerOptions ro;
  ro.workers = workers;
  ro.keep_waveforms = keep_waveforms;
  ro.model_cache = std::move(cache);  // solver and result caches: fresh
  SweepRunner runner(ro);
  return runner.run(tasks);
}

// ---------------------------------------------------------------- checks

bool metricsFinite(const SweepResult& r, std::string* where) {
  for (const SweepRunRecord& rec : r.runs) {
    if (!rec.ok) continue;
    const RunMetrics& m = rec.metrics;
    const double values[] = {m.eye.eye_height, m.eye.level_high, m.eye.level_low,
                             m.v_far_max,    m.v_far_min,      m.overshoot,
                             m.settling_time, m.far_end_delay};
    for (double v : values) {
      if (!std::isfinite(v)) {
        if (where) *where = rec.label;
        return false;
      }
    }
  }
  return true;
}

namespace {

// Splits the sweep CSV (writeSweepCsv) into rows of fields; quoted fields
// may hold commas and doubled quotes.
std::vector<std::vector<std::string>> parseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

double maxDeviation(const std::string& csv, const std::string& ref_csv,
                    std::string* error) {
  const double kInf = std::numeric_limits<double>::infinity();
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return kInf;
  };
  const auto got = parseCsv(csv);
  const auto ref = parseCsv(ref_csv);
  if (got.empty() || ref.empty()) return fail("empty CSV");
  if (got[0] != ref[0]) return fail("CSV header differs from the reference");
  if (got.size() != ref.size())
    return fail("row count " + std::to_string(got.size() - 1) + " vs reference " +
                std::to_string(ref.size() - 1));
  const std::vector<std::string>& header = ref[0];
  double worst = 0.0;
  for (std::size_t r = 1; r < ref.size(); ++r) {
    if (got[r].size() != header.size() || ref[r].size() != header.size())
      return fail("malformed row " + std::to_string(r));
    for (std::size_t c = 0; c < header.size(); ++c) {
      const std::string& name = header[c];
      const std::string& a = got[r][c];
      const std::string& b = ref[r][c];
      if (name == "max_newton_iterations") continue;
      const bool numeric = name != "index" && name != "label" && name != "ok" &&
                           name != "error" && name != "eye_open";
      if (!numeric || a.empty() || b.empty()) {
        if (a != b)
          return fail("row " + std::to_string(r) + " column " + name + ": '" + a +
                      "' vs reference '" + b + "'");
        continue;
      }
      const double x = std::stod(a);
      const double y = std::stod(b);
      const bool is_time = name == "settling_time" || name == "far_end_delay";
      const double floor = is_time ? 1e-12 : 1e-3;
      worst = std::max(worst, std::abs(x - y) / std::max(std::abs(y), floor));
    }
  }
  return worst;
}

// ---------------------------------------------------------------- helpers

double quantileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  return quantile(v, q);
}

double medianOf(const std::vector<double>& v) { return quantileOf(v, 0.5); }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
