// Span recorder of the traced run.

#include <algorithm>
#include <fstream>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {

int Tracer::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
          .count();
  spans_.push_back(Span{name, op_, parent, now, now});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  SQLTS_CHECK(!open_.empty() && open_.back() == id) << "unbalanced span";
  open_.pop_back();
  spans_[id].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
          .count();
}

void Tracer::Count(const std::string& name, double value) {
  std::vector<double>& per_op = counts_[name];
  per_op.resize(static_cast<size_t>(num_ops()), 0.0);
  per_op.back() += value;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> Tracer::CountsByOp(const std::string& name) const {
  auto it = counts_.find(name);
  std::vector<double> v =
      it == counts_.end() ? std::vector<double>{} : it->second;
  v.resize(static_cast<size_t>(num_ops()), 0.0);
  return v;
}

double Tracer::MedianCount(const std::string& name) const {
  return Median(CountsByOp(name));
}

void EngineCounts(const Tracer& t, LayerMetrics* out) {
  (*out)["engine.tests"] = t.MedianCount("engine.tests");
  (*out)["engine.jumps"] = t.MedianCount("engine.jumps");
  const double tests = (*out)["engine.tests"];
  const double skips = t.MedianCount("engine.presat_skips");
  (*out)["engine.presat_skip_share"] =
      tests + skips > 0 ? skips / (tests + skips) : 0;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesByOp() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ms - spans_[i].start_ms;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ms - spans_[i].start_ms;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<double>& per_op = out[spans_[i].name];
    per_op.resize(static_cast<size_t>(num_ops()), 0.0);
    per_op[static_cast<size_t>(spans_[i].op)] += self[i];
  }
  return out;
}

std::vector<double> Tracer::RootTimes() const {
  std::vector<double> out(static_cast<size_t>(num_ops()), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) out[static_cast<size_t>(s.op)] += s.end_ms - s.start_ms;
  }
  return out;
}

Status Tracer::Dump(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << "}\n";
  }
  return out.good() ? Status::OK() : Status::IoError("short write " + path);
}

}  // namespace perfbench
