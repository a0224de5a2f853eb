// Synthetic inputs and output comparison for the benchmark.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "types/date.h"

namespace perfbench {

using sqlts::Date;
using sqlts::TypeKind;
using sqlts::Value;

Schema QuoteSchema() {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble,
                             /*nullable=*/false, /*positive=*/true));
  return s;
}

uint64_t Rng::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Normal() {
  // Box-Muller; u1 is kept away from 0 so log() stays finite.
  const double u1 = Uniform() * (1.0 - 1e-12) + 1e-12;
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

void AppendSeries(Table* table, const std::string& name,
                  const SeriesShape& shape, Rng* rng) {
  const Date start = *Date::FromYmd(2000, 1, 3);
  const double mean = std::log(shape.level);
  const double k = shape.reversion;
  // Start from the stationary distribution, so every instrument spends a
  // similar share of its days at each price level.
  double lp = mean + shape.vol / std::sqrt(k * (2.0 - k)) * rng->Normal();
  std::vector<double> moves;  // planted log-returns still to apply
  for (int64_t d = 0; d < shape.days; ++d) {
    double r;
    if (!moves.empty()) {
      r = moves.back();
      moves.pop_back();
    } else if (rng->Uniform() < shape.spike_prob) {
      r = std::log(1.20);
      moves.push_back(std::log(0.75));
    } else if (rng->Uniform() < shape.crash_prob) {
      r = std::log(0.91);
      moves.assign(8, std::log(0.91));
    } else {
      r = k * (mean - lp) + shape.vol * rng->Normal();
    }
    lp += r;
    const double p = std::max(0.01, std::round(std::exp(lp) * 100.0) / 100.0);
    SQLTS_CHECK_OK(table->AppendRow({Value::String(name),
                                     Value::FromDate(start.AddDays(
                                         static_cast<int32_t>(d))),
                                     Value::Double(p)}));
  }
}

namespace {

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].StructurallyEquals(b[i])) return false;
  }
  return true;
}

/// Exact text form of a row: kind tag plus a lossless rendering.
std::string RowKey(const Row& row) {
  std::string key;
  char buf[40];
  for (const Value& v : row) {
    key += std::to_string(static_cast<int>(v.kind()));
    key += ':';
    switch (v.kind()) {
      case TypeKind::kNull:
        break;
      case TypeKind::kBool:
        key += v.bool_value() ? '1' : '0';
        break;
      case TypeKind::kInt64:
        key += std::to_string(v.int64_value());
        break;
      case TypeKind::kDouble:
        std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
        key += buf;
        break;
      case TypeKind::kString:
        key += v.string_value();
        break;
      case TypeKind::kDate:
        key += std::to_string(v.date_value().days_since_epoch());
        break;
    }
    key += '\x1f';
  }
  return key;
}

}  // namespace

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameRow(a[i], b[i])) return false;
  }
  return true;
}

bool SameRowMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::vector<std::string> ka, kb;
  ka.reserve(a.size());
  kb.reserve(b.size());
  for (const Row& r : a) ka.push_back(RowKey(r));
  for (const Row& r : b) kb.push_back(RowKey(r));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

std::vector<Row> TableRows(const Table& t) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.GetRow(r));
  return rows;
}

int64_t CsvBytes(const Table& t) {
  const Schema& s = t.schema();
  int64_t bytes = 0;
  for (int c = 0; c < s.num_columns(); ++c) {
    bytes += static_cast<int64_t>(s.column(c).name.size()) + 1;
  }
  char buf[40];
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < s.num_columns(); ++c) {
      const Value& v = t.at(r, c);
      switch (v.kind()) {
        case TypeKind::kString:
          bytes += static_cast<int64_t>(v.string_value().size());
          break;
        case TypeKind::kDouble:
          bytes += std::snprintf(buf, sizeof(buf), "%.15g", v.double_value());
          break;
        case TypeKind::kNull:
          break;
        default:
          bytes += static_cast<int64_t>(v.ToString().size());
      }
      bytes += 1;  // separator or newline
    }
  }
  return bytes;
}

void ParallelFor(int threads, int n, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  auto work = [&] {
    for (int i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < std::min(threads, n); ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

}  // namespace perfbench
