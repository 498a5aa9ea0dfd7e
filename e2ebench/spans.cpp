#include "spans.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "common.h"

namespace e2e {

namespace {

std::uint64_t this_thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* layer,
                           std::uint32_t epoch)
    : rec_(rec), id_(rec.open(layer, epoch)) {}

SpanRecorder::Scope::~Scope() { rec_.close(id_); }

std::int32_t SpanRecorder::open(const char* layer, std::uint32_t epoch) {
  const std::uint64_t key = this_thread_key();
  const std::lock_guard lock{mutex_};
  auto& stack = stacks_[key];
  const auto [it, inserted] =
      thread_ids_.try_emplace(key, static_cast<std::uint32_t>(thread_ids_.size()));
  Span s;
  s.layer = layer;
  s.epoch = epoch;
  s.parent = stack.empty() ? -1 : stack.back();
  s.thread = it->second;
  const auto id = static_cast<std::int32_t>(spans_.size());
  stack.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void SpanRecorder::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  const std::lock_guard lock{mutex_};
  spans_[static_cast<std::size_t>(id)].end_ns = end;
  stacks_[this_thread_key()].pop_back();
}

std::map<std::string, LayerTotals> SpanRecorder::totals(
    std::int64_t from_ns) const {
  const std::lock_guard lock{mutex_};
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < from_ns) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    LayerTotals& t = out[s.layer];
    t.total_s += d;
    t.self_s += d - child_s[i];
    t.spans += 1;
  }
  return out;
}

std::vector<double> SpanRecorder::durations(const std::string& layer,
                                            std::int64_t from_ns) const {
  const std::lock_guard lock{mutex_};
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.start_ns >= from_ns && layer == s.layer) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

void SpanRecorder::write_tsv(const std::filesystem::path& path) const {
  const std::lock_guard lock{mutex_};
  std::ofstream out{path};
  out << "id\tlayer\tepoch\tthread\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.layer << '\t' << s.epoch << '\t' << s.thread << '\t'
        << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::string layer_table(const std::map<std::string, LayerTotals>& totals,
                        double region_s) {
  std::vector<std::pair<std::string, LayerTotals>> rows(totals.begin(),
                                                        totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::string out =
      "| layer | self | share | spans | avg/span |\n|---|---|---|---|---|\n";
  char line[160];
  double sum = 0.0;
  for (const auto& [layer, t] : rows) {
    sum += t.self_s;
    std::snprintf(line, sizeof line, "| `%s` | %.3f s | %.1f %% | %llu | %.2f ms |\n",
                  layer.c_str(), t.self_s,
                  region_s > 0 ? 100.0 * t.self_s / region_s : 0.0,
                  static_cast<unsigned long long>(t.spans),
                  t.spans == 0 ? 0.0 : 1e3 * t.total_s / static_cast<double>(t.spans));
    out += line;
  }
  std::snprintf(line, sizeof line, "| (sum of self) | %.3f s | %.1f %% | | |\n",
                sum, region_s > 0 ? 100.0 * sum / region_s : 0.0);
  out += line;
  return out;
}

}  // namespace e2e
