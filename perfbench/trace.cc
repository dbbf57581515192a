#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <utility>

namespace perfbench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(uint64_t id, uint64_t parent, uint64_t unit,
                    std::string name, Clock::time_point start,
                    Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  if (enabled_) {
    spans_.push_back(Span{id, parent, unit, std::move(name), start, end});
  }
}

std::map<std::string, double> Tracer::SelfSeconds(
    const std::vector<uint64_t>& units) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::set<uint64_t> wanted(units.begin(), units.end());
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  std::vector<const Span*> selected;
  for (const Span& s : spans_) {
    if (wanted.count(s.unit) == 0) continue;
    selected.push_back(&s);
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span* s : selected) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    auto it = children.find(s->id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        Clock::time_point a = std::max(c->start, s->start);
        Clock::time_point b = std::min(c->end, s->end);
        if (a < b) covered.emplace_back(a, b);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0;
    Clock::time_point reach = s->start;
    for (const auto& [a, b] : covered) {
      Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered_s += Seconds(from, b);
        reach = b;
      }
    }
    self[s->layer()] += std::max(0.0, Seconds(s->start, s->end) - covered_s);
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(Seconds(s.start, s.end));
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path, Clock::time_point epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"unit\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.unit), s.name.c_str(),
                 Seconds(epoch, s.start), Seconds(epoch, s.end),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
