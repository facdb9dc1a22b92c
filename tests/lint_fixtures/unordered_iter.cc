// Fixture: unordered-iter rule.
#include <unordered_map>
#include <unordered_set>
#include <vector>

double Violation() {
  std::unordered_map<int, double> totals;
  double sum = 0.0;
  for (const auto& entry : totals) {  // line 9: fires
    sum += entry.second;
  }
  return sum;
}

double Allowed() {
  std::unordered_map<int, double> totals;
  double sum = 0.0;
  // Sum is commutative here and never formatted.
  for (const auto& entry : totals) {  // cedar-lint: allow(unordered-iter)
    sum += entry.second;
  }
  return sum;
}

// Iterator-range copies leak the same order as a range-for loop.
std::vector<int> RangeCopies() {
  std::unordered_set<int> terms;
  std::vector<int> out(terms.begin(), terms.end());  // fires
  out.assign(terms.cbegin(), terms.cend());  // fires
  return out;
}

// Lookups and range copies of ordered containers stay quiet.
bool Quiet() {
  std::unordered_set<int> terms;
  std::vector<int> ordered;
  std::vector<int> copy(ordered.begin(), ordered.end());
  return terms.find(3) != terms.end() && copy.size() == terms.size();
}
