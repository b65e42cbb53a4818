// Reference legitimacy oracles for the token protocols: the legitimate
// orbit enumerated by running the protocol, with membership by exact raw
// configuration.  Dftc::isLegitimate / Dftno::isLegitimate decide the
// same sets in closed form; the tests prove the two equal.  The orbit is
// Θ(n) configurations of Θ(n) ints each, so keep n small here.
#ifndef SSNO_TESTS_ORBIT_ORACLE_HPP
#define SSNO_TESTS_ORBIT_ORACLE_HPP

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/graph.hpp"
#include "core/protocol.hpp"
#include "dftc/dftc.hpp"
#include "orientation/dftno.hpp"

namespace ssno::reference {

/// L_TC: every raw configuration DFTC passes through from resetClean()
/// (the clean start, the first round, then the two-round cycle).
class DftcOrbit {
 public:
  explicit DftcOrbit(const Graph& g) {
    Dftc walker(g);  // a fresh Dftc is in the resetClean() state
    while (orbit_.insert(walker.rawConfiguration()).second) {
      const std::vector<Move> moves = walker.enabledMoves();
      // The legitimate execution is deterministic.
      if (moves.size() != 1)
        throw std::logic_error("DftcOrbit: legitimate step not unique");
      walker.execute(moves.front().node, moves.front().action);
    }
  }

  [[nodiscard]] bool contains(const Protocol& dftc) const {
    return orbit_.contains(dftc.rawConfiguration());
  }
  [[nodiscard]] const std::set<std::vector<int>>& configurations() const {
    return orbit_;
  }

 private:
  std::set<std::vector<int>> orbit_;
};

/// L_NO: the repeating suffix of a deterministic fair DFTNO run from a
/// clean substrate with a zeroed overlay (edge-label corrections first,
/// then the unique token move).
class DftnoOrbit {
 public:
  explicit DftnoOrbit(const Graph& g,
                      EdgeLabelGuard guard = EdgeLabelGuard::kContinuous) {
    Dftno walker(g, guard);  // clean substrate, zeroed overlay
    std::map<std::vector<int>, std::size_t> seen;
    std::vector<std::vector<int>> sequence;
    while (true) {
      std::vector<int> code = walker.rawConfiguration();
      const auto [it, inserted] = seen.try_emplace(code, sequence.size());
      if (!inserted) {
        for (std::size_t i = it->second; i < sequence.size(); ++i)
          orbit_.insert(std::move(sequence[i]));
        return;
      }
      sequence.push_back(std::move(code));
      const std::vector<Move> moves = walker.enabledMoves();
      if (moves.empty()) throw std::logic_error("DftnoOrbit: deadlock");
      const Move* pick = &moves.front();
      for (const Move& m : moves) {
        if (m.action == Dftno::kEdgeLabel) {
          pick = &m;
          break;
        }
      }
      walker.execute(pick->node, pick->action);
    }
  }

  [[nodiscard]] bool contains(const Protocol& dftno) const {
    return orbit_.contains(dftno.rawConfiguration());
  }
  [[nodiscard]] const std::set<std::vector<int>>& configurations() const {
    return orbit_;
  }

 private:
  std::set<std::vector<int>> orbit_;
};

}  // namespace ssno::reference

#endif  // SSNO_TESTS_ORBIT_ORACLE_HPP
