#ifndef SWFOMC_TM_MACHINE_H_
#define SWFOMC_TM_MACHINE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace swfomc::tm {

/// A nondeterministic multi-tape *counting* Turing machine (Valiant,
/// reviewed in Section 3.3) over tape alphabet {0, 1}, in the normal form
/// Appendix B assumes: every state reads and writes exactly one designated
/// tape ("a state that reads and writes all tapes can be converted into a
/// sequence of 2k states").
///
/// Heads move Left or Right each step. At the leftmost cell a Left move
/// stays put, and at the rightmost cell (last cell of the last region, in
/// the Appendix B layout) a Right move stays put — matching the encoder's
/// movement predicates.
class CountingTuringMachine {
 public:
  enum class Move { kLeft, kRight };

  struct Transition {
    int next_state;
    bool write;  // symbol written to the active tape
    Move move;
  };

  /// `active_tape[q]` designates the tape state q reads/writes.
  CountingTuringMachine(int num_states, int num_tapes,
                        std::vector<int> active_tape, int initial_state,
                        std::set<int> accepting_states);

  /// Adds a nondeterministic option to δ(state, read_symbol).
  void AddTransition(int state, bool read_symbol, Transition transition);

  int num_states() const { return num_states_; }
  int num_tapes() const { return num_tapes_; }
  int initial_state() const { return initial_state_; }
  int active_tape(int state) const { return active_tape_.at(state); }
  bool IsAccepting(int state) const { return accepting_.contains(state); }
  const std::set<int>& accepting_states() const { return accepting_; }

  const std::vector<Transition>& Delta(int state, bool read_symbol) const;

 private:
  int num_states_;
  int num_tapes_;
  std::vector<int> active_tape_;
  int initial_state_;
  std::set<int> accepting_;
  // delta_[state][symbol] -> options.
  std::vector<std::vector<std::vector<Transition>>> delta_;
};

/// Canned machines used by tests and benches.

/// One accepting state, deterministic right-sweep: exactly one accepting
/// computation for every input n (>= 1).
CountingTuringMachine AlwaysAcceptMachine();

/// Reading a 1 nondeterministically writes 1 or 0 and moves right: on
/// input 1^n (run length n, so n-1 transitions over all-ones cells) there
/// are exactly 2^(n-1) accepting computations.
CountingTuringMachine BranchingMachine();

/// Two states toggling each step; accepts iff the run makes an even
/// number of steps: #accepting(n) = 1 if n is odd (n-1 transitions), else 0.
CountingTuringMachine ParityMachine();

/// Two tapes: copies nondeterministic guesses onto tape 2 while sweeping
/// tape 1; every guess accepted — 2^(n-1) accepting computations, but
/// exercising the multi-tape frame axioms.
CountingTuringMachine TwoTapeBranchingMachine();

}  // namespace swfomc::tm

#endif  // SWFOMC_TM_MACHINE_H_
