#include "tm/machine.h"

#include <stdexcept>

namespace swfomc::tm {

CountingTuringMachine::CountingTuringMachine(int num_states, int num_tapes,
                                             std::vector<int> active_tape,
                                             int initial_state,
                                             std::set<int> accepting_states)
    : num_states_(num_states),
      num_tapes_(num_tapes),
      active_tape_(std::move(active_tape)),
      initial_state_(initial_state),
      accepting_(std::move(accepting_states)) {
  if (num_states_ <= 0 || num_tapes_ <= 0) {
    throw std::invalid_argument("CountingTuringMachine: empty machine");
  }
  if (static_cast<int>(active_tape_.size()) != num_states_) {
    throw std::invalid_argument(
        "CountingTuringMachine: active_tape must have one entry per state");
  }
  for (int tape : active_tape_) {
    if (tape < 0 || tape >= num_tapes_) {
      throw std::invalid_argument(
          "CountingTuringMachine: active tape out of range");
    }
  }
  if (initial_state_ < 0 || initial_state_ >= num_states_) {
    throw std::invalid_argument(
        "CountingTuringMachine: initial state out of range");
  }
  delta_.assign(static_cast<std::size_t>(num_states_),
                std::vector<std::vector<Transition>>(2));
}

void CountingTuringMachine::AddTransition(int state, bool read_symbol,
                                          Transition transition) {
  if (state < 0 || state >= num_states_ || transition.next_state < 0 ||
      transition.next_state >= num_states_) {
    throw std::invalid_argument("CountingTuringMachine: bad transition");
  }
  delta_.at(static_cast<std::size_t>(state))[read_symbol ? 1 : 0].push_back(
      transition);
}

const std::vector<CountingTuringMachine::Transition>&
CountingTuringMachine::Delta(int state, bool read_symbol) const {
  return delta_.at(static_cast<std::size_t>(state))[read_symbol ? 1 : 0];
}

CountingTuringMachine AlwaysAcceptMachine() {
  CountingTuringMachine machine(1, 1, {0}, 0, {0});
  for (bool symbol : {false, true}) {
    machine.AddTransition(
        0, symbol,
        {0, symbol, CountingTuringMachine::Move::kRight});
  }
  return machine;
}

CountingTuringMachine BranchingMachine() {
  CountingTuringMachine machine(1, 1, {0}, 0, {0});
  // Reading 1: write 1 or 0 (two options), move right.
  machine.AddTransition(0, true,
                        {0, true, CountingTuringMachine::Move::kRight});
  machine.AddTransition(0, false,
                        {0, false, CountingTuringMachine::Move::kRight});
  machine.AddTransition(0, true,
                        {0, false, CountingTuringMachine::Move::kRight});
  return machine;
}

CountingTuringMachine ParityMachine() {
  // q0 = "even steps so far" (accepting), q1 = odd.
  CountingTuringMachine machine(2, 1, {0, 0}, 0, {0});
  for (bool symbol : {false, true}) {
    machine.AddTransition(
        0, symbol, {1, symbol, CountingTuringMachine::Move::kRight});
    machine.AddTransition(
        1, symbol, {0, symbol, CountingTuringMachine::Move::kRight});
  }
  return machine;
}

CountingTuringMachine TwoTapeBranchingMachine() {
  // q0 acts on tape 0 (deterministic sweep); q1 acts on tape 1 and
  // nondeterministically writes a guess bit.
  CountingTuringMachine machine(2, 2, {0, 1}, 0, {0, 1});
  for (bool symbol : {false, true}) {
    machine.AddTransition(
        0, symbol, {1, symbol, CountingTuringMachine::Move::kRight});
    machine.AddTransition(
        1, symbol, {0, false, CountingTuringMachine::Move::kRight});
    machine.AddTransition(
        1, symbol, {0, true, CountingTuringMachine::Move::kRight});
  }
  return machine;
}

}  // namespace swfomc::tm
