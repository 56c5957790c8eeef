// Lemma 3.8 (pairing function), the counting-TM simulator, and the
// Appendix B encoder: FOMC(Θ1, n) = n! * #accepting(n), verified exactly
// by grounding Θ1 and counting with the DPLL engine.

#include "tm/encoder.h"

#include <gtest/gtest.h>

#include "grounding/grounded_wfomc.h"
#include "numeric/combinatorics.h"
#include "tm/pairing.h"
#include "tm/simulator.h"

namespace swfomc::tm {
namespace {

using numeric::BigInt;

TEST(PairingTest, CeilLog3) {
  EXPECT_EQ(CeilLog3(1), 0u);
  EXPECT_EQ(CeilLog3(2), 1u);
  EXPECT_EQ(CeilLog3(3), 1u);
  EXPECT_EQ(CeilLog3(4), 2u);
  EXPECT_EQ(CeilLog3(9), 2u);
  EXPECT_EQ(CeilLog3(10), 3u);
  EXPECT_THROW(CeilLog3(0), std::invalid_argument);
}

TEST(PairingTest, KnownValues) {
  // e(0, j) = 6j + 1.
  EXPECT_EQ(PairingEncode(0, 1).ToInt64(), 7);
  EXPECT_EQ(PairingEncode(0, 5).ToInt64(), 31);
  // e(1, 1) = 2 * 3^0 * 7 = 14.
  EXPECT_EQ(PairingEncode(1, 1).ToInt64(), 14);
  // e(1, 2) = 2 * 3^4 * 13 = 2106.
  EXPECT_EQ(PairingEncode(1, 2).ToInt64(), 2106);
}

TEST(PairingTest, DecodeInvertsEncode) {
  for (std::uint64_t i = 0; i <= 4; ++i) {
    for (std::uint64_t j = 1; j <= 12; ++j) {
      auto [di, dj] = PairingDecode(PairingEncode(i, j));
      EXPECT_EQ(di, i) << i << "," << j;
      EXPECT_EQ(dj, j) << i << "," << j;
    }
  }
}

TEST(PairingTest, PropertyBRuntimeBound) {
  // e(i,j) >= (i * j^i + i)^2 — the property letting U1 run M_i on j.
  for (std::uint64_t i = 0; i <= 3; ++i) {
    for (std::uint64_t j = 1; j <= 6; ++j) {
      BigInt runtime_bound =
          BigInt::Pow(BigInt::FromUnsigned(i) *
                              BigInt::Pow(BigInt::FromUnsigned(j), i) +
                          BigInt::FromUnsigned(i),
                      2);
      EXPECT_TRUE(PairingEncode(i, j) >= runtime_bound) << i << "," << j;
    }
  }
}

TEST(PairingTest, DecodeRejectsNonImage) {
  EXPECT_THROW(PairingDecode(BigInt(5)), std::invalid_argument);
  EXPECT_THROW(PairingDecode(BigInt(0)), std::invalid_argument);
  EXPECT_THROW(PairingDecode(BigInt(-7)), std::invalid_argument);
}

// --- Simulator ----------------------------------------------------------

TEST(SimulatorTest, AlwaysAcceptHasOneRun) {
  CountingTuringMachine machine = AlwaysAcceptMachine();
  for (std::uint64_t n = 1; n <= 6; ++n) {
    EXPECT_EQ(CountAcceptingComputations(machine, n), BigInt(1)) << n;
  }
}

TEST(SimulatorTest, BranchingMachineCountsChoices) {
  CountingTuringMachine machine = BranchingMachine();
  for (std::uint64_t n = 1; n <= 6; ++n) {
    EXPECT_EQ(CountAcceptingComputations(machine, n),
              BigInt::Pow(BigInt(2), n - 1))
        << n;
  }
}

TEST(SimulatorTest, ParityMachineAlternates) {
  CountingTuringMachine machine = ParityMachine();
  for (std::uint64_t n = 1; n <= 6; ++n) {
    BigInt expected(n % 2 == 1 ? 1 : 0);  // n-1 transitions, accept on even
    EXPECT_EQ(CountAcceptingComputations(machine, n), expected) << n;
  }
}

TEST(SimulatorTest, TwoTapeBranching) {
  CountingTuringMachine machine = TwoTapeBranchingMachine();
  for (std::uint64_t n = 1; n <= 5; ++n) {
    // Guess steps are those taken in state q1: ⌊(n-1)/2⌋... but identical
    // guesses can merge only as distinct *paths*, which the simulator
    // counts separately; expected 2^{#q1-steps}.
    std::uint64_t q1_steps = (n - 1) / 2;
    EXPECT_EQ(CountAcceptingComputations(machine, n),
              BigInt::Pow(BigInt(2), q1_steps))
        << n;
  }
}

TEST(SimulatorTest, MultiEpochRunsLonger) {
  // With c = 2 epochs the parity machine makes 2n - 1 transitions.
  CountingTuringMachine machine = ParityMachine();
  for (std::uint64_t n = 1; n <= 4; ++n) {
    BigInt expected((2 * n - 1) % 2 == 0 ? 1 : 0);
    EXPECT_EQ(CountAcceptingComputations(machine, n, 2), expected) << n;
  }
}

TEST(SimulatorTest, EmptyInputAcceptsNothing) {
  EXPECT_EQ(CountAcceptingComputations(AlwaysAcceptMachine(), 0), BigInt(0));
}

TEST(SimulatorTest, DeadBranchesDie) {
  // A machine with no transition on symbol 1 dies immediately (input is
  // all ones) unless the run is a single step.
  CountingTuringMachine machine(1, 1, {0}, 0, {0});
  machine.AddTransition(0, false,
                        {0, false, CountingTuringMachine::Move::kRight});
  EXPECT_EQ(CountAcceptingComputations(machine, 1), BigInt(1));
  EXPECT_EQ(CountAcceptingComputations(machine, 3), BigInt(0));
}

// --- Encoder ------------------------------------------------------------

void ExpectEncodingIdentity(const CountingTuringMachine& machine,
                            std::uint64_t n, std::uint64_t epochs = 1) {
  EncodedMachine encoded = EncodeMachine(machine, epochs);
  BigInt fomc =
      grounding::GroundedFOMC(encoded.theta, encoded.vocabulary, n);
  BigInt expected = numeric::Factorial(n) *
                    CountAcceptingComputations(machine, n, epochs);
  EXPECT_EQ(fomc, expected)
      << "states=" << machine.num_states() << " n=" << n
      << " epochs=" << epochs;
}

TEST(EncoderTest, SentenceIsFO3) {
  EncodedMachine encoded = EncodeMachine(ParityMachine());
  EXPECT_TRUE(logic::IsSentence(encoded.theta));
  EXPECT_TRUE(logic::InFragmentFOk(encoded.theta, 3));
}

TEST(EncoderTest, AlwaysAcceptIdentityN2) {
  ExpectEncodingIdentity(AlwaysAcceptMachine(), 2);
}

TEST(EncoderTest, BranchingIdentityN2) {
  ExpectEncodingIdentity(BranchingMachine(), 2);
}

TEST(EncoderTest, ParityIdentityN2) {
  ExpectEncodingIdentity(ParityMachine(), 2);
}

TEST(EncoderTest, ParityIdentityN2Rejects) {
  // n = 2 means 1 transition -> state q1 (odd) -> reject: FOMC must be 0.
  EncodedMachine encoded = EncodeMachine(ParityMachine());
  EXPECT_EQ(grounding::GroundedFOMC(encoded.theta, encoded.vocabulary, 2),
            BigInt(0));
}

TEST(EncoderTest, AlwaysAcceptIdentityN3) {
  ExpectEncodingIdentity(AlwaysAcceptMachine(), 3);
}

TEST(EncoderTest, BranchingIdentityN3) {
  ExpectEncodingIdentity(BranchingMachine(), 3);
}

TEST(EncoderTest, TwoTapeIdentityN2) {
  ExpectEncodingIdentity(TwoTapeBranchingMachine(), 2);
}

TEST(EncoderTest, MultiEpochIdentityN2) {
  ExpectEncodingIdentity(ParityMachine(), 2, /*epochs=*/2);
}

}  // namespace
}  // namespace swfomc::tm
