// The registration word's transition function (src/concurrent/submission.h),
// one step at a time and exhaustively: every state, the restart counts
// {0, 1, 254, 255}, word generations at zero, in the middle and at the wrap,
// a caller holding that generation or a stale one, and every event, the fire
// claim run both as a lap and as a final fire. Each outcome is checked
// against the file comment's state diagram, restated below as a list of edges
// over the layout it draws, and against the properties the diagram implies.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "src/concurrent/submission.h"

namespace twheel::concurrent::registration {
namespace {

constexpr State kStates[] = {State::kFree, State::kPending, State::kRegistered,
                             State::kCancelledPending,
                             State::kCancelledRegistered};
constexpr Event kEvents[] = {
    Event::kPublish,      Event::kRollback,   Event::kCancel,
    Event::kRestart,      Event::kDrainStart, Event::kDrainRestart,
    Event::kDrainCancel,  Event::kLapClaim,   Event::kFinalClaim,
    Event::kReclaim};
constexpr std::uint64_t kRestartCounts[] = {0, 1, 254, 255};
constexpr std::uint32_t kGenerations[] = {0, 41, 0xffffffffu};

// The layout the file comment draws: {restarts:8 | state:8 | generation:32}.
std::uint64_t Word(std::uint32_t generation, State state, std::uint64_t restarts) {
  return restarts << 40 | static_cast<std::uint64_t>(state) << 32 | generation;
}
std::uint32_t GenerationIn(std::uint64_t word) {
  return static_cast<std::uint32_t>(word);
}
State StateIn(std::uint64_t word) { return static_cast<State>(word >> 32 & 0xff); }
std::uint64_t RestartsIn(std::uint64_t word) { return word >> 40 & 0xff; }

// How an edge moves the restart count, and which counts it admits.
enum class Count : std::uint8_t {
  kZero,  // written as 0
  kKeep,  // written unchanged
  kUp,    // written + 1; at 255 the event is kSaturated instead
  kDown,  // written - 1; at 0 the event is refused
  kIdle,  // no write (a kReclaim verdict)
};

struct Edge {
  State from;
  Event event;
  Verdict verdict;
  Count count;
  State to = State::kFree;  // where a write lands
  bool bump = false;        // the write moves to the next generation
  bool needs_zero = false;  // refused while the count is nonzero
};

// The state diagram, edge by edge. A (state, event) pair with no edge is
// refused, and so is every event but a publish for a stale generation.
const std::vector<Edge>& Diagram() {
  using S = State;
  using E = Event;
  using V = Verdict;
  using C = Count;
  static const std::vector<Edge> edges = {
      {S::kFree, E::kPublish, V::kWrite, C::kZero, S::kPending},
      {S::kPending, E::kRollback, V::kWrite, C::kZero, S::kFree, true},
      {S::kCancelledPending, E::kRollback, V::kWrite, C::kZero, S::kFree, true},
      {S::kPending, E::kCancel, V::kWrite, C::kZero, S::kCancelledPending},
      {S::kRegistered, E::kCancel, V::kWrite, C::kZero, S::kCancelledRegistered},
      {S::kPending, E::kRestart, V::kCoalesce, C::kUp, S::kPending},
      {S::kRegistered, E::kRestart, V::kWrite, C::kUp, S::kRegistered},
      {S::kPending, E::kDrainStart, V::kWrite, C::kKeep, S::kRegistered},
      {S::kCancelledPending, E::kDrainStart, V::kReclaim, C::kIdle},
      {S::kRegistered, E::kDrainRestart, V::kWrite, C::kDown, S::kRegistered},
      {S::kCancelledRegistered, E::kDrainRestart, V::kReclaim, C::kIdle},
      {S::kCancelledRegistered, E::kDrainCancel, V::kReclaim, C::kIdle},
      {S::kRegistered, E::kLapClaim, V::kWrite, C::kKeep, S::kRegistered},
      {S::kCancelledRegistered, E::kLapClaim, V::kReclaim, C::kIdle},
      {S::kRegistered, E::kFinalClaim, V::kWrite, C::kZero, S::kFree, true, true},
      {S::kCancelledRegistered, E::kFinalClaim, V::kReclaim, C::kIdle},
      {S::kCancelledPending, E::kReclaim, V::kWrite, C::kZero, S::kFree, true},
      {S::kCancelledRegistered, E::kReclaim, V::kWrite, C::kZero, S::kFree, true},
  };
  return edges;
}

struct Case {
  std::uint64_t word;
  std::uint32_t generation;  // the caller's
  Event event;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << "word generation " << GenerationIn(c.word) << ", state "
            << static_cast<int>(StateIn(c.word)) << ", restarts "
            << RestartsIn(c.word) << "; caller generation " << c.generation
            << "; event " << static_cast<int>(c.event);
}

// The outcome the diagram gives for `c`: a verdict and, for a write, the word.
Step Expected(const Case& c) {
  const State state = StateIn(c.word);
  const std::uint64_t restarts = RestartsIn(c.word);
  const bool publish = c.event == Event::kPublish;
  if (!publish && GenerationIn(c.word) != c.generation) {
    return Step{Verdict::kRefuse};
  }
  const std::uint32_t generation = GenerationIn(c.word);
  for (const Edge& edge : Diagram()) {
    if (edge.from != state || edge.event != c.event) {
      continue;
    }
    if ((edge.count == Count::kDown && restarts == 0) ||
        (edge.needs_zero && restarts != 0)) {
      return Step{Verdict::kRefuse};
    }
    if (edge.count == Count::kUp && restarts == 255) {
      return Step{Verdict::kSaturated};
    }
    if (edge.count == Count::kIdle) {
      return Step{edge.verdict};
    }
    std::uint64_t written = 0;
    if (edge.count == Count::kKeep) {
      written = restarts;
    } else if (edge.count == Count::kUp) {
      written = restarts + 1;
    } else if (edge.count == Count::kDown) {
      written = restarts - 1;
    }
    return Step{edge.verdict,
                Word(edge.bump ? generation + 1 : generation, edge.to, written),
                publish ? generation : 0};
  }
  return Step{Verdict::kRefuse};
}

// Every case: each word, a caller holding its generation or the one before.
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const std::uint32_t generation : kGenerations) {
    for (const State state : kStates) {
      for (const std::uint64_t restarts : kRestartCounts) {
        const std::uint64_t word = Word(generation, state, restarts);
        for (const Event event : kEvents) {
          cases.push_back({word, generation, event});
          cases.push_back({word, generation - 1, event});
        }
      }
    }
  }
  return cases;
}

bool Writes(const Step& step) {
  return step.verdict == Verdict::kWrite || step.verdict == Verdict::kCoalesce;
}

TEST(RegistrationWordTest, EveryStepMatchesTheStateDiagram) {
  const std::vector<Case> cases = AllCases();
  ASSERT_EQ(cases.size(), 3u * 5u * 4u * 10u * 2u);
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c);
    const Step step = Transition(c.word, c.generation, c.event);
    const Step expected = Expected(c);
    EXPECT_EQ(static_cast<int>(step.verdict), static_cast<int>(expected.verdict));
    if (Writes(expected)) {
      EXPECT_EQ(step.next, expected.next);
    }
    if (c.event == Event::kPublish) {
      EXPECT_EQ(step.generation, expected.generation);
    }
  }
}

TEST(RegistrationWordTest, StaleGenerationsAreRefusedExceptByAPublish) {
  for (const Case& c : AllCases()) {
    if (GenerationIn(c.word) != c.generation && c.event != Event::kPublish) {
      SCOPED_TRACE(::testing::Message() << c);
      EXPECT_EQ(Transition(c.word, c.generation, c.event).verdict, Verdict::kRefuse);
    }
  }
}

TEST(RegistrationWordTest, OnlyAPublishLeavesFree) {
  for (const Case& c : AllCases()) {
    const Step step = Transition(c.word, c.generation, c.event);
    if (StateIn(c.word) == State::kFree && Writes(step)) {
      SCOPED_TRACE(::testing::Message() << c);
      EXPECT_EQ(c.event, Event::kPublish);
      EXPECT_EQ(StateIn(step.next), State::kPending);
      EXPECT_EQ(GenerationIn(step.next), GenerationIn(c.word));
      EXPECT_EQ(step.generation, GenerationIn(c.word));
    }
  }
}

TEST(RegistrationWordTest, OnlyFinalClaimRollbackAndReclaimBumpTheGeneration) {
  for (const Case& c : AllCases()) {
    const Step step = Transition(c.word, c.generation, c.event);
    if (!Writes(step)) {
      continue;
    }
    SCOPED_TRACE(::testing::Message() << c);
    EXPECT_EQ(step.next >> 48, 0u);  // nothing above the restart count
    const bool bumps = c.event == Event::kFinalClaim ||
                       c.event == Event::kRollback || c.event == Event::kReclaim;
    if (bumps) {
      EXPECT_EQ(GenerationIn(step.next), static_cast<std::uint32_t>(c.generation + 1));
      EXPECT_EQ(StateIn(step.next), State::kFree);
      EXPECT_EQ(RestartsIn(step.next), 0u);
    } else {
      EXPECT_EQ(GenerationIn(step.next), GenerationIn(c.word));
      EXPECT_NE(StateIn(step.next), State::kFree);
    }
  }
}

TEST(RegistrationWordTest, CancelZeroesTheRestartCount) {
  for (const Case& c : AllCases()) {
    const Step step = Transition(c.word, c.generation, Event::kCancel);
    if (Writes(step)) {
      SCOPED_TRACE(::testing::Message() << c);
      EXPECT_EQ(RestartsIn(step.next), 0u);
    }
  }
}

TEST(RegistrationWordTest, RestartCommitKeepsTheStateAndSaturatesAt255) {
  for (const Case& c : AllCases()) {
    if (c.event != Event::kRestart) {
      continue;
    }
    SCOPED_TRACE(::testing::Message() << c);
    const Step step = Transition(c.word, c.generation, c.event);
    if (Writes(step)) {
      EXPECT_EQ(StateIn(step.next), StateIn(c.word));
      EXPECT_EQ(RestartsIn(step.next), RestartsIn(c.word) + 1);
      EXPECT_EQ(step.verdict == Verdict::kCoalesce,
                StateIn(c.word) == State::kPending);
    }
    if (RestartsIn(c.word) == 255) {
      EXPECT_FALSE(Writes(step));
    }
  }
}

TEST(RegistrationWordTest, DrainedRestartNeverUnderflows) {
  for (const Case& c : AllCases()) {
    if (c.event != Event::kDrainRestart) {
      continue;
    }
    SCOPED_TRACE(::testing::Message() << c);
    const Step step = Transition(c.word, c.generation, c.event);
    if (RestartsIn(c.word) == 0) {
      EXPECT_FALSE(Writes(step));
    } else if (Writes(step)) {
      EXPECT_EQ(RestartsIn(step.next), RestartsIn(c.word) - 1);
    }
  }
}

// A lap claim CASes the word onto itself; a final claim gives way to a
// pending restart, which moves the fire.
TEST(RegistrationWordTest, LapClaimRewritesTheWordAndFinalClaimWaitsForRestarts) {
  for (const std::uint64_t restarts : kRestartCounts) {
    const std::uint64_t word = Word(41, State::kRegistered, restarts);
    const Step lap = Transition(word, 41, Event::kLapClaim);
    EXPECT_EQ(lap.verdict, Verdict::kWrite);
    EXPECT_EQ(lap.next, word);
    EXPECT_EQ(Transition(word, 41, Event::kFinalClaim).verdict,
              restarts == 0 ? Verdict::kWrite : Verdict::kRefuse);
  }
}

}  // namespace
}  // namespace twheel::concurrent::registration
