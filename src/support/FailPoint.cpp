//===- support/FailPoint.cpp - Deterministic fault injection --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include <cassert>
#include <cstdlib>

namespace rap {
namespace failpoints {

namespace detail {
std::atomic<unsigned> ArmedCount{0};
} // namespace detail

namespace {

enum class Mode : unsigned char { Off, FailOnce, FailEvery, CountOnly };

struct Slot {
  Mode M = Mode::Off;
  uint64_t Skip = 0;     // FailOnce: hits to let pass before firing.
  uint64_t Interval = 0; // FailEvery: fire on every Interval-th hit.
  uint64_t Hits = 0;
  uint64_t Fires = 0;
};

constexpr unsigned NumSlots = static_cast<unsigned>(Fp::NumFailPoints);

Slot Slots[NumSlots];

Slot &slot(Fp Point) {
  assert(static_cast<unsigned>(Point) < NumSlots && "not a failpoint");
  return Slots[static_cast<unsigned>(Point)];
}

const char *const Names[NumSlots] = {
    "arena.alloc",   "stage0.drain",  "trace.write",
    "snapshot.write", "snapshot.read", "capi.init",
};

void setMode(Fp Point, Mode M, uint64_t Skip, uint64_t Interval) {
  Slot &S = slot(Point);
  if (S.M == Mode::Off && M != Mode::Off)
    detail::ArmedCount.fetch_add(1, std::memory_order_relaxed);
  else if (S.M != Mode::Off && M == Mode::Off)
    detail::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
  S.M = M;
  S.Skip = Skip;
  S.Interval = Interval;
}

} // namespace

const char *name(Fp Point) {
  assert(static_cast<unsigned>(Point) < NumSlots && "not a failpoint");
  return Names[static_cast<unsigned>(Point)];
}

bool parseName(const std::string &Name, Fp &Point) {
  for (unsigned I = 0; I != NumSlots; ++I) {
    if (Name == Names[I]) {
      Point = static_cast<Fp>(I);
      return true;
    }
  }
  return false;
}

void arm(Fp Point, uint64_t SkipHits) {
  setMode(Point, Mode::FailOnce, SkipHits, 0);
}

void armEvery(Fp Point, uint64_t Interval) {
  if (Interval == 0) {
    disarm(Point);
    return;
  }
  setMode(Point, Mode::FailEvery, 0, Interval);
}

void armCounting(Fp Point) { setMode(Point, Mode::CountOnly, 0, 0); }

void disarm(Fp Point) { setMode(Point, Mode::Off, 0, 0); }

void disarmAll() {
  for (unsigned I = 0; I != NumSlots; ++I) {
    setMode(static_cast<Fp>(I), Mode::Off, 0, 0);
    Slots[I].Hits = 0;
    Slots[I].Fires = 0;
  }
}

uint64_t hitCount(Fp Point) { return slot(Point).Hits; }

uint64_t fireCount(Fp Point) { return slot(Point).Fires; }

bool shouldFail(Fp Point) {
  Slot &S = slot(Point);
  if (S.M == Mode::Off)
    return false;
  ++S.Hits;
  switch (S.M) {
  case Mode::Off:
  case Mode::CountOnly:
    return false;
  case Mode::FailOnce:
    if (S.Skip != 0) {
      --S.Skip;
      return false;
    }
    // One shot: firing disarms the site so the retry path can make
    // progress, which is exactly what a transient fault looks like.
    setMode(Point, Mode::Off, 0, 0);
    ++S.Fires;
    return true;
  case Mode::FailEvery:
    if (S.Hits % S.Interval != 0)
      return false;
    ++S.Fires;
    return true;
  }
  return false;
}

bool configure(const std::string &Spec, std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;
    size_t Eq = Entry.find('=');
    if (Eq == std::string::npos)
      return Fail("failpoint entry '" + Entry + "' is missing '=mode'");
    Fp Point;
    if (!parseName(Entry.substr(0, Eq), Point))
      return Fail("unknown failpoint '" + Entry.substr(0, Eq) + "'");
    std::string ModeSpec = Entry.substr(Eq + 1);
    std::string Argument;
    size_t Colon = ModeSpec.find(':');
    if (Colon != std::string::npos) {
      Argument = ModeSpec.substr(Colon + 1);
      ModeSpec = ModeSpec.substr(0, Colon);
    }
    uint64_t Value = 0;
    if (!Argument.empty()) {
      char *Rest = nullptr;
      Value = std::strtoull(Argument.c_str(), &Rest, 10);
      if (Rest == nullptr || *Rest != '\0')
        return Fail("bad failpoint argument '" + Argument + "'");
    }
    if (ModeSpec == "once") {
      arm(Point, Value);
    } else if (ModeSpec == "every") {
      if (Value == 0)
        return Fail("'every' needs a nonzero interval");
      armEvery(Point, Value);
    } else if (ModeSpec == "count") {
      if (!Argument.empty())
        return Fail("'count' takes no argument");
      armCounting(Point);
    } else {
      return Fail("unknown failpoint mode '" + ModeSpec + "'");
    }
  }
  return true;
}

} // namespace failpoints
} // namespace rap
