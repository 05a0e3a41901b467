// Tests for the discrete-event simulator: event ordering, timer semantics,
// delay models, broadcast accounting, and end-to-end determinism.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"
#include "sim/simulation.hpp"

namespace hydra::sim {
namespace {

/// A party that records everything that happens to it.
class Recorder : public IParty {
 public:
  struct Entry {
    Time at;
    PartyId from;   // kInvalidParty for timers / start
    std::uint64_t tag;
  };

  void start(Env& env) override {
    log.push_back({env.now(), kInvalidParty, 0xFFFF});
    if (on_start) on_start(env);
  }

  void on_message(Env& env, PartyId from, const Message& msg) override {
    log.push_back({env.now(), from, msg.key.tag});
    if (on_msg) on_msg(env, from, msg);
  }

  void on_timer(Env& env, std::uint64_t timer_id) override {
    log.push_back({env.now(), kInvalidParty, timer_id});
    if (on_tmr) on_tmr(env, timer_id);
  }

  std::vector<Entry> log;
  std::function<void(Env&)> on_start;
  std::function<void(Env&, PartyId, const Message&)> on_msg;
  std::function<void(Env&, std::uint64_t)> on_tmr;
};

Message make_msg(std::uint32_t tag, Bytes payload = {}) {
  return Message{InstanceKey{tag, 0, 0}, 0, std::move(payload)};
}

TEST(Simulation, StartsAllPartiesAtTimeZero) {
  Simulation sim({.n = 3, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  std::vector<Recorder*> recs;
  for (int i = 0; i < 3; ++i) {
    auto r = std::make_unique<Recorder>();
    recs.push_back(r.get());
    sim.add_party(std::move(r));
  }
  sim.run();
  for (auto* r : recs) {
    ASSERT_EQ(r->log.size(), 1u);
    EXPECT_EQ(r->log[0].at, 0);
  }
}

TEST(Simulation, FixedDelayDeliversAtExactlyDelta) {
  Simulation sim({.n = 2, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  auto a = std::make_unique<Recorder>();
  a->on_start = [](Env& env) { env.send(1, make_msg(7)); };
  auto b = std::make_unique<Recorder>();
  Recorder* b_raw = b.get();
  sim.add_party(std::move(a));
  sim.add_party(std::move(b));
  sim.run();
  ASSERT_EQ(b_raw->log.size(), 2u);  // start + message
  EXPECT_EQ(b_raw->log[1].at, 100);
  EXPECT_EQ(b_raw->log[1].from, 0u);
  EXPECT_EQ(b_raw->log[1].tag, 7u);
}

TEST(Simulation, SelfMessagesDeliverImmediatelyButNotReentrantly) {
  Simulation sim({.n = 1, .delta = 100, .seed = 1}, std::make_unique<FixedDelay>(100));
  auto a = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  bool inside_start = true;
  a->on_start = [&](Env& env) {
    env.send(0, make_msg(1));
    inside_start = false;  // set after send returns: delivery must come later
  };
  bool was_reentrant = true;
  a->on_msg = [&](Env&, PartyId, const Message&) { was_reentrant = inside_start; };
  sim.add_party(std::move(a));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 2u);
  EXPECT_EQ(a_raw->log[1].at, 0);    // same virtual time
  EXPECT_FALSE(was_reentrant);       // but after the handler returned
}

TEST(Simulation, BroadcastReachesEveryoneIncludingSelf) {
  Simulation sim({.n = 4, .delta = 50, .seed = 1}, std::make_unique<FixedDelay>(50));
  std::vector<Recorder*> recs;
  for (int i = 0; i < 4; ++i) {
    auto r = std::make_unique<Recorder>();
    if (i == 2) {
      r->on_start = [](Env& env) { env.broadcast(make_msg(9)); };
    }
    recs.push_back(r.get());
    sim.add_party(std::move(r));
  }
  const auto stats = sim.run();
  for (auto* r : recs) {
    ASSERT_EQ(r->log.size(), 2u);
    EXPECT_EQ(r->log[1].from, 2u);
  }
  // Wire traffic only: the self-delivery never touches the network, so a
  // broadcast to n = 4 parties counts n - 1 = 3 messages.
  EXPECT_EQ(stats.messages, 3u);
}

TEST(Simulation, TimersFireAtRequestedTime) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  a->on_start = [](Env& env) {
    env.set_timer(500, 1);
    env.set_timer(200, 2);
    env.set_timer(200, 3);
  };
  sim.add_party(std::move(a));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 4u);
  // Timers at equal times preserve submission order.
  EXPECT_EQ(a_raw->log[1].at, 200);
  EXPECT_EQ(a_raw->log[1].tag, 2u);
  EXPECT_EQ(a_raw->log[2].at, 200);
  EXPECT_EQ(a_raw->log[2].tag, 3u);
  EXPECT_EQ(a_raw->log[3].at, 500);
  EXPECT_EQ(a_raw->log[3].tag, 1u);
}

TEST(Simulation, PastDeadlineTimerFiresImmediately) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  Recorder* a_raw = a.get();
  a->on_start = [](Env& env) { env.set_timer(100, 1); };
  a->on_tmr = [](Env& env, std::uint64_t id) {
    if (id == 1) env.set_timer(5, 2);  // deadline already past (now = 100)
  };
  sim.add_party(std::move(a));
  sim.run();
  ASSERT_EQ(a_raw->log.size(), 3u);
  EXPECT_EQ(a_raw->log[2].at, 100);  // clamped to now
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim({.n = 5, .delta = 100, .seed = 42},
                   std::make_unique<UniformDelay>(10, 100));
    std::vector<Recorder*> recs;
    for (int i = 0; i < 5; ++i) {
      auto r = std::make_unique<Recorder>();
      r->on_start = [](Env& env) { env.broadcast(make_msg(1)); };
      r->on_msg = [](Env& env, PartyId from, const Message& msg) {
        // One ping-back per received broadcast, bounded by tag value.
        if (msg.key.tag < 3) {
          auto m = msg;
          m.key.tag += 1;
          env.send(from, m);
        }
      };
      recs.push_back(r.get());
      sim.add_party(std::move(r));
    }
    const auto stats = sim.run();
    std::vector<std::tuple<Time, PartyId, std::uint64_t>> flat;
    for (auto* r : recs) {
      for (const auto& e : r->log) flat.emplace_back(e.at, e.from, e.tag);
    }
    return std::pair{stats, flat};
  };
  const auto [s1, l1] = run_once();
  const auto [s2, l2] = run_once();
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.bytes, s2.bytes);
  EXPECT_EQ(s1.end_time, s2.end_time);
  EXPECT_EQ(l1, l2);
}

// The queue contract: events run in (tick, phase, push order), messages
// before timers on a tick. Every push below takes a stamp from one counter,
// so stamps are push order, and every dispatch logs its (tick, phase, stamp)
// plus how many events had run when it was pushed. Each dispatched event
// must then be the least (tick, phase, stamp) of the events pending at that
// moment. That is "the log is sorted by (tick, phase, stamp)", except that a
// handler may push an event that sorts before ones already queued: a
// zero-delay self-send from a timer handler runs before the timers left on
// its tick. Events whose tick the test knows — timers, self-sends and
// schedule() callbacks — must also run exactly then. The schedule mixes
// UniformDelay, duplicated messages (a copy keeps its stamp), several timers
// per tick and the schedule() hook.
TEST(Simulation, EventOrderIsTickPhaseSeq) {
  constexpr std::size_t kN = 4;
  constexpr Duration kDelta = 20;
  constexpr std::uint64_t kMaxStamps = 3000;

  struct Dispatch {
    Time tick;
    int phase;  // 0 = message or start, 1 = timer or schedule() callback
    std::uint64_t stamp;
    std::size_t pending_from;  // events run before it was pushed
  };
  std::vector<Dispatch> log;
  std::map<std::uint64_t, std::size_t> pending_from;
  std::map<std::uint64_t, Time> due;  // stamp -> tick, where the test knows it
  std::uint64_t next_stamp = 0;
  Rng rng(11);
  Simulation sim({.n = kN, .delta = kDelta, .seed = 5},
                 std::make_unique<UniformDelay>(1, kDelta));

  const auto stamp_push = [&] {
    pending_from[next_stamp] = log.size();
    return next_stamp++;
  };
  const auto record = [&](Time tick, int phase, std::uint64_t stamp) {
    log.push_back({tick, phase, stamp, pending_from.at(stamp)});
    if (const auto it = due.find(stamp); it != due.end()) {
      EXPECT_EQ(tick, it->second) << "stamp " << stamp;
    }
  };
  const auto send = [&](Env& env, PartyId to) {
    const std::uint64_t stamp = stamp_push();
    if (to == env.self()) due[stamp] = env.now();  // no delay, no faults
    Writer w;
    w.u64(stamp);
    env.send(to, make_msg(1, w.take()));
  };
  const auto set_timer = [&](Env& env, Time at) {
    const std::uint64_t stamp = stamp_push();
    due[stamp] = at;
    env.set_timer(at, stamp);
  };
  const auto schedule = [&](Time at) {
    const std::uint64_t stamp = stamp_push();
    due[stamp] = at;
    sim.schedule(at, [&record, at, stamp] { record(at, 1, stamp); });
  };

  // Traffic grows from every handler until the stamp budget is spent. A
  // handler often ends on a zero-delay self-send, so a tick can drain and be
  // pushed to again from its own last event.
  const auto react = [&](Env& env) {
    if (next_stamp >= kMaxStamps) return;
    for (int i = 0; i < 2; ++i) send(env, static_cast<PartyId>(rng.next_below(kN)));
    if (rng.next_below(2) == 0) {
      set_timer(env, env.now() + static_cast<Time>(rng.next_below(3)));
    }
    if (rng.next_below(3) == 0) send(env, env.self());
  };
  for (std::size_t i = 0; i < kN; ++i) {
    auto r = std::make_unique<Recorder>();
    r->on_start = [&](Env& env) {
      record(env.now(), 0, env.self());  // starts are pushed first, in id order
      react(env);
    };
    r->on_msg = [&](Env& env, PartyId, const Message& msg) {
      Reader reader(msg.payload.bytes());
      record(env.now(), 0, reader.u64());
      react(env);
    };
    r->on_tmr = [&](Env& env, std::uint64_t stamp) {
      record(env.now(), 1, stamp);
      if (next_stamp >= kMaxStamps) return;
      send(env, env.self());          // zero delay: jumps this tick's timers
      set_timer(env, env.now());      // joins this tick's timers, at the back
      set_timer(env, env.now() + 1);  // several timers land on one tick
      if (rng.next_below(8) == 0) schedule(env.now() + 2);
      react(env);
    };
    sim.add_party(std::move(r));
  }
  for (PartyId id = 0; id < kN; ++id) stamp_push();  // the start events
  for (const Time at : {Time{0}, Time{5}, Time{5}}) schedule(at);
  const auto plan = faults::parse_fault_plan("dup(p=0.2,skew=10)");
  ASSERT_TRUE(plan.has_value());
  faults::FaultInjector injector(*plan,
                                 {.seed = 3, .synchronous = false, .delta = kDelta});
  sim.set_fault_injector(&injector);
  sim.run();

  ASSERT_GE(next_stamp, kMaxStamps);
  ASSERT_GT(log.size(), next_stamp);  // duplicates ran as extra events
  const auto key = [](const Dispatch& d) { return std::tuple(d.tick, d.phase, d.stamp); };
  std::size_t jumps = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i > 0 && key(log[i]) < key(log[i - 1])) ++jumps;
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (log[j].pending_from > i) continue;  // pushed after log[i] ran
      ASSERT_LE(key(log[i]), key(log[j])) << "dispatch " << i << " ran too early";
    }
  }
  EXPECT_GT(jumps, 0u);  // the self-send-from-timer case was exercised
}

TEST(Simulation, UniformDelayStaysInBounds) {
  Rng rng(7);
  UniformDelay model(10, 100);
  Message msg = make_msg(0);
  for (int i = 0; i < 1000; ++i) {
    const auto d = model.delay(0, 1, 0, msg, rng);
    EXPECT_GE(d, 10);
    EXPECT_LE(d, 100);
  }
}

TEST(Simulation, ExponentialDelayRespectsCapAndMin) {
  Rng rng(7);
  ExponentialDelay model(500.0, 2000);
  Message msg = make_msg(0);
  bool saw_above_delta = false;
  for (int i = 0; i < 2000; ++i) {
    const auto d = model.delay(0, 1, 0, msg, rng);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 2000);
    if (d > 1000) saw_above_delta = true;
  }
  EXPECT_TRUE(saw_above_delta);  // async model violates any Delta = 1000 bound
}

TEST(Simulation, StatsCountBytes) {
  Simulation sim({.n = 2, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  a->on_start = [](Env& env) { env.send(1, make_msg(1, Bytes(100, 0xAA))); };
  sim.add_party(std::move(a));
  sim.add_party(std::make_unique<Recorder>());
  const auto stats = sim.run();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 100u + 17u);
}

TEST(Simulation, MaxTimeStopsRunawayRun) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1, .max_time = 1000},
                 std::make_unique<FixedDelay>(10));
  auto a = std::make_unique<Recorder>();
  a->on_start = [](Env& env) { env.set_timer(env.now() + 100, 1); };
  a->on_tmr = [](Env& env, std::uint64_t) { env.set_timer(env.now() + 100, 1); };
  sim.add_party(std::move(a));
  const auto stats = sim.run();
  EXPECT_TRUE(stats.hit_limit);
  EXPECT_LE(stats.end_time, 1000);
}

TEST(Simulation, ScheduleHookRunsAtRequestedTime) {
  Simulation sim({.n = 1, .delta = 10, .seed = 1}, std::make_unique<FixedDelay>(10));
  sim.add_party(std::make_unique<Recorder>());
  Time fired_at = -1;
  sim.schedule(333, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 333);
}

}  // namespace
}  // namespace hydra::sim
