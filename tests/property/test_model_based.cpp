// Model-based property tests: drive a component with random operation
// sequences and check it against a trivially-correct reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "pool/pool.hpp"
#include "sim/event_queue.hpp"

namespace hotc {
namespace {

// ---------------------------------------------------------------------------
// RuntimePool vs a reference map<key, deque<id>>.
class PoolModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  pool::RuntimePool pool;
  std::map<std::string, std::deque<engine::ContainerId>> model;
  std::map<std::string, spec::RuntimeKey> keys;
  std::size_t model_paused = 0;
  std::map<engine::ContainerId, bool> paused_flags;

  auto key_for = [&](int k) {
    const std::string name = "img" + std::to_string(k);
    if (!keys.count(name)) {
      spec::RunSpec s;
      s.image = spec::ImageRef{name, "latest"};
      keys.emplace(name, spec::RuntimeKey::from_spec(s));
    }
    return name;
  };

  engine::ContainerId next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const int k = static_cast<int>(rng.uniform_int(0, 5));
    const std::string name = key_for(k);
    const auto& key = keys.at(name);
    const double op = rng.uniform();

    if (op < 0.40) {  // add_available
      pool::PoolEntry e;
      e.id = next_id++;
      e.key = key;
      e.created_at = seconds(step);
      pool.add_available(e, seconds(step));
      model[name].push_back(e.id);
      paused_flags[e.id] = false;
    } else if (op < 0.75) {  // acquire
      const auto got = pool.acquire(key, seconds(step));
      auto& dq = model[name];
      if (dq.empty()) {
        EXPECT_FALSE(got.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(got->id, dq.front()) << "step " << step;  // FIFO
        if (paused_flags[dq.front()]) --model_paused;
        EXPECT_EQ(got->paused, paused_flags[dq.front()]);
        paused_flags.erase(dq.front());
        dq.pop_front();
      }
    } else if (op < 0.90) {  // remove a random known id (maybe absent)
      auto& dq = model[name];
      engine::ContainerId victim =
          dq.empty() ? 99999 : dq[rng.index(dq.size())];
      const bool removed = pool.remove(key, victim);
      const auto it = std::find(dq.begin(), dq.end(), victim);
      EXPECT_EQ(removed, it != dq.end()) << "step " << step;
      if (it != dq.end()) {
        if (paused_flags[victim]) --model_paused;
        paused_flags.erase(victim);
        dq.erase(it);
      }
    } else {  // mark_paused on a random known id
      auto& dq = model[name];
      if (!dq.empty()) {
        const engine::ContainerId id = dq[rng.index(dq.size())];
        const bool ok = pool.mark_paused(key, id);
        EXPECT_EQ(ok, !paused_flags[id]) << "step " << step;
        if (ok) {
          paused_flags[id] = true;
          ++model_paused;
        }
      }
    }

    // Global invariants after every step.
    std::size_t model_total = 0;
    for (const auto& [n, dq] : model) {
      model_total += dq.size();
      EXPECT_EQ(pool.num_available(keys.at(n)), dq.size());
    }
    ASSERT_EQ(pool.total_available(), model_total);
    ASSERT_EQ(pool.paused_count(), model_paused);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolModelProperty,
                         ::testing::Values(1, 17, 99, 4242));

// ---------------------------------------------------------------------------
// EventQueue vs a reference list of (time, seq): random pushes, reserved
// seq blocks fed out of order, cancellations (including stale ids) and
// pops interleaved, so freed slots are reused throughout.
class QueueModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueModelProperty, DrainsInExactReferenceOrder) {
  Rng rng(GetParam());
  sim::EventQueue queue;
  struct Ref {
    TimePoint t;
    sim::EventSeq seq;
    sim::EventId id;
    bool live = true;
  };
  std::vector<Ref> refs;
  std::vector<sim::EventSeq> unused_reserved;
  sim::EventSeq next_seq = 1;  // the model's own seq counter
  std::size_t fired = 0;

  const auto schedule = [&](sim::EventSeq seq, bool reserved) {
    const TimePoint t = seconds(rng.uniform_int(0, 50));
    const std::size_t index = refs.size();
    auto fn = [&fired, index]() { fired = index; };
    const auto id = reserved ? queue.push_reserved(t, seq, fn)
                             : queue.push(t, fn);
    refs.push_back(Ref{t, seq, id});
  };
  // The live event that must fire next: least (t, seq).
  const auto expected_next = [&]() {
    std::size_t best = refs.size();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (!refs[i].live) continue;
      if (best == refs.size() || refs[i].t < refs[best].t ||
          (refs[i].t == refs[best].t && refs[i].seq < refs[best].seq)) {
        best = i;
      }
    }
    return best;
  };
  const auto pop_and_check = [&]() {
    const std::size_t want = expected_next();
    ASSERT_LT(want, refs.size());
    EXPECT_EQ(queue.next_time(), refs[want].t);
    auto [t, fn] = queue.pop();
    EXPECT_EQ(t, refs[want].t);
    fn();
    EXPECT_EQ(fired, want);
    refs[want].live = false;
  };

  for (int i = 0; i < 600; ++i) {
    const double u = rng.uniform();
    if (u < 0.45 || refs.empty()) {
      schedule(next_seq++, /*reserved=*/false);
    } else if (u < 0.5) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
      EXPECT_EQ(queue.reserve(n), next_seq);
      for (std::size_t k = 0; k < n; ++k) {
        unused_reserved.push_back(next_seq++);
      }
    } else if (u < 0.65 && !unused_reserved.empty()) {
      const std::size_t k = rng.index(unused_reserved.size());
      const sim::EventSeq seq = unused_reserved[k];
      unused_reserved.erase(unused_reserved.begin() +
                            static_cast<std::ptrdiff_t>(k));
      schedule(seq, /*reserved=*/true);
    } else if (u < 0.8) {
      // Any id ever issued: live ones cancel once, fired or cancelled
      // ones (whose slots may hold new events by now) never do.
      auto& r = refs[rng.index(refs.size())];
      EXPECT_EQ(queue.cancel(r.id), r.live);
      r.live = false;
    } else if (!queue.empty()) {
      pop_and_check();
    }
    ASSERT_EQ(queue.size(),
              static_cast<std::size_t>(std::count_if(
                  refs.begin(), refs.end(),
                  [](const Ref& r) { return r.live; })));
  }

  while (!queue.empty()) pop_and_check();
  EXPECT_EQ(expected_next(), refs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueModelProperty,
                         ::testing::Values(3, 33, 333));

// ---------------------------------------------------------------------------
// JSON: random documents round-trip through dump/parse at any indent.
class JsonRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Json random_json(Rng& rng, int depth) {
    const double u = rng.uniform();
    if (depth >= 4 || u < 0.35) {
      switch (rng.uniform_int(0, 3)) {
        case 0: return Json(nullptr);
        case 1: return Json(rng.chance(0.5));
        case 2: {
          // Mix integers and awkward doubles.
          if (rng.chance(0.5)) {
            return Json(static_cast<std::int64_t>(
                rng.uniform_int(-1000000, 1000000)));
          }
          return Json(rng.uniform(-1e6, 1e6));
        }
        default: return Json(random_string(rng));
      }
    }
    if (u < 0.65) {
      JsonArray arr;
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 5));
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(random_json(rng, depth + 1));
      }
      return Json(std::move(arr));
    }
    JsonObject obj;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 5));
    for (std::size_t i = 0; i < n; ++i) {
      obj["k" + std::to_string(rng.uniform_int(0, 20))] =
          random_json(rng, depth + 1);
    }
    return Json(std::move(obj));
  }

  std::string random_string(Rng& rng) {
    static const char* kSamples[] = {
        "",      "plain",       "with space", "quote\"inside",
        "back\\", "new\nline",  "tab\ttab",   "unicode: \xC3\xA9",
        "ctrl\x01end", "slash/es",
    };
    return kSamples[rng.index(10)];
  }
};

TEST_P(JsonRoundTripProperty, DumpParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const Json doc = random_json(rng, 0);
    for (const int indent : {0, 2}) {
      const auto parsed = Json::parse(doc.dump(indent));
      ASSERT_TRUE(parsed.ok()) << doc.dump(indent);
      EXPECT_EQ(parsed.value(), doc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(7, 70, 700));

}  // namespace
}  // namespace hotc
