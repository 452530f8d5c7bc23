// The independent oracle and the output checker.
//
// The oracle evaluates the timeline join by brute force over the base
// puts the server was sent — "t|u|ts|p = post value, for every s|u|p and
// p|p|ts" — with std::map/std::set only. It shares no code with the
// engine (no Server, Join or Store), so a fault in materialization,
// eager maintenance, the shard protocol or recovery cannot hide in both.
//
// The checker compares server output with it two ways: whole timelines
// after quiescence (every key and value), and check replies during the
// run (ascending keys inside the scanned range, each row a member of the
// oracle's final timeline — timelines only grow, so a row a reply showed
// must still be there at the end).
#ifndef TWIPBENCH_ORACLE_HH
#define TWIPBENCH_ORACLE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workload.hh"

namespace twipbench {

uint64_t value_hash(Str value);

class Oracle {
  public:
    // A base put: "s|u|p" adds a subscription, "p|p|ts" a post. False
    // for a key of neither form.
    bool apply_put(Str key, Str value);

    // u's timeline rows with timestamp >= from_ts, in key order.
    struct Row {
        uint64_t ts;
        uint32_t poster;
        const std::string* value;
    };
    std::vector<Row> rows(uint32_t u, uint64_t from_ts = 0) const;

    // Whether u's timeline holds row (ts, p) with this value hash.
    bool has_row(uint32_t u, uint64_t ts, uint32_t p,
                 uint64_t value_hash) const;

    // Every base key the oracle holds, for the recovery check.
    // f(const std::string& key, const std::string& value).
    template <typename F>
    void for_each_base(F&& f) const;

  private:
    std::map<uint32_t, std::set<uint32_t>> follows_;
    std::map<uint32_t, std::map<uint64_t, std::string>> posts_;
};

// The oracle over the set-up puts plus the first `ops` ops of the stream.
Oracle build_oracle(const Spec& spec, const Inputs& in, uint64_t seed,
                    uint64_t ops);

using Items = std::vector<std::pair<std::string, std::string>>;

struct TimelineDiff {
    size_t missing = 0;       // oracle row absent from the server's
    size_t phantom = 0;       // server row the oracle does not have
    size_t wrong_value = 0;   // same key, different value
    size_t out_of_range = 0;  // key outside [lo, hi)
    size_t unordered = 0;     // key not above its predecessor
    size_t total() const {
        return missing + phantom + wrong_value + out_of_range + unordered;
    }
};

// Compares a scan of u's timeline from last-seen `from_ts` (the range
// [timeline_lo(u, from_ts), timeline_hi(u))) with the oracle's rows, one
// server row at a time in scan order — no copy of either side.
class TimelineCheck {
  public:
    TimelineCheck(const Oracle& oracle, uint32_t user, uint64_t from_ts = 0);
    void row(Str key, Str value);
    TimelineDiff finish();

  private:
    uint32_t user_;
    std::vector<Oracle::Row> want_;
    size_t next_ = 0;
    std::string lo_, hi_, prev_;
    bool have_prev_ = false;
    TimelineDiff diff_;
};

TimelineDiff compare_timeline(const Items& got, const Oracle& oracle,
                              uint32_t user, uint64_t from_ts = 0);

// One row of a check reply, kept for the end-of-run membership test.
struct ReplyRow {
    uint32_t user;
    uint32_t poster;
    uint64_t ts;
    uint64_t value_hash;
};
// A deque, so a growing record never copies itself inside a timed pass.
using ReplyRows = std::deque<ReplyRow>;

// Validate a check reply of `user`'s timeline over [lo, hi): keys
// ascending, inside the range, and timeline keys of that user. Appends
// the decoded rows; false on any violation.
bool check_reply(const Items& items, uint32_t user, Str lo, Str hi,
                 ReplyRows& rows);

// Rows (from check_reply) that are not in the oracle's final timeline.
size_t rows_not_in_oracle(const ReplyRows& rows,
                          const Oracle& oracle);

// ---- template definitions --------------------------------------------------

template <typename F>
void Oracle::for_each_base(F&& f) const {
    std::string key, value;
    for (const auto& [u, ps] : follows_)
        for (uint32_t p : ps) {
            sub_key(key, u, p);
            value = "1";
            f(key, value);
        }
    for (const auto& [p, posts] : posts_)
        for (const auto& [ts, v] : posts) {
            post_key(key, p, ts);
            f(key, v);
        }
}

}  // namespace twipbench

#endif
