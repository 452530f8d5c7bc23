// Self-test of the benchmark's checker: the oracle evaluates a hand-
// checked example correctly, and every kind of wrong output — a dropped
// post, a phantom row, a wrong value, a key outside the scan range, keys
// out of order — is flagged by the timeline comparison and (where a
// single reply can show it) by the reply validator. Exits 1 on the
// first check that does not hold.
#include <cstdio>
#include <cstdlib>

#include "oracle.hh"

using namespace twipbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

std::string tkey(uint32_t u, uint64_t ts, uint32_t p) {
    std::string k = "t|";
    append_num(k, u, kUserWidth);
    k += '|';
    append_num(k, ts, kTimeWidth);
    k += '|';
    append_num(k, p, kUserWidth);
    return k;
}

// u's timeline as the oracle has it, as (key, value) items.
Items timeline(const Oracle& o, uint32_t u) {
    Items out;
    for (const Oracle::Row& r : o.rows(u))
        out.emplace_back(tkey(u, r.ts, r.poster), *r.value);
    return out;
}

// Reply-checker verdict on `items` as a check of u from last-seen 0:
// true when the reply validates and every row is in the oracle.
bool reply_passes(const Items& items, uint32_t u, const Oracle& o) {
    std::string lo, hi;
    timeline_lo(lo, u, 0);
    timeline_hi(hi, u);
    ReplyRows rows;
    bool ok = check_reply(items, u, Str(lo), Str(hi), rows);
    return ok && rows_not_in_oracle(rows, o) == 0;
}

TimelineDiff diff(const Items& got, uint32_t u, const Oracle& o) {
    return compare_timeline(got, o, u);
}

}  // namespace

int main() {
    // A hand-checked instance: 1 follows 2 and 3; 4 follows 3.
    Oracle o;
    std::string k, v;
    sub_key(k, 1, 2), o.apply_put(Str(k), "1");
    sub_key(k, 1, 3), o.apply_put(Str(k), "1");
    sub_key(k, 4, 3), o.apply_put(Str(k), "1");
    post_key(k, 2, 5), o.apply_put(Str(k), "two@5");
    post_key(k, 3, 7), o.apply_put(Str(k), "three@7");
    post_key(k, 3, 9), o.apply_put(Str(k), "three@9");
    post_key(k, 4, 8), o.apply_put(Str(k), "four@8");
    expect(!o.apply_put("x|1|2", "?") && !o.apply_put("s|1", "?")
               && !o.apply_put("s|1|2|3", "?") && !o.apply_put("p|a|1", "?"),
           "oracle rejects keys outside the base schema");
    Items want = {{tkey(1, 5, 2), "two@5"},
                  {tkey(1, 7, 3), "three@7"},
                  {tkey(1, 9, 3), "three@9"}};
    expect(timeline(o, 1) == want, "oracle timeline of user 1 by hand");
    expect(timeline(o, 4).size() == 2, "oracle timeline of user 4 by hand");
    expect(timeline(o, 2).empty(), "a user following no one has no rows");

    // The same on a generated smoke workload, for a user with rows.
    Spec spec;
    find_spec("twip-read", true, spec);
    Inputs in = make_inputs(spec, 7);
    Oracle g = build_oracle(spec, in, 7, 5000);
    uint32_t u = 0;
    while (u < spec.users && g.rows(u).size() < 3)
        ++u;
    expect(u < spec.users, "generated workload has a user with a timeline");
    Items good = timeline(g, u);

    expect(diff(good, u, g).total() == 0, "correct timeline passes");
    expect(reply_passes(good, u, g), "correct reply passes");

    Items dropped = good;
    dropped.erase(dropped.begin() + 1);
    expect(diff(dropped, u, g).missing == 1, "dropped post is flagged");
    // A reply may legitimately predate a post, so only the quiescent
    // comparison can see a drop; the reply checker must accept it.
    expect(reply_passes(dropped, u, g), "reply missing a row still valid");

    Items phantom = good;
    phantom.emplace_back(tkey(u, 999999, u + 1), "phantom");
    expect(diff(phantom, u, g).phantom == 1, "phantom row is flagged");
    expect(!reply_passes(phantom, u, g), "phantom row fails the reply");

    Items wrong = good;
    wrong[0].second += "!";
    expect(diff(wrong, u, g).wrong_value == 1, "wrong value is flagged");
    expect(!reply_passes(wrong, u, g), "wrong value fails the reply");

    Items outside = good;
    outside.emplace_back(tkey(u + 1, 1, 0), "x");
    expect(diff(outside, u, g).out_of_range == 1,
           "key outside the scan range is flagged");
    expect(!reply_passes(outside, u, g), "out-of-range key fails the reply");

    Items swapped = good;
    std::swap(swapped[0], swapped[1]);
    expect(diff(swapped, u, g).unordered == 1, "out-of-order keys flagged");
    expect(!reply_passes(swapped, u, g), "out-of-order keys fail the reply");

    // An incremental check: rows before the last-seen bound are outside.
    std::string lo, hi;
    uint64_t ts;
    uint32_t uu, p;
    parse_timeline_key(Str(good[1].first), uu, ts, p);
    timeline_lo(lo, u, ts);
    timeline_hi(hi, u);
    ReplyRows rows;
    expect(!check_reply(good, u, Str(lo), Str(hi), rows),
           "row older than the last-seen bound fails the reply");

    std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
    return failures ? 1 : 0;
}
