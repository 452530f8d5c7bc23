#include "oracle.hh"

#include <algorithm>

namespace twipbench {

uint64_t value_hash(Str value) {
    uint64_t h = 14695981039346656037ull;  // FNV-1a
    for (size_t i = 0; i != value.size(); ++i) {
        h ^= static_cast<unsigned char>(value[i]);
        h *= 1099511628211ull;
    }
    return h;
}

namespace {

// The numeric components of "x|a|b"; false unless exactly two parse.
bool two_numbers(Str key, uint64_t& a, uint64_t& b) {
    uint64_t vals[2] = {0, 0};
    size_t at = 2;
    for (int c = 0; c != 2; ++c) {
        size_t digits = 0;
        while (at < key.size() && key[at] != '|') {
            if (key[at] < '0' || key[at] > '9')
                return false;
            vals[c] = vals[c] * 10 + static_cast<uint64_t>(key[at] - '0');
            ++at, ++digits;
        }
        if (digits == 0 || (c == 0 && at == key.size()))
            return false;
        ++at;
    }
    if (at != key.size() + 1)
        return false;
    a = vals[0], b = vals[1];
    return true;
}

}  // namespace

bool Oracle::apply_put(Str key, Str value) {
    uint64_t a, b;
    if (key.size() < 2 || key[1] != '|' || !two_numbers(key, a, b))
        return false;
    if (key[0] == 's') {
        follows_[static_cast<uint32_t>(a)].insert(static_cast<uint32_t>(b));
        return true;
    }
    if (key[0] == 'p') {
        posts_[static_cast<uint32_t>(a)][b] = value.str();
        return true;
    }
    return false;
}

std::vector<Oracle::Row> Oracle::rows(uint32_t u, uint64_t from_ts) const {
    std::vector<Row> out;
    auto f = follows_.find(u);
    if (f == follows_.end())
        return out;
    for (uint32_t p : f->second) {
        auto ps = posts_.find(p);
        if (ps == posts_.end())
            continue;
        for (auto it = ps->second.lower_bound(from_ts); it != ps->second.end();
             ++it)
            out.push_back(Row{it->first, p, &it->second});
    }
    std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
        return a.ts != b.ts ? a.ts < b.ts : a.poster < b.poster;
    });
    return out;
}

bool Oracle::has_row(uint32_t u, uint64_t ts, uint32_t p,
                     uint64_t hash) const {
    auto f = follows_.find(u);
    if (f == follows_.end() || !f->second.count(p))
        return false;
    auto ps = posts_.find(p);
    if (ps == posts_.end())
        return false;
    auto post = ps->second.find(ts);
    return post != ps->second.end() && value_hash(Str(post->second)) == hash;
}

Oracle build_oracle(const Spec& spec, const Inputs& in, uint64_t seed,
                    uint64_t ops) {
    Oracle o;
    for_each_setup_put(spec, in, seed,
                       [&o](Str key, Str value) { o.apply_put(key, value); });
    OpStream stream(spec, in, seed);
    std::string key, value;
    for (uint64_t i = 0; i != ops; ++i) {
        Op op = stream.next();
        if (op.kind == Op::kPost) {
            post_key(key, op.user, op.ts);
            post_body(value, op.ts);
            o.apply_put(Str(key), Str(value));
        } else if (op.kind == Op::kSubscribe) {
            sub_key(key, op.user, op.other);
            o.apply_put(Str(key), Str("1"));
        }
    }
    return o;
}

TimelineCheck::TimelineCheck(const Oracle& oracle, uint32_t user,
                             uint64_t from_ts)
    : user_(user), want_(oracle.rows(user, from_ts)) {
    timeline_lo(lo_, user, from_ts);
    timeline_hi(hi_, user);
}

void TimelineCheck::row(Str key, Str value) {
    if (have_prev_ && !(Str(prev_) < key)) {
        ++diff_.unordered;
        return;
    }
    prev_.assign(key.data(), key.size());
    have_prev_ = true;
    if (key < Str(lo_) || !(key < Str(hi_))) {
        ++diff_.out_of_range;
        return;
    }
    uint32_t u, p;
    uint64_t ts;
    if (!parse_timeline_key(key, u, ts, p) || u != user_) {
        ++diff_.phantom;
        return;
    }
    auto before = [ts, p](const Oracle::Row& r) {
        return r.ts != ts ? r.ts < ts : r.poster < p;
    };
    while (next_ != want_.size() && before(want_[next_])) {
        ++diff_.missing;
        ++next_;
    }
    if (next_ != want_.size() && want_[next_].ts == ts
        && want_[next_].poster == p) {
        if (Str(*want_[next_].value) != value)
            ++diff_.wrong_value;
        ++next_;
    } else {
        ++diff_.phantom;
    }
}

TimelineDiff TimelineCheck::finish() {
    diff_.missing += want_.size() - next_;
    next_ = want_.size();
    return diff_;
}

TimelineDiff compare_timeline(const Items& got, const Oracle& oracle,
                              uint32_t user, uint64_t from_ts) {
    TimelineCheck check(oracle, user, from_ts);
    for (const auto& [key, value] : got)
        check.row(Str(key), Str(value));
    return check.finish();
}

bool check_reply(const Items& items, uint32_t user, Str lo, Str hi,
                 ReplyRows& rows) {
    bool ok = true;
    for (size_t i = 0; i != items.size(); ++i) {
        Str key(items[i].first);
        ReplyRow r;
        if ((i && !(Str(items[i - 1].first) < key)) || key < lo
            || !(key < hi)
            || !parse_timeline_key(key, r.user, r.ts, r.poster)
            || r.user != user) {
            ok = false;
            continue;
        }
        r.value_hash = value_hash(Str(items[i].second));
        rows.push_back(r);
    }
    return ok;
}

size_t rows_not_in_oracle(const ReplyRows& rows,
                          const Oracle& oracle) {
    size_t bad = 0;
    for (const ReplyRow& r : rows)
        if (!oracle.has_row(r.user, r.ts, r.poster, r.value_hash))
            ++bad;
    return bad;
}

}  // namespace twipbench
