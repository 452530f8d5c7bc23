#include "workload.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <filesystem>

#include "common/base.hh"

namespace twipbench {

using pequod::shard::ShardConfig;
using pequod::shard::ShardedServer;

bool find_spec(const std::string& name, bool smoke, Spec& s) {
    s = Spec();
    s.name = name;
    if (name == "twip-read") {
        // Checks of timelines already in the cache dominate.
        s.users = 20000;
        s.active = 1500;
        s.seed_posts = 20000;
        s.check_w = 60, s.post_w = 1, s.sub_w = 10;
        s.warm = true;
        s.open_rate = 20000;
        s.trace_ops = 100000;
    } else if (name == "twip-write") {
        // Posts fan out into materialized timelines; every frame ends
        // in a WAL flush.
        s.users = 20000;
        s.active = 4000;
        s.seed_posts = 20000;
        s.check_w = 10, s.post_w = 10, s.sub_w = 1;
        s.warm = true;
        s.durable = true;
        s.open_rate = 5000;
        s.trace_ops = 60000;
    } else if (name == "twip-cold") {
        // Nothing materialized: most checks are a user's first.
        s.users = 50000;
        s.active = 50000;
        s.seed_posts = 50000;
        s.check_w = 60, s.post_w = 1, s.sub_w = 1;
        s.open_rate = 1000;
        s.trace_ops = 30000;
    } else {
        return false;
    }
    if (smoke) {
        // Same shape and checks, sized to finish in a few seconds.
        s.users /= 10;
        s.active = std::max<uint32_t>(s.active / 10, 50);
        s.seed_posts /= 10;
        s.open_rate /= 10;
        s.trace_ops /= 20;
        s.setup_repeats = 1;
    }
    return true;
}

const char* kind_name(int kind) {
    static const char* const names[kKinds] = {"check", "post", "subscribe"};
    return names[kind];
}

void append_num(std::string& out, uint64_t x, int width) {
    char buf[24];
    int n = 0;
    do {
        buf[n++] = static_cast<char>('0' + x % 10);
        x /= 10;
    } while (x);
    for (int i = n; i < width; ++i)
        out += '0';
    while (n)
        out += buf[--n];
}

void sub_key(std::string& out, uint32_t u, uint32_t p) {
    out.assign("s|");
    append_num(out, u, kUserWidth);
    out += '|';
    append_num(out, p, kUserWidth);
}

void post_key(std::string& out, uint32_t p, uint64_t ts) {
    out.assign("p|");
    append_num(out, p, kUserWidth);
    out += '|';
    append_num(out, ts, kTimeWidth);
}

void timeline_lo(std::string& out, uint32_t u, uint64_t ts) {
    out.assign("t|");
    append_num(out, u, kUserWidth);
    out += '|';
    if (ts)
        append_num(out, ts, kTimeWidth);
}

void timeline_hi(std::string& out, uint32_t u) {
    out.assign("t|");
    append_num(out, u, kUserWidth);
    out += static_cast<char>('|' + 1);
}

void post_body(std::string& out, uint64_t ts) {
    out.clear();
    append_num(out, ts, kTimeWidth);
    out += ':';
    char fill = static_cast<char>('a' + ts % 26);
    out.resize(kValueBytes, fill);
}

namespace {

bool parse_digits(Str s, size_t at, int width, uint64_t& out) {
    out = 0;
    for (int i = 0; i != width; ++i) {
        char c = s[at + static_cast<size_t>(i)];
        if (c < '0' || c > '9')
            return false;
        out = out * 10 + static_cast<uint64_t>(c - '0');
    }
    return true;
}

}  // namespace

bool parse_timeline_key(Str key, uint32_t& u, uint64_t& ts, uint32_t& p) {
    constexpr size_t kUserAt = 2, kTsAt = kUserAt + kUserWidth + 1,
                     kPosterAt = kTsAt + kTimeWidth + 1,
                     kLen = kPosterAt + kUserWidth;
    if (key.size() != kLen || key[0] != 't' || key[1] != '|'
        || key[kTsAt - 1] != '|' || key[kPosterAt - 1] != '|')
        return false;
    uint64_t uu, pp;
    if (!parse_digits(key, kUserAt, kUserWidth, uu)
        || !parse_digits(key, kTsAt, kTimeWidth, ts)
        || !parse_digits(key, kPosterAt, kUserWidth, pp))
        return false;
    u = static_cast<uint32_t>(uu);
    p = static_cast<uint32_t>(pp);
    return true;
}

Inputs make_inputs(const Spec& spec, uint64_t seed) {
    Inputs in;
    pequod::apps::SocialGraph::Config g;
    g.users = spec.users;
    g.avg_following = kFollowing;
    g.seed = seed;
    in.graph = pequod::apps::SocialGraph::generate(g);
    // The active set is a seeded sample, not the lowest ids: user ids
    // rank popularity, so a prefix would pick the celebrities.
    std::vector<uint32_t> all(spec.users);
    for (uint32_t u = 0; u != spec.users; ++u)
        all[u] = u;
    pequod::Rng rng(seed ^ 0xac71u);
    for (uint32_t i = 0; i + 1 < spec.users && i < spec.active; ++i)
        std::swap(all[i], all[i + rng.below(spec.users - i)]);
    all.resize(std::min(spec.active, spec.users));
    std::sort(all.begin(), all.end());
    in.active = std::move(all);
    return in;
}

OpStream::OpStream(const Spec& spec, const Inputs& in, uint64_t seed)
    : spec_(spec), in_(in), rng_(seed ^ 0x0b5u),
      next_ts_(uint64_t(spec.seed_posts) + 1),
      last_seen_(spec.users, spec.warm ? next_ts_ : 0) {}

Op OpStream::next() {
    uint64_t w = rng_.below(spec_.check_w + spec_.post_w + spec_.sub_w);
    uint32_t na = static_cast<uint32_t>(in_.active.size());
    Op op;
    if (w < spec_.check_w) {
        op.kind = Op::kCheck;
        op.user = in_.active[rng_.below(na)];
        op.ts = last_seen_[op.user];
        last_seen_[op.user] = next_ts_;
    } else if (w < spec_.check_w + spec_.post_w) {
        op.kind = Op::kPost;
        op.user = in_.graph.sample_poster(rng_);
        op.ts = next_ts_++;
    } else {
        op.kind = Op::kSubscribe;
        op.user = in_.active[rng_.below(na)];
        op.other = in_.graph.sample_poster(rng_);
        if (op.other == op.user)
            op.other = (op.other + 1) % spec_.users;
    }
    return op;
}

ShardConfig shard_config(const Spec& spec, const std::string& wal_dir) {
    ShardConfig cfg;
    cfg.shards = kShards;
    cfg.joins = kTimelineJoin;
    if (spec.durable) {
        cfg.persist.dir = wal_dir;
        // The device's fsync is not what this benchmark measures (see
        // README.md, "WAL policy"): every append, checksum, frame-end
        // write and replay runs; only the flush to the device is off.
        cfg.persist.wal_fsync = false;
    }
    return cfg;
}

void sync_files(const std::string& dir) {
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        int fd = ::open(e.path().c_str(), O_RDONLY);
        if (fd >= 0) {
            ::fsync(fd);
            ::close(fd);
        }
    }
}

void materialize(ShardedServer& ss, uint32_t u) {
    std::string lo, hi;
    timeline_lo(lo, u, 0);
    timeline_hi(hi, u);
    int home = pequod::shard::shard_of(Str(lo), ss.shards());
    ss.server(home).scan(Str(lo), Str(hi),
                         [](const std::string&, const pequod::ValuePtr&) {});
}

std::unique_ptr<Instance> set_up(const Spec& spec, uint64_t seed,
                                 const std::string& wal_dir, bool threads) {
    if (spec.durable)
        std::filesystem::remove_all(wal_dir);
    auto inst = std::make_unique<Instance>();
    double t = now_s();
    inst->in = make_inputs(spec, seed);
    double t1 = now_s();
    inst->times.graph_s = t1 - t;

    ShardConfig cfg = shard_config(spec, wal_dir);
    inst->ss = std::make_unique<ShardedServer>(cfg);
    for_each_setup_put(spec, inst->in, seed, [&](Str key, Str value) {
        inst->ss->load(key, value);
        ++inst->setup_puts;
    });
    t = now_s();
    inst->times.load_s = t - t1;

    if (spec.durable) {
        // Make the bulk load durable (start() flushes every journal),
        // then come back up from the log alone.
        for (int s = 0; s != kShards; ++s)
            inst->setup_wal_appended += inst->ss->wal_stats(s)->appended_ops;
        inst->ss->start();
        inst->ss->stop();
        inst->ss.reset();
        // Untimed: with fsync off the bulk load is still in the page
        // cache, and the restart's manifest fsync would otherwise write
        // it out — device time this benchmark does not measure.
        sync_files(wal_dir);
        t1 = now_s();
        inst->ss = std::make_unique<ShardedServer>(cfg);
        t = now_s();
        inst->times.recover_s = t - t1;
    }

    if (spec.warm)
        for (uint32_t u : inst->in.active)
            materialize(*inst->ss, u);
    t1 = now_s();
    inst->times.materialize_s = t1 - t;

    inst->client = &inst->ss->make_client();
    if (threads)
        inst->ss->start();
    inst->times.start_s = now_s() - t1;
    return inst;
}

uint64_t now_ns() {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull
        + static_cast<uint64_t>(ts.tv_nsec);
}

double now_s() {
    return static_cast<double>(now_ns()) * 1e-9;
}

}  // namespace twipbench
