// The traced half of a run: the stream's first spec.trace_ops ops
// replayed on one thread, with a span around every call into a layer's
// public entry points. Four replays, one per layer group:
//
//  1. shard: the ShardedServer driven inline — ShardClient submit/flush/
//     poll on the client side; step/release_staged per shard on the
//     worker side, each step classified by the frame it drains (a
//     client's, a peer's, or none: a fan-out flush);
//  2. core: a bare Server (one engine, no shards) fed the same set-up
//     and ops, timing scan and put by op kind;
//  3. net: encode_message/decode_message over every request and reply
//     message the shard replay carried;
//  4. persist: a Persistence journaling the shard replay's puts at its
//     frame cadence, then recovering them.
//
// The replays are single-threaded and fully determined by the seed, so
// every count they report (frames, notify items, subscribes, eager
// updates, materializations, WAL flushes, bytes) repeats exactly. Spans
// stay in memory and are written out once, at the end.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "core/server.hh"
#include "net/message.hh"
#include "oracle.hh"
#include "persist/persist.hh"

namespace twipbench {

using pequod::shard::Completion;
using pequod::shard::Frame;
using pequod::shard::ShardedServer;
using pequod::shard::ShardStats;

namespace {

enum Layer : uint8_t {
    kSubmit,
    kFlush,
    kPoll,
    kClientFrame,
    kPeerFrame,
    kRelease,
    kCoreFirstCheck,
    kCoreCheck,
    kCorePost,
    kCoreSubscribe,
    kEncode,
    kDecode,
    kWalAppend,
    kWalFlush,
    kWalRecover,
    kLayers
};

const char* const kLayerNames[kLayers] = {
    "shard.submit",      "shard.flush",       "shard.poll",
    "shard.client_frame", "shard.peer_frame", "shard.release",
    "core.first_check_scan", "core.check_scan", "core.post_put",
    "core.subscribe_put", "net.encode",     "net.decode",
    "persist.append",    "persist.flush",   "persist.recover"};

// A span: which layer call, the request (ticket / op / frame number) it
// served, the round of the replay that caused it, and when it ran.
struct Span {
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t id;
    uint32_t round;
    uint8_t layer;
    int8_t shard;
};

class Tracer {
  public:
    void add(Layer layer, uint64_t id, uint32_t round, uint64_t t0,
             uint64_t t1, int shard = -1) {
        spans_.push_back(Span{t0, t1 - t0, id, round,
                              static_cast<uint8_t>(layer),
                              static_cast<int8_t>(shard)});
        sum_ns_[layer] += t1 - t0;
        ++count_[layer];
    }
    uint64_t count(Layer l) const {
        return count_[l];
    }
    uint64_t sum_ns(Layer l) const {
        return sum_ns_[l];
    }
    double mean_ns(Layer l) const {
        return count_[l] ? static_cast<double>(sum_ns_[l])
                / static_cast<double>(count_[l])
                         : 0;
    }
    // Tab-separated: layer, id, round, shard, start_ns, dur_ns.
    bool write(const std::string& path) const {
        FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "layer\tid\tround\tshard\tstart_ns\tdur_ns\n");
        uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
        for (const Span& s : spans_)
            std::fprintf(f, "%s\t%llu\t%u\t%d\t%llu\t%llu\n",
                         kLayerNames[s.layer],
                         static_cast<unsigned long long>(s.id), s.round,
                         s.shard,
                         static_cast<unsigned long long>(s.start_ns - base),
                         static_cast<unsigned long long>(s.dur_ns));
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    uint64_t sum_ns_[kLayers] = {};
    uint64_t count_[kLayers] = {};
};

void add(std::vector<Metric>& to, const char* name, double value,
         const char* unit, uint64_t samples = 0) {
    to.push_back(Metric{name, value, unit, samples});
}

double ratio(double a, double b) {
    return b ? a / b : 0;
}

// The key (and value) an op sends, as the load generator builds them.
void op_request(const Op& op, std::string& key, std::string& value) {
    switch (op.kind) {
    case Op::kCheck:
        timeline_lo(key, op.user, op.ts);
        timeline_hi(value, op.user);
        break;
    case Op::kPost:
        post_key(key, op.user, op.ts);
        post_body(value, op.ts);
        break;
    case Op::kSubscribe:
        sub_key(key, op.user, op.other);
        value = "1";
        break;
    }
}

ShardStats stats_sum(const ShardedServer& ss) {
    ShardStats t;
    for (int s = 0; s != ss.shards(); ++s) {
        const ShardStats& x = ss.stats(s);
        t.frames += x.frames;
        t.messages += x.messages;
        t.notify_frames_sent += x.notify_frames_sent;
        t.notify_items_sent += x.notify_items_sent;
        t.subscribes_sent += x.subscribes_sent;
        t.backfill_items += x.backfill_items;
    }
    return t;
}

struct ShardReplay {
    std::vector<pequod::net::Message> requests, replies;
    std::vector<Items> wal_frames;  // each shard's puts, per client frame
};

void replay_shards(const RunConfig& rc, Tracer& tr, Report& report,
                   ShardReplay& out) {
    const Spec& spec = rc.spec;
    auto inst = set_up(spec, rc.seed, rc.wal_dir + "/trace-wal", false);
    ShardedServer& ss = *inst->ss;
    pequod::shard::ShardClient& client = *inst->client;
    OpStream stream(spec, inst->in, rc.seed);
    ShardStats before = stats_sum(ss);
    std::vector<uint64_t> busy(kShards, 0);
    std::string key, value;
    uint64_t frame_no = 0;
    for (uint32_t done = 0, round = 0; done < spec.trace_ops; ++round) {
        uint32_t n = std::min<uint32_t>(static_cast<uint32_t>(kBatch),
                                        spec.trace_ops - done);
        std::vector<Items> puts(kShards);
        for (uint32_t i = 0; i != n; ++i) {
            Op op = stream.next();
            op_request(op, key, value);
            uint64_t t0 = now_ns(), ticket;
            if (op.kind == Op::kCheck)
                ticket = client.submit_scan(Str(key), Str(value));
            else
                ticket = client.submit_put(Str(key), Str(value));
            tr.add(kSubmit, ticket, round, t0, now_ns());
            pequod::net::Message m;
            m.type = op.kind == Op::kCheck ? pequod::net::MsgType::kScan
                                           : pequod::net::MsgType::kPut;
            m.key = key;
            m.value = value;
            m.seq = ticket;
            out.requests.push_back(std::move(m));
            if (op.kind != Op::kCheck)
                puts[static_cast<size_t>(pequod::shard::shard_of(
                         Str(key), kShards))]
                    .emplace_back(key, value);
        }
        uint64_t t0 = now_ns();
        client.flush();
        tr.add(kFlush, round, round, t0, now_ns());

        for (bool any = true; any;) {
            any = false;
            for (int s = 0; s != kShards; ++s)
                while (ss.has_work(s)) {
                    const Frame* f = ss.peek_frame(s);
                    Layer l = f && f->from < 0 ? kClientFrame : kPeerFrame;
                    uint64_t a = now_ns();
                    ss.step(s);
                    uint64_t b = now_ns();
                    ss.release_staged(s, 0);
                    uint64_t c = now_ns();
                    tr.add(l, frame_no, round, a, b, s);
                    tr.add(kRelease, frame_no, round, b, c, s);
                    busy[static_cast<size_t>(s)] += c - a;
                    ++frame_no;
                    any = true;
                }
        }

        for (;;) {
            Completion c;
            uint64_t a = now_ns();
            if (!client.poll_completion(c))
                break;
            tr.add(kPoll, c.ticket, round, a, now_ns());
        }
        for (;;) {
            Frame f;
            uint64_t a = now_ns();
            if (!client.poll_reply(f))
                break;
            pequod::net::Message m;
            uint64_t ticket = 0;
            while (pequod::net::decode_message(f.buf, m)) {
                ticket = m.seq;
                out.replies.push_back(std::move(m));
                m = pequod::net::Message();
            }
            tr.add(kPoll, ticket, round, a, now_ns());
        }
        for (Items& p : puts)
            if (!p.empty())
                out.wal_frames.push_back(std::move(p));
        done += n;
    }

    auto& L = report.layer;
    uint64_t client_frames = tr.count(kClientFrame);
    add(L, "shard.submit_ns_per_op", tr.mean_ns(kSubmit), "ns",
        tr.count(kSubmit));
    add(L, "shard.flush_ns_per_frame",
        ratio(static_cast<double>(tr.sum_ns(kFlush)),
              static_cast<double>(client_frames)),
        "ns", client_frames);
    add(L, "shard.poll_ns_per_op",
        ratio(static_cast<double>(tr.sum_ns(kPoll)),
              static_cast<double>(spec.trace_ops)),
        "ns", spec.trace_ops);
    add(L, "shard.client_frame_us", tr.mean_ns(kClientFrame) / 1e3, "us",
        client_frames);
    add(L, "shard.peer_frame_us", tr.mean_ns(kPeerFrame) / 1e3, "us",
        tr.count(kPeerFrame));
    add(L, "shard.release_us", tr.mean_ns(kRelease) / 1e3, "us",
        tr.count(kRelease));
    double busy_total = 0, busy_max = 0;
    for (uint64_t b : busy) {
        busy_total += static_cast<double>(b) * 1e-9;
        busy_max = std::max(busy_max, static_cast<double>(b) * 1e-9);
    }
    add(L, "shard.busy_s", busy_total, "s");
    add(L, "shard.busy_imbalance", ratio(busy_max, busy_total / kShards),
        "ratio");

    ShardStats after = stats_sum(ss);
    double frames = static_cast<double>(after.frames - before.frames);
    double notify_frames = static_cast<double>(after.notify_frames_sent
                                               - before.notify_frames_sent);
    double notify_items = static_cast<double>(after.notify_items_sent
                                              - before.notify_items_sent);
    add(L, "shard.frames", frames, "count");
    add(L, "shard.messages_per_frame",
        ratio(static_cast<double>(after.messages - before.messages), frames),
        "ratio");
    add(L, "shard.notify_items_sent", notify_items, "count");
    add(L, "shard.notify_items_per_frame", ratio(notify_items, notify_frames),
        "ratio");
    add(L, "shard.subscribes_sent",
        static_cast<double>(after.subscribes_sent - before.subscribes_sent),
        "count");
    add(L, "shard.backfill_items",
        static_cast<double>(after.backfill_items - before.backfill_items),
        "count");

    pequod::MemoryStats m;
    for (int s = 0; s != kShards; ++s) {
        pequod::MemoryStats x = ss.server(s).memory_stats();
        m.entry_count += x.entry_count;
        m.key_bytes += x.key_bytes;
        m.value_bytes += x.value_bytes;
        m.structure_bytes += x.structure_bytes;
    }
    add(L, "store.entries", static_cast<double>(m.entry_count), "count");
    add(L, "store.key_bytes", static_cast<double>(m.key_bytes), "B");
    add(L, "store.value_bytes", static_cast<double>(m.value_bytes), "B");
    add(L, "store.structure_bytes", static_cast<double>(m.structure_bytes),
        "B");
    add(L, "store.bytes_per_entry",
        ratio(static_cast<double>(m.total()),
              static_cast<double>(m.entry_count)),
        "B");
    inst.reset();
    std::filesystem::remove_all(rc.wal_dir + "/trace-wal");
}

void replay_core(const RunConfig& rc, Tracer& tr, Report& report) {
    const Spec& spec = rc.spec;
    Inputs in = make_inputs(spec, rc.seed);
    pequod::Server server;
    server.add_join(kTimelineJoin);
    for_each_setup_put(spec, in, rc.seed,
                       [&server](Str k, Str v) { server.put(k, v); });
    std::string lo, hi;
    size_t rows = 0;
    auto count = [&rows](const std::string&, const pequod::ValuePtr&) {
        ++rows;
    };
    auto check = [&](uint32_t u, uint64_t ts, uint64_t id, uint32_t round) {
        timeline_lo(lo, u, ts);
        timeline_hi(hi, u);
        uint64_t m0 = server.materialization_count();
        uint64_t t0 = now_ns();
        server.scan(Str(lo), Str(hi), count);
        uint64_t t1 = now_ns();
        tr.add(server.materialization_count() != m0 ? kCoreFirstCheck
                                                     : kCoreCheck,
               id, round, t0, t1);
    };
    // Set-up materialization is each warm user's first check.
    if (spec.warm)
        for (uint32_t u : in.active)
            check(u, 0, 0, 0);
    OpStream stream(spec, in, rc.seed);
    uint64_t eager = 0, posts = 0;
    std::string key, value;
    for (uint32_t i = 0; i != spec.trace_ops; ++i) {
        Op op = stream.next();
        uint32_t round = i / static_cast<uint32_t>(kBatch);
        if (op.kind == Op::kCheck) {
            check(op.user, op.ts, i, round);
            continue;
        }
        op_request(op, key, value);
        uint64_t e0 = server.eager_update_count();
        uint64_t t0 = now_ns();
        server.put(Str(key), Str(value));
        uint64_t t1 = now_ns();
        if (op.kind == Op::kPost) {
            tr.add(kCorePost, i, round, t0, t1);
            eager += server.eager_update_count() - e0;
            ++posts;
        } else {
            tr.add(kCoreSubscribe, i, round, t0, t1);
        }
    }
    auto& L = report.layer;
    add(L, "core.check_scan_us", tr.mean_ns(kCoreCheck) / 1e3, "us",
        tr.count(kCoreCheck));
    add(L, "core.first_check_scan_us", tr.mean_ns(kCoreFirstCheck) / 1e3,
        "us", tr.count(kCoreFirstCheck));
    add(L, "core.post_put_us", tr.mean_ns(kCorePost) / 1e3, "us",
        tr.count(kCorePost));
    add(L, "core.subscribe_put_us", tr.mean_ns(kCoreSubscribe) / 1e3, "us",
        tr.count(kCoreSubscribe));
    add(L, "core.eager_updates_per_post",
        ratio(static_cast<double>(eager), static_cast<double>(posts)),
        "ratio", posts);
    add(L, "core.materializations",
        static_cast<double>(server.materialization_count()), "count");
    add(L, "core.source_rows_per_materialization",
        ratio(static_cast<double>(server.source_rows_scanned()),
              static_cast<double>(server.materialization_count())),
        "ratio");
    add(L, "core.updaters", static_cast<double>(server.updater_count()),
        "count");
}

void replay_net(Tracer& tr, Report& report, const ShardReplay& sr) {
    // Frames of kBatch messages, each in its own buffer, as the client
    // and the shards build them.
    std::vector<pequod::net::Buffer> frames;
    size_t req_bytes = 0, rep_bytes = 0;
    uint32_t round = 0;
    auto encode_all = [&](const std::vector<pequod::net::Message>& msgs,
                          size_t& bytes) {
        for (size_t i = 0; i < msgs.size(); i += kBatch, ++round) {
            size_t end = std::min(msgs.size(), i + kBatch);
            uint64_t t0 = now_ns();
            pequod::net::Buffer b;
            for (size_t j = i; j != end; ++j)
                pequod::net::encode_message(b, msgs[j]);
            tr.add(kEncode, i, round, t0, now_ns());
            bytes += b.size();
            frames.push_back(std::move(b));
        }
    };
    encode_all(sr.requests, req_bytes);
    encode_all(sr.replies, rep_bytes);
    uint64_t decoded = 0;
    pequod::net::Message m;
    for (size_t f = 0; f != frames.size(); ++f, ++round) {
        uint64_t t0 = now_ns();
        uint64_t n = 0;
        while (pequod::net::decode_message(frames[f], m))
            ++n;
        tr.add(kDecode, decoded, round, t0, now_ns());
        decoded += n;
    }
    double msgs = static_cast<double>(sr.requests.size() + sr.replies.size());
    auto& L = report.layer;
    add(L, "net.encode_ns_per_msg",
        ratio(static_cast<double>(tr.sum_ns(kEncode)), msgs), "ns",
        static_cast<uint64_t>(msgs));
    add(L, "net.decode_ns_per_msg",
        ratio(static_cast<double>(tr.sum_ns(kDecode)), msgs), "ns", decoded);
    add(L, "net.request_bytes_per_op",
        ratio(static_cast<double>(req_bytes),
              static_cast<double>(sr.requests.size())),
        "B", sr.requests.size());
    add(L, "net.reply_bytes_per_check",
        ratio(static_cast<double>(rep_bytes),
              static_cast<double>(sr.replies.size())),
        "B", sr.replies.size());
}

void replay_persist(const RunConfig& rc, Tracer& tr, Report& report,
                    const ShardReplay& sr) {
    const Spec& spec = rc.spec;
    pequod::persist::PersistConfig pc;
    pc.dir = rc.wal_dir + "/trace-persist";
    pc.wal_fsync = false;  // as in the timed runs; see README.md
    std::filesystem::remove_all(pc.dir);
    Inputs in = make_inputs(spec, rc.seed);
    uint64_t user_bytes = 0, run_puts = 0, run_flushes = 0;
    pequod::persist::WalStats ws;
    {
        pequod::persist::Persistence p(pc);
        p.recover([](Str, Str) {}, [](Str, Str) {});
        // The set-up bulk load, as ShardedServer::load journals it.
        for_each_setup_put(spec, in, rc.seed, [&](Str k, Str v) {
            p.log_put(k, v);
            user_bytes += k.size() + v.size();
        });
        p.flush();
        uint64_t flushes0 = p.wal().stats().flushes;
        for (size_t f = 0; f != sr.wal_frames.size(); ++f) {
            const Items& puts = sr.wal_frames[f];
            uint32_t round = static_cast<uint32_t>(f);
            uint64_t t0 = now_ns();
            for (const auto& kv : puts)
                p.log_put(Str(kv.first), Str(kv.second));
            uint64_t t1 = now_ns();
            p.flush();
            uint64_t t2 = now_ns();
            tr.add(kWalAppend, f, round, t0, t1);
            tr.add(kWalFlush, f, round, t1, t2);
            run_puts += puts.size();
            for (const auto& kv : puts)
                user_bytes += kv.first.size() + kv.second.size();
        }
        run_flushes = p.wal().stats().flushes - flushes0;
        ws = p.wal().stats();
    }
    uint64_t records = 0;
    sync_files(pc.dir);  // as in set-up: keep device writeback out of recovery
    {
        pequod::persist::Persistence p(pc);
        uint64_t t0 = now_ns();
        pequod::persist::RecoverResult r =
            p.recover([&records](Str, Str) { ++records; }, [](Str, Str) {});
        tr.add(kWalRecover, r.wal_records, 0, t0, now_ns());
    }
    std::filesystem::remove_all(pc.dir);
    double recover_s = static_cast<double>(tr.sum_ns(kWalRecover)) * 1e-9;
    auto& L = report.layer;
    add(L, "persist.append_ns_per_op",
        ratio(static_cast<double>(tr.sum_ns(kWalAppend)),
              static_cast<double>(run_puts)),
        "ns", run_puts);
    add(L, "persist.flush_us", tr.mean_ns(kWalFlush) / 1e3, "us",
        tr.count(kWalFlush));
    add(L, "persist.ops_per_flush",
        ratio(static_cast<double>(run_puts), static_cast<double>(run_flushes)),
        "ratio", run_flushes);
    add(L, "persist.wal_bytes_per_user_byte",
        ratio(static_cast<double>(ws.bytes_written),
              static_cast<double>(user_bytes)),
        "ratio");
    add(L, "persist.flushes", static_cast<double>(ws.flushes), "count");
    add(L, "persist.recover_s", recover_s, "s");
    add(L, "persist.replay_records_per_s",
        ratio(static_cast<double>(records), recover_s), "1/s", records);
}

}  // namespace

void run_traced(const RunConfig& rc, Report& report) {
    Tracer tr;
    ShardReplay sr;
    replay_shards(rc, tr, report, sr);
    replay_core(rc, tr, report);
    replay_net(tr, report, sr);
    replay_persist(rc, tr, report, sr);
    if (!rc.spans_path.empty() && !tr.write(rc.spans_path))
        std::fprintf(stderr, "twipbench: cannot write spans to %s\n",
                     rc.spans_path.c_str());
}

}  // namespace twipbench
