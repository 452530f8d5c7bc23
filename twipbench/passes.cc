// The timed half of a run: set-up, then a closed-loop pass (throughput)
// and an open-loop pass (latency) on real worker threads — kShards
// workers plus this load-generator thread — then the output checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <set>
#include <thread>

#include "bench.hh"
#include "oracle.hh"

namespace twipbench {

using pequod::shard::Completion;
using pequod::shard::Frame;
using pequod::shard::ShardedServer;

double percentile(std::vector<uint64_t>& v, double q) {
    if (v.empty())
        return 0;
    size_t at = std::min(v.size() - 1,
                         static_cast<size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(at), v.end());
    return static_cast<double>(v[at]);
}

double median(std::vector<double> v) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

constexpr uint64_t kStallNs = 60ull * 1000000000ull;
constexpr size_t kRecoveredSample = 500;  // timelines re-checked after restart

struct TicketInfo {
    uint8_t kind;
    uint32_t user;
    uint64_t lo_ts;
};

// The load generator: draws ops from the stream, submits them through
// the ShardClient, and polls completions and replies, validating every
// check reply as it is decoded.
class LoadGen {
  public:
    LoadGen(const Spec& spec, Instance& inst, uint64_t seed)
        : inst_(inst), client_(*inst.client),
          stream_(spec, inst.in, seed) {}

    uint64_t submit() {
        Op op = stream_.next();
        uint64_t ticket = 0;
        switch (op.kind) {
        case Op::kCheck:
            timeline_lo(lo_, op.user, op.ts);
            timeline_hi(hi_, op.user);
            ticket = client_.submit_scan(Str(lo_), Str(hi_));
            break;
        case Op::kPost:
            post_key(lo_, op.user, op.ts);
            post_body(hi_, op.ts);
            ticket = client_.submit_put(Str(lo_), Str(hi_));
            break;
        case Op::kSubscribe:
            sub_key(lo_, op.user, op.other);
            ticket = client_.submit_put(Str(lo_), Str("1"));
            break;
        }
        tickets_.push_back(TicketInfo{op.kind, op.user, op.ts});
        ++submitted_[op.kind];
        return ticket;
    }

    void flush() {
        client_.flush();
    }

    // Drain everything that has arrived; done(ticket, kind, poll_ns) per
    // finished op. Returns how many finished.
    template <typename F>
    size_t poll(F&& done) {
        size_t n = 0;
        Completion c;
        while (client_.poll_completion(c)) {
            done(c.ticket, tickets_[c.ticket - 1].kind, now_ns());
            ++n;
        }
        Frame f;
        while (client_.poll_reply(f)) {
            uint64_t t = now_ns();
            while (pequod::net::decode_message(f.buf, msg_)) {
                const TicketInfo& ti = tickets_[msg_.seq - 1];
                timeline_lo(lo_check_, ti.user, ti.lo_ts);
                timeline_hi(hi_check_, ti.user);
                if (!check_reply(msg_.items, ti.user, Str(lo_check_),
                                 Str(hi_check_), rows_))
                    ++bad_replies_;
                done(msg_.seq, ti.kind, t);
                ++n;
            }
        }
        return n;
    }

    // Poll until `outstanding` ops have finished; aborts on a stall.
    template <typename F>
    void drain(size_t outstanding, F&& done) {
        uint64_t last = now_ns();
        while (outstanding) {
            size_t n = poll(done);
            if (n) {
                outstanding -= n;
                last = now_ns();
            } else if (now_ns() - last > kStallNs) {
                stalled(outstanding);
            } else {
                std::this_thread::yield();
            }
        }
    }

    // A pipeline that stops moving for a minute is a fault, not a slow
    // run: report the shard state and end the run without a result.
    [[noreturn]] void stalled(size_t outstanding) const {
        std::fprintf(stderr, "twipbench: stalled, %zu ops outstanding\n%s",
                     outstanding, inst_.ss->debug_state().c_str());
        std::abort();
    }

    uint64_t submitted() const {
        return tickets_.size();
    }
    uint64_t submitted(int kind) const {
        return submitted_[kind];
    }
    uint64_t bad_replies() const {
        return bad_replies_;
    }
    const ReplyRows& rows() const {
        return rows_;
    }
    const std::deque<TicketInfo>& tickets() const {
        return tickets_;
    }

  private:
    Instance& inst_;
    pequod::shard::ShardClient& client_;
    OpStream stream_;
    std::deque<TicketInfo> tickets_;  // by ticket - 1
    uint64_t submitted_[kKinds] = {0, 0, 0};
    uint64_t bad_replies_ = 0;
    ReplyRows rows_;
    pequod::net::Message msg_;
    std::string lo_, hi_, lo_check_, hi_check_;
};

struct Usage {
    double user_s = 0, sys_s = 0;
    long invol = 0;
    static Usage now() {
        rusage r;
        getrusage(RUSAGE_SELF, &r);
        Usage u;
        u.user_s = static_cast<double>(r.ru_utime.tv_sec)
            + static_cast<double>(r.ru_utime.tv_usec) * 1e-6;
        u.sys_s = static_cast<double>(r.ru_stime.tv_sec)
            + static_cast<double>(r.ru_stime.tv_usec) * 1e-6;
        u.invol = r.ru_nivcsw;
        return u;
    }
};

// Closed loop: keep kWindow ops outstanding, refilled in flushed
// batches of kBatch. Throughput is taken per interval of kIntervalS and
// the median interval reported, so a burst of interference from outside
// the process spoils a few intervals, not the result.
constexpr double kIntervalS = 0.25;

double closed_pass(LoadGen& gen, double seconds) {
    size_t finished = 0;
    auto count = [&finished](uint64_t, int, uint64_t) { ++finished; };
    uint64_t t0 = now_ns();
    uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
    uint64_t interval_ns = static_cast<uint64_t>(kIntervalS * 1e9);
    uint64_t mark = t0;
    size_t mark_finished = 0;
    std::vector<double> rates;
    size_t outstanding = 0;
    for (uint64_t now = t0; now < end; now = now_ns()) {
        while (outstanding + kBatch <= kWindow) {
            for (size_t i = 0; i != kBatch; ++i)
                gen.submit();
            gen.flush();
            outstanding += kBatch;
        }
        outstanding -= gen.poll(count);
        if (now - mark >= interval_ns) {
            rates.push_back(static_cast<double>(finished - mark_finished)
                            * 1e9 / static_cast<double>(now - mark));
            mark = now;
            mark_finished = finished;
        }
    }
    gen.drain(outstanding, count);
    return median(rates);
}

struct OpenResult {
    std::vector<uint64_t> latency_ns[kKinds];
    std::vector<uint64_t> late_ns;
};

// Open loop: Poisson arrivals at spec.open_rate, one op per frame. An
// op's latency runs from its due time to the poll that saw it finish.
OpenResult open_pass(LoadGen& gen, const Spec& spec, uint64_t seed,
                     double seconds) {
    OpenResult r;
    pequod::Rng arrivals(seed ^ 0xa22u);
    double gap_ns = 1e9 / spec.open_rate;
    double dur_ns = seconds * 1e9;
    uint64_t first_ticket = gen.submitted() + 1;
    size_t expect = static_cast<size_t>(2 * spec.open_rate * seconds) + 1024;
    std::vector<uint64_t> due;
    due.reserve(expect);
    r.late_ns.reserve(expect);
    for (auto& l : r.latency_ns)
        l.reserve(expect);
    auto record = [&](uint64_t ticket, int kind, uint64_t t) {
        r.latency_ns[kind].push_back(t - due[ticket - first_ticket]);
    };
    uint64_t t0 = now_ns();
    double next = -std::log(1.0 - arrivals.uniform()) * gap_ns;
    size_t outstanding = 0;
    uint64_t last_progress = t0;
    while (next < dur_ns || outstanding) {
        uint64_t now = now_ns();
        uint64_t due_at = t0 + static_cast<uint64_t>(next);
        if (next < dur_ns && due_at <= now) {
            gen.submit();
            gen.flush();
            due.push_back(due_at);
            r.late_ns.push_back(now - due_at);
            ++outstanding;
            next += -std::log(1.0 - arrivals.uniform()) * gap_ns;
            continue;
        }
        size_t n = gen.poll(record);
        if (n) {
            outstanding -= n;
            last_progress = now;
        } else if (outstanding && now - last_progress > kStallNs) {
            gen.stalled(outstanding);
        }
    }
    return r;
}

uint64_t stat_sum(const ShardedServer& ss,
                  uint64_t pequod::shard::ShardStats::*field) {
    uint64_t sum = 0;
    for (int s = 0; s != ss.shards(); ++s)
        sum += ss.stats(s).*field;
    return sum;
}

// Users whose timelines differ from the oracle's, compared as each
// home shard scans them (workers stopped).
uint64_t timelines_mismatched(ShardedServer& ss, const Oracle& oracle,
                              const std::vector<uint32_t>& users) {
    uint64_t bad = 0;
    std::string lo, hi;
    for (uint32_t u : users) {
        timeline_lo(lo, u, 0);
        timeline_hi(hi, u);
        TimelineCheck check(oracle, u);
        int home = pequod::shard::shard_of(Str(lo), ss.shards());
        ss.server(home).scan(Str(lo), Str(hi),
                             [&check](const std::string& k,
                                      const pequod::ValuePtr& v) {
                                 check.row(Str(k), Str(*v));
                             });
        if (check.finish().total())
            ++bad;
    }
    return bad;
}

void add(std::vector<Metric>& to, const char* name, double value,
         const char* unit, uint64_t samples = 0) {
    to.push_back(Metric{name, value, unit, samples});
}

}  // namespace

void run_threaded(const RunConfig& rc, Report& report) {
    const Spec& spec = rc.spec;
    std::string wal = rc.wal_dir + "/wal";

    double t_begin = now_s();
    // Set up several times; the last instance serves the passes.
    std::unique_ptr<Instance> inst;
    std::vector<double> total, graph, load, recover, mat, start;
    for (int i = 0; i != spec.setup_repeats; ++i) {
        inst.reset();
        inst = set_up(spec, rc.seed, wal, true);
        total.push_back(inst->times.total());
        graph.push_back(inst->times.graph_s);
        load.push_back(inst->times.load_s);
        recover.push_back(inst->times.recover_s);
        mat.push_back(inst->times.materialize_s);
        start.push_back(inst->times.start_s);
    }
    ShardedServer& ss = *inst->ss;

    double t_setup = now_s();
    LoadGen gen(spec, *inst, rc.seed);
    // The open-loop pass runs first: its op count is fixed by the seed
    // and the rate, so the latencies and the store it leaves behind do
    // not depend on how fast the closed-loop pass went.
    double open_s = rc.seconds / 2, closed_s = rc.seconds - open_s;
    Usage u0 = Usage::now();
    OpenResult open = open_pass(gen, spec, rc.seed, open_s);
    Usage u1 = Usage::now();
    ss.stop();
    uint64_t store_bytes = 0;
    for (int s = 0; s != ss.shards(); ++s)
        store_bytes += ss.server(s).memory_stats().total();
    ss.start();
    Usage u2 = Usage::now();
    double ops_per_s = closed_pass(gen, closed_s);
    Usage u3 = Usage::now();
    ss.stop();

    uint64_t ops = gen.submitted();
    uint64_t puts = gen.submitted(Op::kPost) + gen.submitted(Op::kSubscribe);
    for (int k = 0; k != kKinds; ++k)
        report.attempted[k] = gen.submitted(k);

    // ---- end-to-end metrics ----------------------------------------------
    auto& e2e = report.end_to_end;
    add(e2e, "ops_per_s", ops_per_s, "1/s");
    static const char* const p50_names[kKinds] = {
        "check_p50_us", "post_p50_us", "subscribe_p50_us"};
    static const char* const p99_names[kKinds] = {
        "check_p99_us", "post_p99_us", "subscribe_p99_us"};
    for (int k = 0; k != kKinds; ++k) {
        auto& lat = open.latency_ns[k];
        uint64_t n = lat.size();
        add(e2e, p50_names[k], percentile(lat, 0.5) / 1e3, "us", n);
        // A p99 needs ten samples beyond it to be a tail at all.
        if (n >= 1000)
            add(report.reference, p99_names[k], percentile(lat, 0.99) / 1e3,
                "us", n);
    }
    Usage used;  // both passes, without the restart between them
    used.user_s = (u1.user_s - u0.user_s) + (u3.user_s - u2.user_s);
    used.sys_s = (u1.sys_s - u0.sys_s) + (u3.sys_s - u2.sys_s);
    used.invol = (u1.invol - u0.invol) + (u3.invol - u2.invol);
    double cpu_s = used.user_s + used.sys_s;
    add(e2e, "cpu_us_per_op", cpu_s * 1e6 / static_cast<double>(ops), "us",
        ops);
    add(e2e, "setup_s", median(total), "s", total.size());
    add(e2e, "store_mb", static_cast<double>(store_bytes) / 1e6, "MB");

    // ---- process, generator and set-up layers -----------------------------
    auto& layer = report.layer;
    add(layer, "proc.user_s", used.user_s, "s");
    add(layer, "proc.sys_s", used.sys_s, "s");
    add(layer, "proc.invol_ctx_switches", static_cast<double>(used.invol),
        "count");
    add(layer, "gen.late_p99_us", percentile(open.late_ns, 0.99) / 1e3, "us",
        open.late_ns.size());
    add(layer, "gen.late_max_us", percentile(open.late_ns, 1.0) / 1e3, "us",
        open.late_ns.size());
    add(layer, "setup.graph_s", median(graph), "s", graph.size());
    add(layer, "setup.load_s", median(load), "s", load.size());
    add(layer, "setup.recover_s", median(recover), "s", recover.size());
    add(layer, "setup.materialize_s", median(mat), "s", mat.size());
    add(layer, "setup.start_s", median(start), "s", start.size());

    // ---- cross-layer counter agreement ------------------------------------
    using pequod::shard::ShardStats;
    auto agree = [&report](const char* name, uint64_t a, uint64_t b) {
        report.add_check(name, a != b ? 1 : 0);
        if (a != b)
            std::printf("counter mismatch: %s: %llu != %llu\n", name,
                        static_cast<unsigned long long>(a),
                        static_cast<unsigned long long>(b));
    };
    agree("client_puts == puts submitted",
          stat_sum(ss, &ShardStats::client_puts), puts);
    agree("client_scans == checks submitted",
          stat_sum(ss, &ShardStats::client_scans),
          gen.submitted(Op::kCheck));
    agree("notify_items_applied == notify_items_sent + backfill_items",
          stat_sum(ss, &ShardStats::notify_items_applied),
          stat_sum(ss, &ShardStats::notify_items_sent)
              + stat_sum(ss, &ShardStats::backfill_items));
    if (spec.durable) {
        uint64_t appended = 0;
        for (int s = 0; s != ss.shards(); ++s)
            appended += ss.wal_stats(s)->appended_ops;
        agree("wal appended_ops == owned puts (run)", appended, puts);
        agree("wal appended_ops == bulk loads (set-up)",
              inst->setup_wal_appended, inst->setup_puts);
    }

    // ---- outputs against the oracle ---------------------------------------
    double t_passes = now_s();
    Oracle oracle = build_oracle(spec, inst->in, rc.seed, ops);
    report.add_check("check replies malformed or out of range",
                     gen.bad_replies(), Op::kCheck);
    report.add_check("reply rows not in the final timeline",
                     rows_not_in_oracle(gen.rows(), oracle), Op::kCheck);
    std::vector<uint32_t> checked;
    if (spec.warm) {
        checked = inst->in.active;
    } else {
        std::set<uint32_t> seen;
        for (const TicketInfo& t : gen.tickets())
            if (t.kind == Op::kCheck)
                seen.insert(t.user);
        checked.assign(seen.begin(), seen.end());
    }
    report.add_check("timelines differing from the oracle",
                     timelines_mismatched(ss, oracle, checked));
    double t_checks = now_s();

    if (spec.durable) {
        // Restart from the WAL: every acknowledged put must be back, and
        // timelines must re-materialize equal to the oracle's.
        pequod::shard::ShardConfig cfg = shard_config(spec, wal);
        inst->ss.reset();
        ShardedServer back(cfg);
        uint64_t missing[kKinds] = {0, 0, 0};
        oracle.for_each_base([&](const std::string& key,
                                 const std::string& value) {
            int s = pequod::shard::shard_of(Str(key), back.shards());
            const pequod::Entry* e = back.server(s).get_ptr(Str(key));
            if (!e || e->value() != value)
                ++missing[key[0] == 's' ? Op::kSubscribe : Op::kPost];
        });
        report.add_check("acknowledged subscriptions lost in recovery",
                         missing[Op::kSubscribe], Op::kSubscribe);
        report.add_check("acknowledged posts lost in recovery",
                         missing[Op::kPost], Op::kPost);
        // Re-materializing every timeline after the restart would take
        // longer than the passes; a seeded sample of them is checked.
        std::vector<uint32_t> sample = checked;
        pequod::Rng rng(rc.seed ^ 0x7e5u);
        for (size_t i = 0; i < sample.size() && i < kRecoveredSample; ++i)
            std::swap(sample[i], sample[i + rng.below(sample.size() - i)]);
        sample.resize(std::min(sample.size(), kRecoveredSample));
        report.add_check("recovered timelines differing from the oracle",
                         timelines_mismatched(back, oracle, sample));
    }
    std::printf("checked %zu timelines, %zu reply rows\n", checked.size(),
                gen.rows().size());
    double t_end = now_s();
    std::printf("phases: setups=%.2fs passes=%.2fs checks=%.2fs "
                "restart_checks=%.2fs\n",
                t_setup - t_begin, t_passes - t_setup, t_checks - t_passes,
                t_end - t_checks);
}

}  // namespace twipbench
