// Workload definitions for the Twip shard-tier benchmark: the three
// workload specs (and their smoke sizes), the key schema, the seeded op
// stream every pass consumes in order, and the set-up that builds a
// ShardedServer from the generated inputs.
//
// Everything the server receives is derived from (spec, seed): the
// power-law graph, the set-up posts, the active-user set and the op
// stream. Replaying the stream from the same seed yields the same ops,
// which is how the oracle and the traced run see exactly what the
// timed passes submitted.
#ifndef TWIPBENCH_WORKLOAD_HH
#define TWIPBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/graph.hh"
#include "common/rng.hh"
#include "common/str.hh"
#include "shard/sharded_server.hh"

namespace twipbench {

using pequod::Str;

constexpr int kShards = 2;
constexpr int kUserWidth = 7;
constexpr int kTimeWidth = 10;
constexpr size_t kBatch = 16;    // closed-loop ops per flushed batch
constexpr size_t kWindow = 128;  // closed-loop outstanding ops
constexpr uint32_t kFollowing = 20;   // average follows per user
constexpr uint32_t kValueBytes = 64;  // post body length

// The §5.1 Twip cache join: a timeline row per (follower, time, poster).
constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

struct Spec {
    std::string name;
    uint32_t users = 0;
    uint32_t active = 0;         // users whose checks/subscribes the stream
                                 // draws; == users means everyone
    uint32_t seed_posts = 0;     // posts bulk-loaded in set-up
    uint32_t check_w = 0, post_w = 0, sub_w = 0;  // op mix weights
    bool warm = false;           // materialize every active timeline in set-up
    bool durable = false;        // shards journal to a WAL; set-up restarts
                                 // the server from it
    double open_rate = 0;        // open-loop Poisson arrivals per second
    uint32_t trace_ops = 0;      // ops the traced replay runs
    int setup_repeats = 3;       // set-ups per run; setup_s is their median
};

// The named workload at full or smoke size; false for an unknown name.
bool find_spec(const std::string& name, bool smoke, Spec& out);

struct Op {
    enum Kind : uint8_t { kCheck = 0, kPost = 1, kSubscribe = 2 };
    Kind kind = kCheck;
    uint32_t user = 0;   // checker / poster / subscriber
    uint32_t other = 0;  // subscribe target
    uint64_t ts = 0;     // post timestamp, or a check's last-seen bound
};
constexpr int kKinds = 3;
const char* kind_name(int kind);

// Fixed-width key and value formatting (no snprintf on the op path).
void append_num(std::string& out, uint64_t x, int width);
void sub_key(std::string& out, uint32_t u, uint32_t p);
void post_key(std::string& out, uint32_t p, uint64_t ts);
// A check of u's timeline from last-seen `ts` (0 = from the start):
// [t|u|ts, t|u}).
void timeline_lo(std::string& out, uint32_t u, uint64_t ts);
void timeline_hi(std::string& out, uint32_t u);
// The post body: deterministic in the timestamp, distinct per post.
void post_body(std::string& out, uint64_t ts);

// Decode a timeline key "t|u|ts|p"; false when it is not one.
bool parse_timeline_key(Str key, uint32_t& u, uint64_t& ts, uint32_t& p);

// The inputs that exist before the run: the graph and the active set.
struct Inputs {
    pequod::apps::SocialGraph graph;
    std::vector<uint32_t> active;  // sorted
};
Inputs make_inputs(const Spec& spec, uint64_t seed);

// Every set-up put in load order: all graph edges, then the set-up
// posts (timestamps 1..seed_posts). f(Str key, Str value).
template <typename F>
void for_each_setup_put(const Spec& spec, const Inputs& in, uint64_t seed,
                        F&& f);

// The op stream: deterministic in (spec, inputs, seed), consumed in
// order. Post timestamps continue after the set-up posts; a check's `ts`
// is the user's last-seen bound, advanced to "now" at every check.
class OpStream {
  public:
    OpStream(const Spec& spec, const Inputs& in, uint64_t seed);
    Op next();

  private:
    const Spec& spec_;
    const Inputs& in_;
    pequod::Rng rng_;
    uint64_t next_ts_;
    std::vector<uint64_t> last_seen_;  // per user
};

// Wall-clock phases of one set-up.
struct SetupTimes {
    double graph_s = 0, load_s = 0, recover_s = 0, materialize_s = 0,
           start_s = 0;
    double total() const {
        return graph_s + load_s + recover_s + materialize_s + start_s;
    }
};

// A set-up server: graph edges and set-up posts loaded, (durable) a
// restart from the WAL, (warm) every active timeline materialized, and
// (threads) the workers started.
struct Instance {
    Inputs in;
    std::unique_ptr<pequod::shard::ShardedServer> ss;
    pequod::shard::ShardClient* client = nullptr;
    SetupTimes times;
    uint64_t setup_puts = 0;          // graph edges + set-up posts
    uint64_t setup_wal_appended = 0;  // WAL records the bulk load wrote
};

pequod::shard::ShardConfig shard_config(const Spec& spec,
                                        const std::string& wal_dir);
std::unique_ptr<Instance> set_up(const Spec& spec, uint64_t seed,
                                 const std::string& wal_dir, bool threads);

// fsync every file under `dir`.
void sync_files(const std::string& dir);

// Materialize u's timeline on its home shard (inline; workers stopped).
void materialize(pequod::shard::ShardedServer& ss, uint32_t u);

double now_s();
uint64_t now_ns();

// ---- template definitions --------------------------------------------------

template <typename F>
void for_each_setup_put(const Spec& spec, const Inputs& in, uint64_t seed,
                        F&& f) {
    std::string key, value;
    for (uint32_t u = 0; u != in.graph.user_count(); ++u)
        for (uint32_t p : in.graph.following(u)) {
            sub_key(key, u, p);
            f(Str(key), Str("1"));
        }
    pequod::Rng rng(seed ^ 0x5e7u);
    for (uint64_t ts = 1; ts <= spec.seed_posts; ++ts) {
        uint32_t poster = in.graph.sample_poster(rng);
        post_key(key, poster, ts);
        post_body(value, ts);
        f(Str(key), Str(value));
    }
}

}  // namespace twipbench

#endif
