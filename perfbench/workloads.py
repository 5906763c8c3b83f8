"""The three perfbench workloads: their request streams, output checks,
end-to-end measurement and the traced per-layer run.

See README.md in this directory for why each workload exists and what
each metric means.
"""

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import time

import benchlib
from daemon import Daemon

# Seeds map onto this many recorded input sets (goldens.json).
SLOTS = 8

# daemon-journaled's light link-fault plan (per mille; delay in rounds).
FAULT = {"drop_per_mille": 20, "dup_per_mille": 10, "delay_per_mille": 20,
         "delay_rounds": 2, "crashes": []}

# Snapshot fields checked against goldens.json after every session.
FINAL_FIELDS = ("round", "decided", "honest", "estimate.min", "estimate.median",
                "estimate.max", "messages_total", "bits_total", "dropped",
                "duplicated", "delayed", "crashed")

# Guards against a stream that never stops.
MAX_STEPS_PER_SESSION = 10_000

TRACER_TIMEOUT_S = 170


class Workload:
    """One workload: the sessions a stream creates and how it drives them.

    A session is stepped `step_rounds` at a time, with a `nodes:true`
    query every `nodes_every` steps and `stop_queries` of them once it
    stops. A measured run repeats a cycle (one stream, then `restarts`
    kills and respawns) while the next one is expected to end within
    --seconds, at least `cycles[0]` and at most `cycles[1]` times;
    `extra_setups` more spawn-and-create probes sample setup_s where the
    streams alone give too few.
    """

    def __init__(self, name, sessions, step_rounds, nodes_every, restarts,
                 extra_setups, cycles=(2, None), durable=False, kept=0, stop_queries=1):
        self.name = name
        self.sessions = sessions
        self.step_rounds = step_rounds
        self.nodes_every = nodes_every
        self.stop_queries = stop_queries
        self.restarts = restarts
        self.cycles = cycles
        self.extra_setups = extra_setups
        self.durable = durable
        self.kept = kept

    def daemon_args(self, state_dir):
        return ["--state-dir", state_dir, "--fsync", "batch"] if self.durable else []


def _local_inject(slot):
    return [{"n": 1024, "family": "hnd(d=8)", "protocol": "local",
             "adversary": "edge-injector", "byzantine": 4, "seed": 200 + slot}]


def _geomax(slot):
    return [{"n": 1 << 20, "family": "cycle", "protocol": "geometric-max",
             "seed": 300 + slot, "budget": 40}]


def _journaled(slot):
    base = 10_000 + 100 * slot
    return [{"n": 1024, "family": "hnd(d=8)", "protocol": "congest",
             "seed": base + i, "fault": dict(FAULT, seed=base + i)}
            for i in range(30)]


WORKLOADS = {w.name: w for w in [
    # LOCAL nodes queries differ tenfold in cost between rounds, so they
    # are taken at the stop only, where they are alike. Step costs form
    # five clusters, one per round; 6-10 streams keep the step tail (the
    # 10th sample from the top) inside the fourth.
    Workload("local-inject", _local_inject, step_rounds=1, nodes_every=5,
             restarts=1, extra_setups=12, cycles=(6, 10), stop_queries=10),
    # A fixed stream count keeps the tail percentile fixed (p83 of 60).
    Workload("geomax-1m", _geomax, step_rounds=2, nodes_every=20,
             restarts=1, extra_setups=2, cycles=(3, 3)),
    Workload("daemon-journaled", _journaled, step_rounds=4, nodes_every=10,
             restarts=2, extra_setups=12, durable=True, kept=10),
]}


class CheckFailed(Exception):
    pass


def result_bytes(reply):
    """The `result` member of a reply line, as bytes (request ids
    stripped, so replies to equal requests compare byte for byte)."""
    at = reply.find(b'"result":')
    if at < 0:
        raise CheckFailed(f"error reply: {reply[:300]!r}")
    return reply[at:]


def final_fields(snapshot):
    out = []
    for field in FINAL_FIELDS:
        value = snapshot
        for key in field.split("."):
            value = value[key]
        out.append(value)
    return out


class Stream:
    """One closed-loop stream on one daemon and what it observed."""

    def __init__(self, keep):
        self.keep = keep
        self.lines, self.replies, self.kinds, self.rtts = [], [], [], []
        self.tte = []
        self.finals = []
        # Last summary query reply per session (`result` bytes).
        self.last_query = {}
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.first_reply_at = None
        self.wall = 0.0

    def call(self, d, kind, method, params):
        line = d.request_line(method, params)
        self.attempted += 1
        reply, rtt = d.send(line)
        self.kinds.append(kind)
        self.rtts.append(rtt)
        if self.keep:
            self.lines.append(line)
            self.replies.append(reply)
        try:
            self.digest.update(result_bytes(reply))
        except CheckFailed:
            self.failed += 1
            raise
        return reply

    def call_json(self, d, kind, method, params):
        return json.loads(self.call(d, kind, method, params))["result"]

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            raise CheckFailed(what)


def check_nodes_reply(stream, reply, snapshot):
    """Cheap structural checks on a `nodes:true` reply, which can be tens
    of MB (its bytes are also covered by the stream digest): it carries
    the step's snapshot, and one row per node with the right number of
    Byzantine rows."""
    rows = reply.count(b'{"byzantine":')
    byz = reply.count(b'{"byzantine":true')
    stream.check(rows == snapshot["n"] and byz == snapshot["byzantine"],
                 f"nodes reply has {rows} rows ({byz} Byzantine) for {snapshot['n']}")
    head = json.loads(reply[:reply.index(b',"nodes":')] + b"}}")
    stream.check(head["result"]["snapshot"] == snapshot, "nodes reply carries another snapshot")


def run_stream(d, wl, slot, st):
    """Drives every session of the workload to its stop on daemon d:
    create → (step, summary query[, nodes query]) until stop → close,
    leaving the last `kept` sessions open."""
    sessions = wl.sessions(slot)
    started = time.perf_counter()
    for index, params in enumerate(sessions):
        created = st.call_json(d, "session.create", "session.create", params)
        if st.first_reply_at is None:
            st.first_reply_at = time.perf_counter()
        sid = created["session"]
        first_step_at = None
        for step_no in range(1, MAX_STEPS_PER_SESSION + 1):
            sent = time.perf_counter()
            first_step_at = first_step_at or sent
            snapshot = st.call_json(d, "session.step", "session.step",
                                    {"session": sid, "rounds": wl.step_rounds})["snapshot"]
            stopped_at = time.perf_counter()
            reply = st.call(d, "session.query", "session.query", {"session": sid})
            st.last_query[sid] = result_bytes(reply)
            st.check(json.loads(reply)["result"]["snapshot"] == snapshot,
                     "summary query differs from the step's snapshot")
            stopped = snapshot["stop"] is not None
            queries = wl.stop_queries if stopped else (1 if step_no % wl.nodes_every == 0 else 0)
            for _ in range(queries):
                reply = st.call(d, "session.query.nodes", "session.query",
                                {"session": sid, "nodes": True})
                check_nodes_reply(st, reply, snapshot)
            if stopped:
                st.tte.append(stopped_at - first_step_at)
                break
        else:
            st.check(False, f"session {sid} did not stop within {MAX_STEPS_PER_SESSION} steps")
        st.finals.append(final_fields(snapshot))
        if index < len(sessions) - wl.kept:
            closed = st.call_json(d, "session.close", "session.close", {"session": sid})
            st.check(closed.get("closed") is True, f"session {sid} did not close")
    st.wall = time.perf_counter() - started


def check_goldens(st, golden):
    st.attempted += 1
    if golden is None:
        st.failed += 1
        raise CheckFailed("no recorded outputs for this workload and slot")
    if st.finals != golden["finals"]:
        st.failed += 1
        raise CheckFailed(f"final snapshots differ from the recorded ones: {st.finals[:2]} vs "
                          f"{golden['finals'][:2]}")
    st.attempted += 1
    if st.digest.hexdigest() != golden["digest"]:
        st.failed += 1
        raise CheckFailed("reply stream differs from the recorded one")


def recover_plain(binary, rundir, wl, slot, prior, st):
    """Without a state dir a crash loses the session: the client respawns
    the daemon, recreates the session and replays its rounds in one
    step. Returns seconds from respawn to the query reply that matches
    the last one before the kill."""
    d = Daemon(binary, rundir)
    try:
        st.call(d, "recover", "session.create", wl.sessions(slot)[0])
        st.call(d, "recover", "session.step", {"session": 1, "rounds": prior.finals[0][0]})
        reply = st.call(d, "recover", "session.query", {"session": 1})
        elapsed = time.perf_counter() - d.spawned_at
        st.check(result_bytes(reply) == prior.last_query[1], "replayed session differs")
    finally:
        d.kill()
    return elapsed


def restart_durable(binary, rundir, state_dir, wl, prior, st):
    """Respawns bcountd on the killed daemon's state dir. Returns seconds
    from respawn to the first query reply, which must match the last one
    before the kill byte for byte; then checks the other kept sessions
    and the recovery counters."""
    kept = range(len(prior.finals) - wl.kept + 1, len(prior.finals) + 1)
    d = Daemon(binary, rundir, wl.daemon_args(state_dir))
    elapsed = None
    try:
        for sid in kept:
            reply = st.call(d, "recover", "session.query", {"session": sid})
            elapsed = elapsed or time.perf_counter() - d.spawned_at
            st.check(result_bytes(reply) == prior.last_query[sid],
                     f"session {sid} differs after restart")
        rec = st.call_json(d, "recover", "daemon.info", {})["recovery"]
        st.check(rec["recovered_sessions"] == wl.kept and rec["failed_sessions"] == 0
                 and rec["snapshot_mismatches"] == 0, f"recovery counters: {rec}")
    finally:
        d.kill()
    return elapsed


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Totals:
    """Samples and counters accumulated over one run."""

    def __init__(self):
        self.setup, self.tte, self.hwm, self.recovery = [], [], [], []
        self.step, self.nodes = [], []
        self.requests = 0
        self.stream_wall = 0.0
        self.daemon_cpu = 0.0
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def counting(self, keep=False):
        """A fresh Stream whose operations count toward the run's
        attempted and failed totals however its block ends."""
        st = Stream(keep)
        try:
            yield st
        finally:
            self.attempted += st.attempted
            self.failed += st.failed

    def add_stream(self, st, d):
        self.setup.append(st.first_reply_at - d.spawned_at)
        # A total over the stream's sessions: per-session times cluster by
        # round count, and a median over them jumps between clusters.
        self.tte.append(sum(st.tte))
        self.step.extend(r for k, r in zip(st.kinds, st.rtts) if k == "session.step")
        self.nodes.extend(r for k, r in zip(st.kinds, st.rtts) if k == "session.query.nodes")
        self.requests += len(st.rtts)
        self.stream_wall += st.wall


def setup_probe(binary, rundir, wl, slot, st):
    """Spawn, create the first session, kill: one setup_s sample."""
    state = fresh(os.path.join(rundir, "probe-state"))
    d = Daemon(binary, rundir, wl.daemon_args(state))
    try:
        st.call(d, "session.create", "session.create", wl.sessions(slot)[0])
        return time.perf_counter() - d.spawned_at
    finally:
        d.kill()


def measure(binary, rundir, wl, slot, seconds, goldens, tot, log):
    """The untraced run: end-to-end metrics plus noise diagnostics.

    Stream k runs input set (slot + k) mod SLOTS, so every run's medians
    mix several sets: sets differ in rounds, traffic and memory, and a
    run pinned to one set would carry that set's figures, not the
    program's. The run is bounded by time, not by a cycle count, so a
    slow host takes fewer samples rather than a longer run."""
    cpu_before = benchlib.read_cpu_times()
    started = time.perf_counter()
    Daemon(binary, rundir).kill()  # warm the binary and the socket path
    with tot.counting() as st:
        probes = [setup_probe(binary, rundir, wl, (slot + k) % SLOTS, st)
                  for k in range(wl.extra_setups)]
    fewest, most = wl.cycles
    cycle, first = 0, time.perf_counter()
    while cycle != most:
        now = time.perf_counter()
        if cycle >= fewest and now - started + (now - first) / cycle > seconds:
            break
        inputs = (slot + cycle) % SLOTS
        state = fresh(os.path.join(rundir, f"state-{cycle}"))
        with tot.counting() as st:
            d = Daemon(binary, rundir, wl.daemon_args(state))
            try:
                run_stream(d, wl, inputs, st)
                tot.hwm.append(d.hwm_mb())
                tot.daemon_cpu += d.cpu_s()
                tot.add_stream(st, d)
            finally:
                d.kill()
            check_goldens(st, goldens.get(str(inputs)))
        with tot.counting() as rst:
            for _ in range(wl.restarts):
                tot.recovery.append(restart_durable(binary, rundir, state, wl, st, rst)
                                    if wl.durable else
                                    recover_plain(binary, rundir, wl, inputs, st, rst))
        shutil.rmtree(state)
        cycle += 1
    tot.setup.extend(probes)
    wall = time.perf_counter() - started
    steal = benchlib.steal_share(cpu_before, benchlib.read_cpu_times())
    tail_p = benchlib.tail_percentile(len(tot.step))
    if tail_p is None:
        raise CheckFailed(f"only {len(tot.step)} step samples; a tail needs more")
    metrics = {
        "setup_s": (benchlib.median(tot.setup), "s"),
        # The mean over streams, i.e. a total over the run's whole stream
        # work: a stream lasts 2-4 s, about as long as the host's fast and
        # slow spells, so a median of a few of them follows the spells.
        "time_to_estimate_s": (sum(tot.tte) / len(tot.tte), "s"),
        "peak_rss_mb": (benchlib.median(tot.hwm), "MB"),
        "step_p50_ms": (benchlib.median(tot.step) * 1e3, "ms"),
        "step_tail_ms": (benchlib.percentile(tot.step, tail_p) * 1e3, "ms"),
        "req_per_s": (tot.requests / tot.stream_wall, "1/s"),
        # Also a mean: single restarts of identical work spread by a third
        # within one run, and a median of 4-12 of them followed that.
        "recovery_s": (sum(tot.recovery) / len(tot.recovery), "s"),
    }
    log(f"samples: setup {len(tot.setup)}, time_to_estimate {len(tot.tte)}, "
        f"peak_rss {len(tot.hwm)}, step {len(tot.step)} (tail = p{tail_p}), "
        f"nodes query {len(tot.nodes)}, recovery {len(tot.recovery)}, "
        f"requests {tot.requests}")
    log(json.dumps({"diagnostics": {
        "wall_s": wall, "steal_share": steal, "daemon_cpu_s": tot.daemon_cpu,
        "stream_wall_s": tot.stream_wall,
        # Not gated: 1-3 ms nodes reads moved up to 29% between identical
        # ten-run sets, beyond any usable bound (see README.md).
        "nodes_query_p50_ms": benchlib.median(tot.nodes) * 1e3,
        "daemon_cpu_per_stream_s": tot.daemon_cpu / tot.stream_wall,
        "streams": cycle, "restarts": len(tot.recovery)}}))
    return metrics


# ---------------------------------------------------------------------------
# Traced run


METHODS = ("session.create", "session.step", "session.query", "session.query.nodes",
           "session.close")


def med(values, scale):
    return benchlib.median(values) * scale


def layer_metrics(spans, summary, st):
    """Per-layer metrics from the tracer's spans and summary, paired with
    the socket stream `st` request by request."""
    kids = benchlib.children_of(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durs(name, scale):
        return med([s.duration for s in by_name.get(name, [])], scale / 1e9)

    rounds = by_name.get("sim.round", [])
    adversary = [sum(c.duration for c in kids.get(r.id, [])) for r in rounds]
    round_self = [benchlib.self_time(r, kids) for r in rounds]
    compute = summary["compute_round_ns"]
    m = {
        "graph.gen_s": (durs("graph.gen", 1), "s"),
        "sim.build_s": (durs("sim.build", 1), "s"),
        "sim.round_ms": (durs("sim.round", 1e3), "ms"),
        "sim.round_self_ms": (med(round_self, 1e-6), "ms"),
        "sim.rounds": (summary["rounds"], "count"),
        "sim.messages": (summary["messages"], "count"),
        "sim.bits": (summary["bits"], "count"),
        "core.adversary_ms": (med(adversary, 1e-6), "ms"),
        # With an adversary typed to the concrete protocol the protocol
        # cannot be wrapped; its compute then stays inside the round's
        # self time, which is reported in its place.
        "proto.compute_ms": (med(compute if compute is not None else round_self, 1e-6), "ms"),
        "sim.snapshot_ms": (durs("sim.snapshot", 1e3), "ms"),
        "sim.node_states_ms": (durs("sim.node_states", 1e3), "ms"),
        "json.encode_snapshot_us": (durs("json.encode_snapshot", 1e6), "us"),
        "json.encode_nodes_ms": (durs("json.encode_nodes", 1e3), "ms"),
        "json.parse_request_us": (durs("json.parse_request", 1e6), "us"),
    }
    handle = {s.request: s for s in spans if s.name.startswith("daemon.handle.")}
    requests = {s.request: s for s in spans if s.name.startswith("request.")}
    transport = []
    unattributed = {k: [] for k in METHODS}
    for i, (kind, rtt) in enumerate(zip(st.kinds, st.rtts)):
        # Summary queries do almost no work, so their round trip minus
        # handle_line is the transport and client share.
        if i in handle and kind == "session.query":
            transport.append(rtt * 1e9 - handle[i].duration)
        if i in requests and kind in unattributed:
            child = sum(c.duration for c in kids.get(requests[i].id, []))
            unattributed[kind].append(rtt * 1e9 - child)
    for kind in METHODS:
        m[f"daemon.handle_ms.{kind}"] = (durs(f"daemon.handle.{kind}", 1e3), "ms")
    m["daemon.transport_us"] = (med(transport, 1e-3), "us")
    for kind in METHODS:
        m[f"daemon.unattributed_ms.{kind}"] = (med(unattributed[kind], 1e-6), "ms")
    rec = summary["recovery"]
    m.update({
        "journal.append_us": (durs("journal.append", 1e6), "us"),
        "journal.commit_us": (durs("journal.commit", 1e6), "us"),
        "journal.checkpoint_ms": (durs("journal.checkpoint", 1e3), "ms"),
        "journal.records": (summary["journal_records"], "count"),
        "journal.bytes": (summary["journal_bytes"], "B"),
        "recovery.load_ms": (summary["recovery_load_s"] * 1e3, "ms"),
        "recovery.replay_s": (summary["recovery_open_s"] - summary["recovery_load_s"], "s"),
        "recovery.replayed_records": (rec["replayed_records"], "count"),
        "recovery.replayed_rounds": (rec["replayed_rounds"], "count"),
        "recovery.recovered_sessions": (rec["recovered_sessions"], "count"),
        "trace.overhead_s": (summary["traced_wall_s"] - summary["plain_wall_s"], "s"),
    })
    return m


def trace(binary, tracer, rundir, wl, slot, golden, tot, log):
    """The traced run: one socket stream, then the tracer replays the
    same request lines in process."""
    with tot.counting(keep=True) as st:
        return traced_stream(binary, tracer, rundir, wl, slot, golden, st, log)


def traced_stream(binary, tracer, rundir, wl, slot, golden, st, log):
    state = fresh(os.path.join(rundir, "state-trace"))
    d = Daemon(binary, rundir, wl.daemon_args(state))
    try:
        run_stream(d, wl, slot, st)
    finally:
        d.kill()
    check_goldens(st, golden)
    stream_path = os.path.join(rundir, "stream.txt")
    with open(stream_path, "wb") as f:
        f.writelines(st.lines)
    out = fresh(os.path.join(rundir, "trace"))
    cmd = [tracer, "--stream", stream_path, "--out", out,
           "--scratch", fresh(os.path.join(rundir, "trace-scratch"))]
    if wl.durable:
        cmd.append("--durable")
    subprocess.run(cmd, check=True, timeout=TRACER_TIMEOUT_S)
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    with open(os.path.join(out, "spans.tsv")) as f:
        spans = benchlib.parse_spans(f.read())
    with open(os.path.join(out, "replies.txt"), "rb") as f:
        replies = f.read().split(b"\n")[:-1]
    mismatched = sum(a != b for a, b in zip(replies, st.replies))
    mismatched += abs(len(replies) - len(st.replies))
    st.attempted += len(st.replies)
    st.failed += mismatched
    counts = [sum(f[FINAL_FIELDS.index(k)] for f in st.finals)
              for k in ("round", "messages_total", "bits_total")]
    checks = {
        "in-process replies equal socket replies": mismatched == 0,
        "typed snapshots equal the server's": summary["snapshot_mismatches"] == 0,
        "typed node states equal the server's": summary["nodes_mismatches"] == 0,
        "typed rounds/messages/bits equal the socket run's":
            counts == [summary["rounds"], summary["messages"], summary["bits"]],
        "mirrored journal equals the server's": summary["mirror_identical"] in (None, True),
        "recovery rebuilt every session": summary["recovery"]["failed_sessions"] == 0
            and summary["recovery"]["snapshot_mismatches"] == 0,
    }
    for what, ok in checks.items():
        st.attempted += 1
        if not ok:
            st.failed += 1
            log(f"check failed: {what}")
    metrics = layer_metrics(spans, summary, st)
    log(f"traced: {len(spans)} spans over {summary['requests']} requests; "
        f"untraced in-process wall {summary['plain_wall_s']:.3f} s, traced "
        f"{summary['traced_wall_s']:.3f} s, socket stream {st.wall:.3f} s")
    if summary["compute_round_ns"] is None:
        log("note: proto.compute_ms is not separable here (the adversary is typed to the "
            "concrete protocol); it reports engine + protocol time, as sim.round_self_ms does")
    else:
        log(f"protocol-timed pass: {summary['compute_wall_s']:.3f} s (its per-call clock "
            "reads make it slower than the traced pass; only proto.compute_ms comes from it)")
    if summary["forced_checkpoint"]:
        log("note: the stream triggers no checkpoint; journal.checkpoint_ms times one "
            "checkpoint of its end state")
    if not wl.durable:
        log("note: this workload runs without --state-dir; journal.* and recovery.* time "
            "what the journal would cost on its record stream")
    log("unattributed remainder per method (socket latency minus child spans, ms): " +
        ", ".join(f"{k} {metrics['daemon.unattributed_ms.' + k][0]:.3f}" for k in METHODS))
    return metrics
