//! `bcount-trace`: replays one recorded `bcountd` request stream in
//! process and records spans around the calls into each layer.
//!
//! ```text
//! bcount-trace --stream FILE --out DIR --scratch DIR [--durable]
//! ```
//!
//! `FILE` holds the request lines exactly as a client sent them to a
//! `bcountd` socket. The tool makes five passes over them:
//!
//! 1. **server** — `Server::handle_line` per line, durable on a fresh
//!    state dir under `--durable` (what `bcountd --state-dir --fsync
//!    batch` runs). Beside it a mirror `Journal` is fed the record stream
//!    the server writes, so `append`, `commit_batch` and
//!    `write_checkpoint` can be timed one by one. Replies go to
//!    `DIR/replies.txt` for a byte comparison against the socket replies.
//! 2. **recovery** — `journal::load_state`, then `Server::open_durable`
//!    on the journal the stream left behind.
//! 3. **plain** — the same requests against typed executions built the
//!    way `SessionSpec::build` builds them, with no spans: the untraced
//!    baseline for the tracing overhead.
//! 4. **traced** — pass 3 again with a forwarding wrapper around the
//!    adversary and a span around every layer call.
//! 5. **compute** — pass 3 again with a forwarding wrapper around the
//!    protocol, summing its `on_round` time per round. Only possible
//!    where the adversary is generic over the protocol (`silent`); the
//!    others are typed to the concrete protocol and cannot be paired
//!    with a wrapped one.
//!
//! Spans go to `DIR/spans.tsv` (`id parent name start_ns end_ns
//! request`). Counts, per-round protocol times and checks go to
//! `DIR/summary.json`. The benchmark's `run.py` turns both into the
//! per-layer metrics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bcount_baselines::GeometricMax;
use bcount_core::adversary::EdgeInjectorAdversary;
use bcount_core::congest::{CongestCounting, CongestParams};
use bcount_core::local::{LocalConfig, LocalCounting};
use bcount_daemon::journal::{self, Checkpoint, CheckpointSession, RecordBody};
use bcount_daemon::server::DurabilityOptions;
use bcount_daemon::{FsyncPolicy, Journal, Request, Server, ServerLimits};
use bcount_graph::gen::{cycle, hnd};
use bcount_graph::{Graph, NodeId};
use bcount_json::{opt_field, FromJson, Json, ToJson};
use bcount_sim::{
    Adversary, ByzantineContext, Execution, ExecutionSnapshot, FaultPlan, FullInfoView,
    NodeContext, NodeInit, NodeState, NullAdversary, PhaseSend, PhaseShared, Protocol, SimConfig,
    StopWhen,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Journal settings of the daemon under test (`bcountd` defaults).
const CHECKPOINT_EVERY: u64 = 256;

thread_local! {
    /// Adversary calls of the current round, as (start, end) instants.
    static ADV_CALLS: RefCell<Vec<(Instant, Instant)>> = const { RefCell::new(Vec::new()) };
    /// Summed protocol `on_round` time of the current round, in ns.
    static PROTO_NS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the wrapped adversary and records when it ran. Keeps
/// `observes_traffic`, so the engine picks the same pipeline.
struct TimedAdversary<A>(A);

impl<P: Protocol, A: Adversary<P>> Adversary<P> for TimedAdversary<A> {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, P::Message>) {
        let start = Instant::now();
        self.0.on_round(view, ctx);
        let end = Instant::now();
        ADV_CALLS.with(|calls| calls.borrow_mut().push((start, end)));
    }

    fn observes_traffic(&self) -> bool {
        self.0.observes_traffic()
    }
}

/// Forwards to the wrapped protocol and sums its `on_round` time. Keeps
/// `QUIESCENT_ON_SILENCE`, so the engine keeps its sparse schedule.
struct TimedProtocol<P>(P);

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Message = P::Message;
    type Output = P::Output;
    const QUIESCENT_ON_SILENCE: bool = P::QUIESCENT_ON_SILENCE;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>) {
        let start = Instant::now();
        self.0.on_round(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        PROTO_NS.with(|total| total.set(total.get() + ns));
    }

    fn output(&self) -> Option<Self::Output> {
        self.0.output()
    }

    fn has_halted(&self) -> bool {
        self.0.has_halted()
    }
}

struct Span {
    parent: usize,
    name: String,
    start: u64,
    end: u64,
    request: usize,
}

/// In-memory span recorder; with `on == false` it records nothing.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; returns its id (0 when tracing is off).
    fn enter(&mut self, name: &str, request: usize) -> usize {
        if !self.on {
            return 0;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            parent,
            name: name.to_owned(),
            start,
            end: start,
            request,
        });
        let id = self.spans.len();
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id - 1].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    fn span<T>(&mut self, name: &str, request: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a finished child of `parent` with explicit bounds.
    fn child(&mut self, parent: usize, name: &str, start: u64, end: u64) {
        let request = self.spans[parent - 1].request;
        self.spans.push(Span {
            parent,
            name: name.to_owned(),
            start,
            end,
            request,
        });
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.name,
                s.start,
                s.end,
                s.request
            )?;
        }
        out.flush()
    }
}

/// One typed execution, driven the way the daemon drives its erased one.
trait Typed {
    /// One `step_rounds(1)` call; true once the execution has stopped.
    /// Protocol time of the round goes to `compute_ns` when the protocol
    /// is wrapped.
    fn step_round(&mut self, tr: &mut Tracer, request: usize, compute_ns: &mut Vec<u64>) -> bool;
    fn snapshot(&self) -> ExecutionSnapshot;
    fn node_states(&self) -> Vec<NodeState>;
}

struct TypedExec<P: Protocol, A> {
    exec: Execution<Graph, P, A>,
    raw: fn(&P::Output) -> f64,
    protocol_timed: bool,
}

impl<P, A> Typed for TypedExec<P, A>
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    fn step_round(&mut self, tr: &mut Tracer, request: usize, compute_ns: &mut Vec<u64>) -> bool {
        PROTO_NS.with(|total| total.set(0));
        ADV_CALLS.with(|calls| calls.borrow_mut().clear());
        let id = tr.enter("sim.round", request);
        let stopped = self.exec.step_rounds(1).is_some();
        tr.exit(id);
        if tr.on {
            let calls: Vec<(Instant, Instant)> =
                ADV_CALLS.with(|calls| std::mem::take(&mut *calls.borrow_mut()));
            for (start, end) in calls {
                let (s, e) = (tr.ns(start), tr.ns(end));
                tr.child(id, "core.adversary", s, e);
            }
        }
        if self.protocol_timed {
            compute_ns.push(PROTO_NS.with(Cell::get));
        }
        stopped
    }

    fn snapshot(&self) -> ExecutionSnapshot {
        self.exec.snapshot_with(self.raw)
    }

    fn node_states(&self) -> Vec<NodeState> {
        self.exec.node_states_with(self.raw)
    }
}

fn typed<P, A>(
    graph: Graph,
    byz: &[NodeId],
    factory: impl FnMut(NodeId, &NodeInit) -> P,
    adversary: A,
    config: SimConfig,
    raw: fn(&P::Output) -> f64,
    protocol_timed: bool,
) -> Box<dyn Typed>
where
    P: Protocol + PhaseSend + 'static,
    P::Message: PhaseShared,
    A: Adversary<P> + 'static,
{
    Box::new(TypedExec {
        exec: Execution::new(graph, byz, factory, adversary, config),
        raw,
        protocol_timed,
    })
}

/// Which timing wrapper typed executions carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// None: the untraced baseline.
    Plain,
    /// The adversary, called once per round.
    Adversary,
    /// The protocol, called once per node and round. Its clock reads
    /// cost more than short `on_round` calls, so this runs as a pass of
    /// its own and leaves the other spans undisturbed.
    Protocol,
}

/// The `session.create` params the benchmark's workloads use, with
/// `SessionSpec::from_params`'s defaults.
struct Spec {
    family: String,
    n: usize,
    protocol: String,
    adversary: String,
    byzantine: usize,
    seed: u64,
    max_rounds: u64,
    budget: u64,
    fault: Option<FaultPlan>,
}

impl Spec {
    fn parse(params: &Json) -> Result<Spec, String> {
        let e = |e: bcount_json::JsonError| e.to_string();
        if params.get("byzantine_at").is_some() {
            return Err("byzantine_at is not replayed by the tracer".into());
        }
        Ok(Spec {
            family: opt_field(params, "family")
                .map_err(e)?
                .unwrap_or_else(|| "hnd(d=8)".into()),
            n: opt_field(params, "n").map_err(e)?.ok_or("missing n")?,
            protocol: opt_field(params, "protocol")
                .map_err(e)?
                .ok_or("missing protocol")?,
            adversary: opt_field(params, "adversary")
                .map_err(e)?
                .unwrap_or_else(|| "silent".into()),
            byzantine: opt_field(params, "byzantine").map_err(e)?.unwrap_or(0),
            seed: opt_field(params, "seed").map_err(e)?.unwrap_or(0xC0DE),
            max_rounds: opt_field(params, "max_rounds")
                .map_err(e)?
                .unwrap_or(10_000),
            budget: opt_field(params, "budget").map_err(e)?.unwrap_or(40),
            fault: opt_field(params, "fault").map_err(e)?,
        })
    }

    /// `SessionSpec`'s generation rule: graph from
    /// `ChaCha8Rng::seed_from_u64(seed)`.
    fn generate(&self) -> Result<Graph, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        if self.family == "cycle" {
            return cycle(self.n).map_err(|e| e.to_string());
        }
        let d = self
            .family
            .strip_prefix("hnd(d=")
            .and_then(|s| s.strip_suffix(')'))
            .and_then(|d| d.parse::<usize>().ok())
            .ok_or_else(|| format!("family '{}' is not replayed by the tracer", self.family))?;
        hnd(self.n, d, &mut rng).map_err(|e| e.to_string())
    }

    /// `SessionSpec`'s spread placement: every `⌊n/count⌋`-th node.
    fn byzantine_nodes(&self, n: usize) -> Vec<NodeId> {
        let stride = (n / self.byzantine.max(1)).max(1);
        (0..self.byzantine)
            .map(|k| NodeId(((k * stride) % n) as u32))
            .collect()
    }

    fn config(&self, stop_when: StopWhen) -> SimConfig {
        let mut builder = SimConfig::builder()
            .seed(self.seed)
            .max_rounds(self.max_rounds)
            .stop_when(stop_when);
        if let Some(plan) = &self.fault {
            builder = builder.fault_plan(plan.clone());
        }
        builder.build().expect("workload configs are consistent")
    }

    /// The protocol × adversary pairings of `SessionSpec`, typed, with
    /// the wrapper `mode` asks for; `None` when the mode cannot apply
    /// (a protocol under an adversary typed to it cannot be wrapped).
    fn build(&self, graph: Graph, mode: Mode) -> Result<Option<Box<dyn Typed>>, String> {
        let byz = self.byzantine_nodes(graph.len());
        let params = CongestParams::default();
        let congest_raw: fn(&bcount_core::congest::CongestEstimate) -> f64 =
            |e| f64::from(e.estimate);
        let local_raw: fn(&bcount_core::local::LocalEstimate) -> f64 = |e| f64::from(e.radius);
        let geo_raw: fn(&u32) -> f64 = |v| f64::from(*v);
        let budget = self.budget;
        Ok(Some(
            match (self.protocol.as_str(), self.adversary.as_str(), mode) {
                (_, "edge-injector", Mode::Protocol) => return Ok(None),
                ("congest", "silent", Mode::Plain) => typed(
                    graph,
                    &byz,
                    |_, init: &NodeInit| CongestCounting::new(params, init),
                    NullAdversary,
                    self.config(StopWhen::AllHonestDecided),
                    congest_raw,
                    false,
                ),
                ("congest", "silent", Mode::Adversary) => typed(
                    graph,
                    &byz,
                    |_, init: &NodeInit| CongestCounting::new(params, init),
                    TimedAdversary(NullAdversary),
                    self.config(StopWhen::AllHonestDecided),
                    congest_raw,
                    false,
                ),
                ("congest", "silent", Mode::Protocol) => typed(
                    graph,
                    &byz,
                    |_, init: &NodeInit| TimedProtocol(CongestCounting::new(params, init)),
                    NullAdversary,
                    self.config(StopWhen::AllHonestDecided),
                    congest_raw,
                    true,
                ),
                ("local", "edge-injector", Mode::Plain) => typed(
                    graph,
                    &byz,
                    |_, init: &NodeInit| LocalCounting::new(LocalConfig::default(), init),
                    EdgeInjectorAdversary::new(self.seed),
                    self.config(StopWhen::AllHonestHalted),
                    local_raw,
                    false,
                ),
                ("local", "edge-injector", Mode::Adversary) => typed(
                    graph,
                    &byz,
                    |_, init: &NodeInit| LocalCounting::new(LocalConfig::default(), init),
                    TimedAdversary(EdgeInjectorAdversary::new(self.seed)),
                    self.config(StopWhen::AllHonestHalted),
                    local_raw,
                    false,
                ),
                ("geometric-max", "silent", Mode::Plain) => typed(
                    graph,
                    &byz,
                    move |_, init: &NodeInit| GeometricMax::new(budget, init),
                    NullAdversary,
                    self.config(StopWhen::AllHonestHalted),
                    geo_raw,
                    false,
                ),
                ("geometric-max", "silent", Mode::Adversary) => typed(
                    graph,
                    &byz,
                    move |_, init: &NodeInit| GeometricMax::new(budget, init),
                    TimedAdversary(NullAdversary),
                    self.config(StopWhen::AllHonestHalted),
                    geo_raw,
                    false,
                ),
                ("geometric-max", "silent", Mode::Protocol) => typed(
                    graph,
                    &byz,
                    move |_, init: &NodeInit| TimedProtocol(GeometricMax::new(budget, init)),
                    NullAdversary,
                    self.config(StopWhen::AllHonestHalted),
                    geo_raw,
                    true,
                ),
                (p, a, _) => {
                    return Err(format!("pairing {p} × {a} is not replayed by the tracer"))
                }
            },
        ))
    }
}

fn parse_request(line: &str) -> Result<Request, String> {
    let json = Json::parse(line).map_err(|e| e.to_string())?;
    Request::from_json(&json).map_err(|e| e.to_string())
}

/// Span name of a request: its method, with `.nodes` for a
/// `session.query` that asks for per-node rows.
fn request_kind(request: &Request) -> String {
    let nodes = opt_field::<bool>(&request.params, "nodes")
        .ok()
        .flatten()
        .unwrap_or(false);
    if request.method == "session.query" && nodes {
        "session.query.nodes".into()
    } else {
        request.method.clone()
    }
}

fn u64_field(params: &Json, key: &str) -> Result<u64, String> {
    opt_field::<u64>(params, key)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("missing '{key}'"))
}

/// A second journal fed the record stream `Server` writes for each
/// request, so each journal call can be timed.
struct Mirror {
    dir: PathBuf,
    journal: Journal,
    sessions: BTreeMap<u64, CheckpointSession>,
    next_id: u64,
    records: u64,
    bytes: u64,
    checkpoints: u64,
}

impl Mirror {
    fn open(dir: &Path) -> std::io::Result<Mirror> {
        Ok(Mirror {
            dir: dir.to_path_buf(),
            journal: Journal::open(dir, FsyncPolicy::Batch, CHECKPOINT_EVERY, 1, 0, 0)?,
            sessions: BTreeMap::new(),
            next_id: 0,
            records: 0,
            bytes: 0,
            checkpoints: 0,
        })
    }

    fn journal_len(&self) -> u64 {
        fs::metadata(self.dir.join("journal.log")).map_or(0, |m| m.len())
    }

    fn append(&mut self, tr: &mut Tracer, request: usize, body: RecordBody) -> std::io::Result<()> {
        let before = self.journal_len();
        let id = tr.enter("journal.append", request);
        let res = self.journal.append(body);
        tr.exit(id);
        res?;
        self.records += 1;
        self.bytes += self.journal_len().saturating_sub(before);
        Ok(())
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            lsn: self.journal.next_lsn() - 1,
            next_id: self.next_id,
            sessions: self.sessions.values().cloned().collect(),
        }
    }

    /// `Server::journal_commit`: a checkpoint when one is due, then the
    /// batch fsync.
    fn commit(&mut self, tr: &mut Tracer, request: usize) -> std::io::Result<()> {
        if self.journal.should_checkpoint() {
            let checkpoint = self.checkpoint();
            let id = tr.enter("journal.checkpoint", request);
            let res = self.journal.write_checkpoint(&checkpoint);
            tr.exit(id);
            res?;
            self.checkpoints += 1;
            self.bytes += fs::metadata(self.dir.join("checkpoint.json")).map_or(0, |m| m.len());
        }
        let id = tr.enter("journal.commit", request);
        let res = self.journal.commit_batch();
        tr.exit(id);
        res
    }

    /// Mirrors the records one successful request makes the server write.
    fn apply(
        &mut self,
        tr: &mut Tracer,
        i: usize,
        request: &Request,
        reply: &Json,
    ) -> Result<(), String> {
        let Some(result) = reply.get("result") else {
            return Ok(());
        };
        let io = |e: std::io::Error| e.to_string();
        let params = &request.params;
        match request.method.as_str() {
            "session.create" => {
                self.append(
                    tr,
                    i,
                    RecordBody::CreateIntent {
                        params: params.clone(),
                    },
                )
                .map_err(io)?;
                let session = u64_field(result, "session")?;
                let snapshot = result.get("snapshot").cloned().unwrap_or(Json::Null);
                self.next_id = session;
                self.sessions.insert(
                    session,
                    CheckpointSession {
                        session,
                        params: params.clone(),
                        round: 0,
                        poisoned: None,
                        snapshot,
                    },
                );
                self.append(
                    tr,
                    i,
                    RecordBody::CreateApplied {
                        session,
                        params: params.clone(),
                    },
                )
                .map_err(io)?;
                self.commit(tr, i).map_err(io)
            }
            "session.step" => {
                let session = u64_field(params, "session")?;
                let rounds = opt_field::<u64>(params, "rounds")
                    .map_err(|e| e.to_string())?
                    .unwrap_or(1);
                self.append(tr, i, RecordBody::StepIntent { session, rounds })
                    .map_err(io)?;
                let stepped = u64_field(result, "stepped")?;
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.round += stepped;
                    s.snapshot = result.get("snapshot").cloned().unwrap_or(Json::Null);
                }
                self.append(tr, i, RecordBody::StepApplied { session, stepped })
                    .map_err(io)?;
                self.commit(tr, i).map_err(io)
            }
            "session.close" => {
                let session = u64_field(params, "session")?;
                self.append(tr, i, RecordBody::CloseIntent { session })
                    .map_err(io)?;
                self.sessions.remove(&session);
                self.append(tr, i, RecordBody::CloseApplied { session })
                    .map_err(io)?;
                self.commit(tr, i).map_err(io)
            }
            _ => Ok(()),
        }
    }
}

fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        fs::remove_dir_all(path)?;
    }
    fs::create_dir_all(path)
}

fn same_file(a: &Path, b: &Path) -> bool {
    match (fs::read(a), fs::read(b)) {
        (Ok(x), Ok(y)) => x == y,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// What the typed passes found, beyond their spans.
#[derive(Default)]
struct TypedOutcome {
    /// Sum over requests of their wall time (checks excluded).
    wall_s: f64,
    snapshot_mismatches: u64,
    nodes_mismatches: u64,
    /// Per-round protocol time, in ns (protocol-wrapped passes only).
    compute_ns: Vec<u64>,
    rounds: u64,
    messages: u64,
    bits: u64,
}

/// Passes 3 to 5: the request stream against typed executions carrying
/// the wrappers of `mode` (the tracer's `on` decides whether spans are
/// kept). `None` when the mode cannot wrap one of the stream's sessions.
fn typed_pass(
    lines: &[String],
    replies: &[String],
    tr: &mut Tracer,
    mode: Mode,
) -> Result<Option<TypedOutcome>, String> {
    let mut out = TypedOutcome::default();
    let mut sessions: BTreeMap<u64, (Box<dyn Typed>, ExecutionSnapshot)> = BTreeMap::new();
    let mut finals: BTreeMap<u64, ExecutionSnapshot> = BTreeMap::new();
    let mut next_id = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let started = Instant::now();
        let kind = parse_request(line).map(|r| request_kind(&r))?;
        let rid = tr.enter(&format!("request.{kind}"), i);
        let request = tr.span("json.parse_request", i, || parse_request(line))?;
        let params = &request.params;
        // (rendered snapshot, rendered nodes) the reply must contain.
        let mut expect: (Option<String>, Option<String>) = (None, None);
        match kind.as_str() {
            "session.create" => {
                let spec = Spec::parse(params)?;
                let graph = tr.span("graph.gen", i, || spec.generate())?;
                let Some(exec) = tr.span("sim.build", i, || spec.build(graph, mode))? else {
                    return Ok(None);
                };
                let snapshot = tr.span("sim.snapshot", i, || exec.snapshot());
                let text = tr.span("json.encode_snapshot", i, || {
                    snapshot.to_json().render().expect("snapshots are finite")
                });
                next_id += 1;
                sessions.insert(next_id, (exec, snapshot));
                expect.0 = Some(text);
            }
            "session.step" => {
                let id = u64_field(params, "session")?;
                let rounds = opt_field::<u64>(params, "rounds")
                    .map_err(|e| e.to_string())?
                    .unwrap_or(1);
                let (exec, cached) = sessions.get_mut(&id).ok_or("step on unknown session")?;
                for _ in 0..rounds {
                    if exec.step_round(tr, i, &mut out.compute_ns) {
                        break;
                    }
                }
                *cached = tr.span("sim.snapshot", i, || exec.snapshot());
                let text = tr.span("json.encode_snapshot", i, || {
                    cached.to_json().render().expect("snapshots are finite")
                });
                finals.insert(id, cached.clone());
                expect.0 = Some(text);
            }
            "session.query" | "session.query.nodes" => {
                let id = u64_field(params, "session")?;
                let (exec, cached) = sessions.get(&id).ok_or("query on unknown session")?;
                let text = tr.span("json.encode_snapshot", i, || {
                    cached.to_json().render().expect("snapshots are finite")
                });
                expect.0 = Some(text);
                if kind == "session.query.nodes" {
                    let nodes = tr.span("sim.node_states", i, || exec.node_states());
                    let text = tr.span("json.encode_nodes", i, || {
                        nodes.to_json().render().expect("node states are finite")
                    });
                    expect.1 = Some(text);
                }
            }
            "session.close" => {
                let id = u64_field(params, "session")?;
                let session = sessions.remove(&id).ok_or("close on unknown session")?;
                tr.span("sim.drop", i, || drop(session));
            }
            other => return Err(format!("method {other} is not replayed by the tracer")),
        }
        tr.exit(rid);
        out.wall_s += secs(started);
        let reply = replies.get(i).map_or("", String::as_str);
        if let Some(snapshot) = expect.0 {
            if !reply.contains(&format!("\"snapshot\":{snapshot}")) {
                out.snapshot_mismatches += 1;
            }
        }
        if let Some(nodes) = expect.1 {
            if !reply.contains(&format!("\"nodes\":{nodes}")) {
                out.nodes_mismatches += 1;
            }
        }
    }
    for snapshot in finals.values() {
        out.rounds += snapshot.round;
        out.messages += snapshot.messages_total;
        out.bits += snapshot.bits_total;
    }
    Ok(Some(out))
}

struct Args {
    stream: PathBuf,
    out: PathBuf,
    scratch: PathBuf,
    durable: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut stream, mut out, mut scratch, mut durable) = (None, None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stream" => stream = args.next().map(PathBuf::from),
            "--out" => out = args.next().map(PathBuf::from),
            "--scratch" => scratch = args.next().map(PathBuf::from),
            "--durable" => durable = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        stream: stream.ok_or("--stream is required")?,
        out: out.ok_or("--out is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
        durable,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let io = |e: std::io::Error| e.to_string();
    let text = fs::read_to_string(&args.stream).map_err(io)?;
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    fs::create_dir_all(&args.out).map_err(io)?;
    let server_dir = args.scratch.join("server");
    let mirror_dir = args.scratch.join("mirror");
    let spare_dir = args.scratch.join("spare");
    for dir in [&server_dir, &mirror_dir, &spare_dir] {
        fresh_dir(dir).map_err(io)?;
    }
    let opts = |dir: &Path| DurabilityOptions {
        state_dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Batch,
        checkpoint_every: CHECKPOINT_EVERY,
    };

    // Pass 1: the server, plus the mirrored journal.
    let mut tr = Tracer::new(true);
    let mut server = if args.durable {
        Server::open_durable(&opts(&server_dir), ServerLimits::default(), false).map_err(io)?
    } else {
        Server::with_limits(ServerLimits::default())
    };
    let mut mirror = Mirror::open(&mirror_dir).map_err(io)?;
    let mut replies = Vec::with_capacity(lines.len());
    let server_started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let request = parse_request(line)?;
        let id = tr.enter(&format!("daemon.handle.{}", request_kind(&request)), i);
        let reply = server.handle_line(line);
        tr.exit(id);
        let json = Json::parse(&reply).map_err(|e| e.to_string())?;
        mirror.apply(&mut tr, i, &request, &json)?;
        replies.push(reply);
    }
    let server_wall_s = secs(server_started);
    drop(server);
    let mirror_identical = args.durable.then(|| {
        same_file(
            &server_dir.join("journal.log"),
            &mirror_dir.join("journal.log"),
        ) && same_file(
            &server_dir.join("checkpoint.json"),
            &mirror_dir.join("checkpoint.json"),
        )
    });
    // A stream too short to trigger a checkpoint still gets one timed
    // checkpoint of its end state, in a dir recovery does not read.
    let forced_checkpoint = mirror.checkpoints == 0;
    if forced_checkpoint {
        let checkpoint = mirror.checkpoint();
        let mut spare =
            Journal::open(&spare_dir, FsyncPolicy::Batch, CHECKPOINT_EVERY, 1, 0, 0).map_err(io)?;
        let id = tr.enter("journal.checkpoint", lines.len().saturating_sub(1));
        spare.write_checkpoint(&checkpoint).map_err(io)?;
        tr.exit(id);
    }
    let (journal_records, journal_bytes, checkpoints) =
        (mirror.records, mirror.bytes, mirror.checkpoints);
    drop(mirror);
    {
        let mut file = BufWriter::new(fs::File::create(args.out.join("replies.txt")).map_err(io)?);
        for reply in &replies {
            writeln!(file, "{reply}").map_err(io)?;
        }
        file.flush().map_err(io)?;
    }

    // Pass 2: recovery of what the stream left on disk.
    let recover_dir = if args.durable {
        &server_dir
    } else {
        &mirror_dir
    };
    let t0 = Instant::now();
    let loaded = journal::load_state(recover_dir).map_err(io)?;
    let load_s = secs(t0);
    drop(loaded);
    let t1 = Instant::now();
    let recovered =
        Server::open_durable(&opts(recover_dir), ServerLimits::default(), false).map_err(io)?;
    let open_s = secs(t1);
    let stats = *recovered
        .recovery_stats()
        .expect("durable servers report recovery");
    drop(recovered);

    // Passes 3 to 5: typed executions, plain, traced, protocol-timed.
    let plain = typed_pass(&lines, &replies, &mut Tracer::new(false), Mode::Plain)?
        .expect("plain executions need no wrapper");
    let traced = typed_pass(&lines, &replies, &mut tr, Mode::Adversary)?
        .expect("every adversary can be wrapped");
    let compute = typed_pass(&lines, &replies, &mut Tracer::new(false), Mode::Protocol)?;
    tr.write(&args.out.join("spans.tsv")).map_err(io)?;
    let (compute_wall_s, compute_ns, compute_mismatches) = match &compute {
        Some(c) => (
            c.wall_s.to_json(),
            c.compute_ns.to_json(),
            c.snapshot_mismatches + c.nodes_mismatches,
        ),
        None => (Json::Null, Json::Null, 0),
    };

    let summary = Json::obj(vec![
        ("requests", lines.len().to_json()),
        ("server_wall_s", server_wall_s.to_json()),
        ("plain_wall_s", plain.wall_s.to_json()),
        ("traced_wall_s", traced.wall_s.to_json()),
        (
            "snapshot_mismatches",
            (plain.snapshot_mismatches + traced.snapshot_mismatches + compute_mismatches).to_json(),
        ),
        (
            "nodes_mismatches",
            (plain.nodes_mismatches + traced.nodes_mismatches).to_json(),
        ),
        ("compute_wall_s", compute_wall_s),
        ("compute_round_ns", compute_ns),
        ("rounds", traced.rounds.to_json()),
        ("messages", traced.messages.to_json()),
        ("bits", traced.bits.to_json()),
        ("journal_records", journal_records.to_json()),
        ("journal_bytes", journal_bytes.to_json()),
        ("checkpoints", checkpoints.to_json()),
        ("forced_checkpoint", forced_checkpoint.to_json()),
        (
            "mirror_identical",
            mirror_identical.map_or(Json::Null, |b| b.to_json()),
        ),
        ("recovery_load_s", load_s.to_json()),
        ("recovery_open_s", open_s.to_json()),
        ("recovery", stats.to_json()),
    ]);
    fs::write(
        args.out.join("summary.json"),
        summary.render().map_err(|e| e.to_string())?,
    )
    .map_err(io)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bcount-trace: {e}");
        std::process::exit(1);
    }
}
