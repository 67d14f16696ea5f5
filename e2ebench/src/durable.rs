//! `server-durable`: the deployed path. A `dce-server` runs inside this
//! process (its reactor, `Server::run`, on one thread) on a loopback port
//! with a fresh data directory and one hot document; one load thread
//! drives two collaborator connections, each a full client — a
//! [`dce_core::Engine`] replica behind a `dce_net::reliable` endpoint,
//! speaking `dce_net::frame` frames over TCP.
//!
//! The load is a closed loop: each client keeps at most [`WINDOW`] edits
//! unresolved, so a slower server receives less load instead of a
//! growing queue. The op mix is the CI mix — insert/delete/update/
//! delegated administrative proposal 50:25:15:10, a quarter of the
//! proposals restrictive (a revocation on a narrow range, which the
//! server turns into retroactive undo).
//!
//! Set-up is a restart: before timing, the benchmark writes a seeded
//! history — the session directory a durable server leaves behind, a
//! snapshot plus a journal suffix — and each timed set-up boots a server
//! over a copy of it, recovering it, until both collaborators are
//! welcomed. The load then runs on a server with a fresh data directory.

use crate::probe::Probe;
use crate::run::{Config, Run};
use crate::star::{random_op, random_text, DOC};
use crate::trace;
use dce_core::{CoreError, Engine, Flag, Message, Site};
use dce_document::{Char, CharDocument, Op};
use dce_net::frame::{encode_frame, Frame, FrameDecoder};
use dce_net::reliable::{Endpoint, ReliableConfig};
use dce_obs::{MetricsReport, ObsHandle};
use dce_ot::RequestId;
use dce_policy::{AdminOp, Authorization, DocObject, Right, Subject};
use dce_server::{initial_policy, Server, ServerConfig};
use dce_store::{EngineStore, FsyncPolicy, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Collaborator connections (users 1 and 2).
pub const CLIENTS: u32 = 2;
/// Unresolved edits each client may have at once.
pub const WINDOW: usize = 4;
/// Percent of operations that are delegated administrative proposals.
pub const PROPOSAL_PCT: u32 = 10;
/// Insert : delete : update weights of the other operations (with the
/// proposals, the CI mix 50:25:15:10).
pub const MIX: (u32, u32, u32) = (50, 25, 15);
/// Percent of proposals that are restrictive.
pub const RESTRICTIVE_PCT: u32 = 25;
/// Initial document length.
pub const DOC_LEN: usize = 1_000;
/// Set-ups timed per run (the median is reported).
pub const SETUPS: usize = 31;
/// Operations in the seeded history a timed set-up recovers (the same
/// mix as the load, one operation in flight at a time).
pub const HISTORY_OPS: usize = 4_000;
/// Of those, the last ones: journaled after the last snapshot, so every
/// recovery replays them.
pub const SUFFIX_OPS: usize = 2_000;
/// Operations between two compactions of the history, each forcing a
/// snapshot (the server's horizon pass does the same at its watermark).
pub const COMPACT_EVERY: usize = 100;
/// The session every client joins.
const SESSION: u32 = 1;

/// A non-blocking frame connection with byte counters.
struct Sock {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    bytes: u64,
}

impl Sock {
    fn connect(addr: &str) -> io::Result<Sock> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Sock { stream, decoder: FrameDecoder::new(), out: Vec::new(), bytes: 0 })
    }

    fn queue(&mut self, frame: &Frame<Char>) {
        let bytes = trace::span("net.frame.encode", || encode_frame(frame));
        self.out.extend_from_slice(&bytes);
    }

    /// Writes what the socket takes now. `Ok(true)` when bytes moved.
    fn flush(&mut self) -> Result<bool, String> {
        if self.out.is_empty() {
            return Ok(false);
        }
        let written = trace::span("os.socket", || -> Result<usize, String> {
            let mut n = 0;
            while n < self.out.len() {
                match self.stream.write(&self.out[n..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(k) => n += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            Ok(n)
        })?;
        self.out.drain(..written);
        self.bytes += written as u64;
        Ok(written > 0)
    }

    /// Reads what is there and decodes every complete frame into `into`.
    fn read(&mut self, into: &mut Vec<Frame<Char>>) -> Result<(), String> {
        let mut buf = [0u8; 64 * 1024];
        let read = trace::span("os.socket", || -> Result<usize, String> {
            let mut total = 0;
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        self.decoder.extend(&buf[..n]);
                        total += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(total),
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
        })?;
        self.bytes += read as u64;
        if read == 0 {
            return Ok(());
        }
        loop {
            match trace::span("net.frame.decode", || self.decoder.next::<Char>()) {
                Ok(Some(f)) => into.push(f),
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("bad frame from the server: {e}")),
            }
        }
    }

    /// Sends `frame` and waits (bounded) for a reply `want` accepts.
    fn round_trip<T>(
        &mut self,
        frame: &Frame<Char>,
        want: impl Fn(Frame<Char>) -> Option<T>,
    ) -> Result<T, String> {
        self.queue(frame);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut frames = Vec::new();
        loop {
            self.flush()?;
            self.read(&mut frames)?;
            for f in frames.drain(..) {
                if let Some(t) = want(f) {
                    return Ok(t);
                }
            }
            if Instant::now() >= deadline {
                return Err("the server did not answer within 10 s".into());
            }
            std::thread::yield_now();
        }
    }
}

/// One collaborator: replica, reliable endpoint, connection, and the
/// edits it is waiting on.
struct Client {
    user: u32,
    engine: Engine<Char>,
    endpoint: Endpoint<Char>,
    sock: Sock,
    outstanding: Vec<(RequestId, Instant)>,
    /// Edits this client tried to generate.
    attempts: u64,
    /// Of those, the ones its local policy copy refused.
    denied: u64,
    data_sent: u64,
    retransmits: u64,
}

/// A `dce-server` whose reactor (`Server::run`) runs on its own thread,
/// over a data directory.
struct Reactor {
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
    dir: PathBuf,
}

impl Reactor {
    /// Binds a server over `dir` — recovering every session it holds —
    /// and starts its reactor.
    fn start(dir: PathBuf, text: &str) -> Result<Reactor, String> {
        let mut server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            users: CLIENTS,
            docs: 1,
            doc: text.into(),
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server bind over {}: {e}", dir.display()))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = Some(std::thread::spawn(move || server.run(flag)));
        Ok(Reactor { addr, shutdown, thread, dir })
    }

    /// Joins `user` to the session: connects and waits for the welcome.
    fn hello(&self, user: u32) -> Result<Sock, String> {
        let mut sock = Sock::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        sock.round_trip(&Frame::Hello { session: SESSION, user }, |f| {
            matches!(f, Frame::Welcome { .. }).then_some(())
        })?;
        Ok(sock)
    }

    /// Stops the reactor, waits for its thread and removes the data.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Relaxed);
        let joined = self.thread.take().expect("running").join();
        let _ = std::fs::remove_dir_all(&self.dir);
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server reactor failed: {e}")),
            Err(_) => Err("server reactor panicked".into()),
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The load's server and its two joined clients.
struct Rig {
    reactor: Reactor,
    clients: Vec<Client>,
    control: Sock,
}

impl Rig {
    /// A server over a fresh data directory, and both clients connected,
    /// welcomed and holding their replica of the initial document.
    fn boot(dir: PathBuf, text: &str, obs: &ObsHandle) -> Result<Rig, String> {
        let reactor = Reactor::start(dir, text)?;
        let control = Sock::connect(&reactor.addr).map_err(|e| format!("connect: {e}"))?;
        let rto = ServerConfig::default().rto_ms;
        let mut clients = Vec::new();
        for user in 1..=CLIENTS {
            let sock = reactor.hello(user)?;
            let engine = Engine::new_user(user, 0).with_observability(obs.clone());
            engine
                .create_document(DOC, CharDocument::from_str(text), initial_policy(CLIENTS))
                .expect("a fresh engine hosts nothing");
            let endpoint = Endpoint::new(
                user as usize,
                ReliableConfig { initial_rto_ms: rto, max_rto_ms: rto * 16 },
            );
            clients.push(Client {
                user,
                engine,
                endpoint,
                sock,
                outstanding: Vec::new(),
                attempts: 0,
                denied: 0,
                data_sent: 0,
                retransmits: 0,
            });
        }
        Ok(Rig { reactor, clients, control })
    }
}

/// The seeded history every timed set-up recovers: the session directory
/// a durable server leaves after [`HISTORY_OPS`] operations of its two
/// collaborators, compacted every [`COMPACT_EVERY`] operations (each
/// compaction forcing a snapshot), the last [`SUFFIX_OPS`] journaled past
/// the last snapshot. It is written in-process by the same journal hooks
/// the server's engine uses (`dce-store` under `Engine::with_store`), with
/// one operation in flight at a time, so one seed always gives the same
/// files. Returns the administrator replica's digest.
fn write_history(dir: &Path, text: &str, rng: &mut StdRng) -> Result<u64, String> {
    let cfg = StoreConfig {
        // The files do not depend on when they reach the disk.
        fsync: FsyncPolicy::EveryMs(u64::MAX),
        snapshot_every: u64::MAX,
        auto_snapshot: false,
        retain_snapshots: 2,
    };
    let session = dir.join(format!("session-{SESSION}"));
    let store = EngineStore::<Char>::open(&session, 0, 0, cfg, ObsHandle::disabled())
        .map_err(|e| format!("history store: {e}"))?;
    let genesis = || Site::new_admin(0, CharDocument::from_str(text), initial_policy(CLIENTS));
    let rec = store.recover_doc(DOC, genesis).map_err(|e| format!("history store: {e}"))?;
    let admin = Engine::new_admin(0).with_store(Arc::new(store));
    admin.adopt_site(DOC, rec.site).map_err(|e| format!("history: {e}"))?;
    let clients: Vec<Engine<Char>> = (1..=CLIENTS)
        .map(|user| {
            let engine = Engine::new_user(user, 0);
            engine
                .create_document(DOC, CharDocument::from_str(text), initial_policy(CLIENTS))
                .expect("a fresh engine hosts nothing");
            engine
        })
        .collect();
    let fail = |what: &str, e: CoreError| format!("history: {what}: {e}");
    for k in 1..=HISTORY_OPS {
        let c = rng.gen_range(0..clients.len());
        let client = &clients[c];
        let msg = if rng.gen_range(0..100) < PROPOSAL_PCT {
            let op = random_admin_op(rng);
            let p = client.with(DOC, |s| s.propose_admin(op)).expect("document hosted");
            Message::Proposal(p.map_err(|e| fail("propose_admin", e))?)
        } else {
            let doc = client.document(DOC).expect("document hosted");
            let op = random_op(rng, MIX, doc.len(), |p| doc.get(p).expect("in range").0);
            match client.generate(DOC, op) {
                Ok(msg) => msg,
                Err(CoreError::AccessDenied { .. }) => continue,
                Err(e) => return Err(fail("generate", e)),
            }
        };
        // The server's relay: the edit to the other collaborator, then
        // the administrator's reactions to both.
        let relay = !matches!(msg, Message::Proposal(_));
        admin.receive(DOC, msg.clone()).map_err(|e| fail("administrator receive", e))?;
        if relay {
            for (j, other) in clients.iter().enumerate() {
                if j != c {
                    other.receive(DOC, msg.clone()).map_err(|e| fail("relay", e))?;
                }
            }
        }
        for reaction in admin.drain_outbox(DOC) {
            for client in &clients {
                client.receive(DOC, reaction.clone()).map_err(|e| fail("relay", e))?;
            }
        }
        if k % COMPACT_EVERY == 0 && k <= HISTORY_OPS - SUFFIX_OPS {
            for client in &clients {
                let hb = client.with(DOC, |s| s.make_heartbeat()).expect("document hosted");
                admin.receive(DOC, hb).map_err(|e| fail("heartbeat", e))?;
            }
            admin.auto_compact(DOC);
        }
    }
    let snapshots = std::fs::read_dir(session.join(format!("doc-{}", DOC.0)))
        .map_err(|e| format!("history: {e}"))?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .count();
    if snapshots == 0 {
        return Err("history: no snapshot was written".into());
    }
    Ok(admin.replica_digest(DOC).expect("document hosted"))
}

/// One timed set-up: a server restarting over a copy of the history in
/// `history` — bind, recovery of its snapshot and journal suffix, reactor
/// start — until both collaborators are welcomed. The recovered replica
/// must digest like the one that wrote the history (checked after the
/// clock stops). Returns the seconds taken.
fn timed_restart(history: &Path, digest: u64, text: &str, root: &Path) -> Result<f64, String> {
    let dir = fresh_dir(root);
    copy_tree(history, &dir).map_err(|e| format!("copy the history: {e}"))?;
    let t = Instant::now();
    let reactor = Reactor::start(dir, text)?;
    let joined = (1..=CLIENTS).map(|user| reactor.hello(user)).collect::<Result<Vec<_>, _>>()?;
    let took = t.elapsed().as_secs_f64();
    let mut control = Sock::connect(&reactor.addr).map_err(|e| format!("connect: {e}"))?;
    let (recovered, _) = poll_digest(&mut control)?;
    drop(joined);
    reactor.stop()?;
    if recovered != digest {
        return Err(format!("recovered digest {recovered:x} != written {digest:x}"));
    }
    Ok(took)
}

/// Copies the directory tree `from` to `to` and syncs the copy, so the
/// fsyncs of the boot that follows do not flush it.
fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

/// The server's digest of the document, and whether it is idle.
fn poll_digest(control: &mut Sock) -> Result<(u64, bool), String> {
    control.round_trip(&Frame::DigestRequest { session: SESSION, doc: DOC }, |f| match f {
        Frame::DigestReply { digest, idle, .. } => Some((digest, idle)),
        _ => None,
    })
}

/// Where a run keeps its server data: inside the working directory.
fn data_root() -> PathBuf {
    PathBuf::from(".e2ebench-data")
}

/// A data directory no other set-up of this process has used.
fn fresh_dir(root: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    root.join(format!("durable-{}-{k}", std::process::id()))
}

/// Load-side state of one run.
struct Load {
    run: Run,
    rng: StdRng,
    origin: Instant,
    /// Generation time of edits the other client has not integrated.
    in_flight: HashMap<RequestId, Instant>,
    last_done: Option<Instant>,
    /// Per-layer probes of the first client's replica (trace mode only).
    probe: Option<Probe>,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let text = random_text(&mut rng, DOC_LEN);
    let obs = if cfg.trace { ObsHandle::metrics_only() } else { ObsHandle::disabled() };
    let root = data_root();
    let setup = set_up(&root, &text, &mut rng, if cfg.smoke { 2 } else { SETUPS });
    let setup_s = match setup {
        Ok(s) => s,
        Err(e) => return failed_run(e),
    };
    let mut rig = match Rig::boot(fresh_dir(&root), &text, &obs) {
        Ok(r) => r,
        Err(e) => return failed_run(e),
    };
    let mut load = Load {
        run: Run { setup_s, ..Run::default() },
        rng,
        origin: Instant::now(),
        in_flight: HashMap::new(),
        last_done: None,
        probe: cfg.trace.then(Probe::default),
    };
    if cfg.trace {
        trace::enable();
    }
    let start = Instant::now();
    if let Err(e) = drive(&mut rig, &mut load, cfg, start) {
        load.run.problem(e);
    }
    load.run.trace = trace::finish();
    let end = load.last_done.unwrap_or_else(Instant::now);
    load.run.active_s = (end - start).as_secs_f64();
    if load.run.problems.is_empty() {
        if let Err(e) = converge(&mut rig, &mut load) {
            load.run.problem(e);
        }
        check_flags(&rig, &mut load.run);
    }
    if cfg.trace {
        probe_end(&mut rig, &mut load, &obs);
    }
    if let Err(e) = rig.reactor.stop() {
        load.run.problem(e);
    }
    let _ = std::fs::remove_dir(&root);
    load.run
}

/// Writes the seeded history, then times `n` restarts over it.
fn set_up(root: &Path, text: &str, rng: &mut StdRng, n: usize) -> Result<Vec<f64>, String> {
    let history = fresh_dir(root);
    let written = write_history(&history, text, rng);
    let timed = written
        .and_then(|digest| (0..n).map(|_| timed_restart(&history, digest, text, root)).collect());
    let _ = std::fs::remove_dir_all(&history);
    timed
}

fn failed_run(why: String) -> Run {
    let mut run = Run::default();
    run.problem(why);
    run
}

/// The closed loop: generate while the run lasts, then drain until every
/// edit has settled at its origin and reached the other client.
fn drive(rig: &mut Rig, load: &mut Load, cfg: &Config, start: Instant) -> Result<(), String> {
    let mut generating = true;
    loop {
        if generating && cfg.load_done(&load.run, start) {
            generating = false;
        }
        if start.elapsed().as_secs_f64() > cfg.load_cap_s() + 20.0 {
            return Err("edits still unresolved long after the load stopped".into());
        }
        let mut worked = false;
        for c in 0..rig.clients.len() {
            if generating {
                while rig.clients[c].outstanding.len() < WINDOW {
                    submit(&mut rig.clients[c], load)?;
                    worked = true;
                }
            }
            worked |= trace::span("bench.pump", || pump(rig, c, load))?;
        }
        if !generating
            && load.in_flight.is_empty()
            && rig.clients.iter().all(|c| c.outstanding.is_empty() && !c.endpoint.has_unacked())
        {
            return Ok(());
        }
        if !worked {
            std::thread::yield_now();
        }
    }
}

fn now_ms(load: &Load) -> u64 {
    load.origin.elapsed().as_millis() as u64
}

/// Submits one operation at client `c`: an edit chosen from its current
/// document, or a delegated administrative proposal.
fn submit(c: &mut Client, load: &mut Load) -> Result<(), String> {
    load.run.attempted += 1;
    let now = now_ms(load);
    let msg = if load.rng.gen_range(0..100) < PROPOSAL_PCT {
        let op = random_admin_op(&mut load.rng);
        let p = c
            .engine
            .with(DOC, |s| s.propose_admin(op))
            .expect("document hosted")
            .map_err(|e| format!("user {}: propose_admin: {e}", c.user))?;
        Message::Proposal(p)
    } else {
        let doc = trace::span("core.document", || c.engine.document(DOC)).expect("document hosted");
        let op = random_op(&mut load.rng, MIX, doc.len(), |p| doc.get(p).expect("in range").0);
        c.attempts += 1;
        let typed = matches!(op, Op::Ins { .. });
        let t = Instant::now();
        let out = trace::span("core.generate", || {
            let out = c.engine.generate(DOC, op);
            if let Ok(Message::Coop(q)) = &out {
                trace::tag((q.ot.id.site, q.ot.id.seq));
            }
            out
        });
        let local = t.elapsed();
        match out {
            Ok(msg) => {
                let Message::Coop(q) = &msg else { unreachable!("generation yields an edit") };
                if typed {
                    load.run.local_us.push(local.as_secs_f64() * 1e6);
                }
                c.outstanding.push((q.ot.id, t));
                load.in_flight.insert(q.ot.id, t);
                load.run.edits += 1;
                msg
            }
            Err(CoreError::AccessDenied { .. }) => {
                c.denied += 1;
                return Ok(());
            }
            Err(e) => {
                load.run.failed += 1;
                return Err(format!("user {}: generate: {e}", c.user));
            }
        }
    };
    let pkt = trace::span("net.reliable", || c.endpoint.send(0, Arc::new(msg), now));
    c.sock.queue(&Frame::from_packet(DOC, pkt));
    c.data_sent += 1;
    Ok(())
}

/// A benign or (with probability [`RESTRICTIVE_PCT`]) restrictive
/// administrative proposal — the load generator's CI mix: restrictive
/// ones revoke one dynamic right from one user on a narrow range.
fn random_admin_op(rng: &mut StdRng) -> AdminOp {
    let user = rng.gen_range(1..=CLIENTS);
    let right = Right::DYNAMIC[rng.gen_range(0..Right::DYNAMIC.len())];
    if rng.gen_range(0..100) < RESTRICTIVE_PCT {
        let from = rng.gen_range(1..=64usize);
        let to = from + rng.gen_range(0..3usize);
        let object = DocObject::Range { from, to };
        AdminOp::AddAuth {
            pos: 0,
            auth: Authorization::revoke(Subject::User(user), object, [right]),
        }
    } else if rng.gen_range(0..2) == 0 {
        let auth = Authorization::grant(Subject::User(user), DocObject::Document, [right]);
        AdminOp::AddAuth { pos: 0, auth }
    } else {
        let members = (1..=CLIENTS).filter(|_| rng.gen_range(0..2) == 0).collect();
        AdminOp::SetGroup { name: format!("g{}", rng.gen_range(0..4u32)), members }
    }
}

/// One pass over client `c`: read and handle frames, settle flags, fire
/// retransmission timers, write. `Ok(true)` when anything happened.
fn pump(rig: &mut Rig, c: usize, load: &mut Load) -> Result<bool, String> {
    let now = now_ms(load);
    let client = &mut rig.clients[c];
    let mut frames = Vec::new();
    client.sock.read(&mut frames)?;
    let mut worked = !frames.is_empty();
    let mut settle = false;
    for frame in frames {
        match frame {
            Frame::Data { doc, epoch, seq, ack_epoch, ack, msg, .. } if doc == DOC => {
                let endpoint = &mut client.endpoint;
                let deliverable = trace::span("net.reliable", || {
                    endpoint.on_ack(0, ack_epoch, ack, now);
                    endpoint.on_data(0, epoch, seq, msg).deliverable
                });
                for m in deliverable {
                    let msg = Arc::try_unwrap(m).unwrap_or_else(|m| (*m).clone());
                    settle |= matches!(msg, Message::Admin(_));
                    receive(client, msg, load)?;
                }
                let (epoch, cum) = trace::span("net.reliable", || client.endpoint.ack_for(0));
                client.sock.queue(&Frame::Ack { doc, from: client.user, epoch, cum });
            }
            Frame::Ack { doc, epoch, cum, .. } if doc == DOC => {
                trace::span("net.reliable", || client.endpoint.on_ack(0, epoch, cum, now));
            }
            other => return Err(format!("user {}: unexpected frame {other:?}", client.user)),
        }
    }
    if settle && !client.outstanding.is_empty() {
        resolve(client, load)?;
    }
    let endpoint = &mut client.endpoint;
    let due = trace::span("net.reliable", || match endpoint.next_deadline() {
        Some(d) if d <= now => endpoint.due_retransmissions(now),
        _ => Vec::new(),
    });
    for (_, pkt) in due {
        client.retransmits += 1;
        client.sock.queue(&Frame::from_packet(DOC, pkt));
        worked = true;
    }
    worked |= client.sock.flush()?;
    Ok(worked)
}

/// Client-side reception of one in-order message.
fn receive(client: &mut Client, msg: Message<Char>, load: &mut Load) -> Result<(), String> {
    let coop = match &msg {
        Message::Coop(q) => Some(q.ot.id),
        _ => None,
    };
    let engine = &client.engine;
    let t = Instant::now();
    trace::span_rid("core.receive_peer", coop.map(|id| (id.site, id.seq)), || {
        engine.receive(DOC, msg)
    })
    .map_err(|e| format!("user {}: receive: {e}", client.user))?;
    let at = Instant::now();
    if let Some(id) = coop {
        load.run.integrate_us.push((at - t).as_secs_f64() * 1e6);
        let seen = engine.with(DOC, |s| s.engine().has_seen(id)).expect("document hosted");
        if !seen {
            return Err(format!("user {}: relayed {id:?} was parked", client.user));
        }
        let sent = load
            .in_flight
            .remove(&id)
            .ok_or_else(|| format!("user {}: {id:?} integrated twice", client.user))?;
        load.run.remote_ms.push((at - sent).as_secs_f64() * 1e3);
        load.last_done = Some(at);
    }
    if let (1, Some(probe)) = (client.user, &mut load.probe) {
        probe.sample(engine);
    }
    Ok(())
}

/// Settles the client's own edits whose flag left `Tentative`.
fn resolve(client: &mut Client, load: &mut Load) -> Result<(), String> {
    let now = Instant::now();
    let mut lost = None;
    let engine = &client.engine;
    client.outstanding.retain(|&(id, t)| {
        let flag = engine.with(DOC, |s| s.flag_of(id)).expect("document hosted");
        match flag {
            Some(Flag::Tentative) => return true,
            Some(Flag::Valid | Flag::Invalid) => {}
            None => lost = Some(id),
        }
        load.run.valid_ms.push((now - t).as_secs_f64() * 1e3);
        load.last_done = Some(now);
        false
    });
    match lost {
        Some(id) => Err(format!("user {}: {id:?} has no flag", client.user)),
        None => Ok(()),
    }
}

/// At quiescence: the server's digest of the document and both clients'
/// must agree on two consecutive polls.
fn converge(rig: &mut Rig, load: &mut Load) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut agreed = 0;
    while agreed < 2 {
        if Instant::now() >= deadline {
            return Err("digests did not agree on two consecutive polls within 20 s".into());
        }
        for c in 0..rig.clients.len() {
            pump(rig, c, load)?;
        }
        let (digest, idle) = poll_digest(&mut rig.control)?;
        let clients: Vec<u64> = rig
            .clients
            .iter()
            .map(|c| c.engine.replica_digest(DOC).expect("document hosted"))
            .collect();
        if idle && clients.iter().all(|&d| d == digest) {
            agreed += 1;
        } else {
            agreed = 0;
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    Ok(())
}

/// Every edit resolved, counted in the program's own state: no client's
/// flag table holds a `Tentative` flag; at each client the settled flags
/// (and any compacted away) number the edits both clients sent; and its
/// own settled edits, with the generations its local policy refused,
/// number the edits it attempted (compacted flags name no site, so once a
/// client compacts, its own count may fall short by up to that many).
fn check_flags(rig: &Rig, run: &mut Run) {
    for c in &rig.clients {
        let (tentative, settled, own, pruned) = c
            .engine
            .with(DOC, |s| {
                let (mut tentative, mut settled, mut own) = (0u64, 0u64, 0u64);
                for (id, flag) in s.flags() {
                    if flag == Flag::Tentative {
                        tentative += 1;
                    } else {
                        settled += 1;
                        own += u64::from(id.site == c.user);
                    }
                }
                (tentative, settled, own, s.engine().pruned_count() as u64)
            })
            .expect("document hosted");
        if tentative > 0 {
            run.problem(format!("user {}: {tentative} flags still tentative", c.user));
        }
        if settled + pruned != run.edits {
            run.problem(format!(
                "user {}: {settled} settled + {pruned} compacted flags != {} edits sent",
                c.user, run.edits
            ));
        }
        if own + c.denied > c.attempts || own + c.denied + pruned < c.attempts {
            run.problem(format!(
                "user {}: {own} own edits settled + {} denied locally != {} attempted",
                c.user, c.denied, c.attempts
            ));
        }
    }
}

/// Per-layer numbers at the end of a traced run: client replica gauges,
/// client socket counters, and one scrape of the server's registry.
fn probe_end(rig: &mut Rig, load: &mut Load, obs: &ObsHandle) {
    let edits = load.run.edits.max(1) as f64;
    if let Some(probe) = &load.probe {
        let clients: Vec<&Engine<Char>> = rig.clients.iter().map(|c| &c.engine).collect();
        probe.finish(clients[0], &clients, load.run.edits, obs, &mut load.run.layer);
    }
    let bytes: u64 = rig.clients.iter().map(|c| c.sock.bytes).sum();
    let sent: u64 = rig.clients.iter().map(|c| c.data_sent).sum();
    let retransmits: u64 = rig.clients.iter().map(|c| c.retransmits).sum();
    let layer = &mut load.run.layer;
    let denied: u64 = rig.clients.iter().map(|c| c.denied).sum();
    layer.insert("policy.denied_local", denied as f64);
    layer.insert("net.bytes_per_edit", bytes as f64 / edits);
    layer.insert("net.retransmit_ratio", retransmits as f64 / sent.max(1) as f64);
    layer.insert("store.disk_bytes.end", dir_bytes(&rig.reactor.dir) as f64);
    match rig.control.round_trip(&Frame::MetricsRequest { session: SESSION }, |f| match f {
        Frame::MetricsReport { report, .. } => Some(report),
        _ => None,
    }) {
        Ok(report) => server_layers(&report, layer),
        Err(e) => load.run.problem(format!("metrics scrape: {e}")),
    }
}

/// The server's registry, mapped onto the per-layer catalogue.
fn server_layers(r: &MetricsReport, layer: &mut std::collections::BTreeMap<&'static str, f64>) {
    let hist = |name: &str| r.histograms.get(name).cloned().unwrap_or_default();
    let counter = |name: &str| r.counters.get(name).copied().unwrap_or(0) as f64;
    layer.insert("server.read.busy_s", hist("server.read_ns").sum as f64 / 1e9);
    layer.insert("server.read.max_ms", hist("server.read_ns").max as f64 / 1e6);
    layer.insert("server.write.busy_s", hist("server.write_ns").sum as f64 / 1e9);
    layer.insert("server.timer.busy_s", hist("server.timer_ns").sum as f64 / 1e9);
    layer.insert("server.drain.p99_us", hist("site.drain_ns").p99 as f64 / 1e3);
    layer.insert("server.log_len.end", r.gauges.get("server.log_len").copied().unwrap_or(0) as f64);
    layer.insert("server.compactions", counter("server.compactions"));
    layer.insert("server.retransmits", counter("server.retransmits"));
    layer.insert("store.append.p99_us", hist("store.append_ns").p99 as f64 / 1e3);
    layer.insert("store.fsync.p99_ms", hist("store.fsync_ns").p99 as f64 / 1e6);
    layer.insert("store.fsyncs", hist("store.fsync_ns").count as f64);
    layer.insert("store.snapshot.busy_ms", hist("store.snapshot_ns").sum as f64 / 1e6);
}

/// Bytes in every regular file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every file under `dir`, by its path below `dir`, with its bytes.
    fn files(dir: &Path, below: &Path, into: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("readable").flatten() {
            let rel = below.join(entry.file_name());
            if entry.file_type().expect("file type").is_dir() {
                files(&entry.path(), &rel, into);
            } else {
                into.insert(rel, std::fs::read(entry.path()).expect("readable"));
            }
        }
    }

    #[test]
    fn one_seed_writes_one_history() {
        let root = data_root().join(format!("test-history-{}", std::process::id()));
        let text = "the quick brown fox jumps over the lazy dog";
        let mut written = Vec::new();
        for k in 0..2 {
            let dir = root.join(k.to_string());
            let digest = write_history(&dir, text, &mut StdRng::seed_from_u64(5));
            let mut tree = BTreeMap::new();
            files(&dir, Path::new(""), &mut tree);
            written.push((digest.expect("history written"), tree));
        }
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir(data_root());
        assert_eq!(written[0], written[1]);
        let snapshots = written[0].1.keys().filter(|p| p.extension() == Some("snap".as_ref()));
        assert!(snapshots.count() > 0);
    }
}
