//! An in-process star: one administrator replica and N collaborator
//! replicas, each a [`dce_core::Engine`] hosting the one document, all
//! driven from the calling thread. Every message crosses the star in
//! `dce_net::wire` bytes: collaborator → administrator, then the
//! administrator relays it (and whatever it emitted in response — its
//! validations) to every other collaborator, in the order it processed
//! them. That is the server's relay discipline without sockets, so each
//! collaborator sees one FIFO stream in a valid causal order.

use crate::probe::Probe;
use crate::run::Run;
use crate::trace;
use bytes::Bytes;
use dce_core::{CoreError, DocumentId, Engine, Flag, Message};
use dce_document::{Char, CharDocument, Op};
use dce_net::snapshot::{decode_snapshot, encode_snapshot};
use dce_net::wire::{decode_message, encode_message};
use dce_obs::ObsHandle;
use dce_ot::RequestId;
use dce_policy::Policy;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// The server's log-size watermark (`dce-server`'s `COMPACT_WATERMARK`):
/// every replica's always-on compactor is armed at it.
pub const WATERMARK: usize = 192;

/// The document every replica hosts.
pub const DOC: DocumentId = DocumentId::ROOT;

/// One collaborator replica and the traffic it has in flight.
pub struct Peer {
    /// The collaborator's user id.
    pub user: u32,
    /// Its replica.
    pub engine: Engine<Char>,
    /// Relayed messages not yet received, in the administrator's order.
    inbox: Vec<Bytes>,
    /// Messages sent but not yet processed by the administrator.
    to_admin: VecDeque<Bytes>,
    /// Own edits whose flag has not settled: id and generation time.
    outstanding: Vec<(RequestId, Instant)>,
}

/// The star and the measurements taken while driving it.
pub struct Star {
    /// The administrator's replica (user 0).
    pub admin: Engine<Char>,
    /// Collaborator replicas (users 1..=N).
    pub peers: Vec<Peer>,
    /// Generation time of every edit some collaborator has not
    /// integrated yet, with how many still have to.
    in_flight: HashMap<RequestId, (Instant, usize)>,
    /// Samples and counts.
    pub run: Run,
    /// Time of the last resolution or integration.
    pub last_done: Option<Instant>,
    /// Per-layer probes of the first collaborator (trace mode only).
    probe: Option<Probe>,
}

/// An engine for `user` (0 is the administrator), compactor armed.
fn engine(user: u32, obs: &ObsHandle) -> Engine<Char> {
    let engine = if user == 0 { Engine::new_admin(0) } else { Engine::new_user(user, 0) };
    engine.with_compaction(WATERMARK).with_observability(obs.clone())
}

fn rid(id: RequestId) -> Option<(u32, u64)> {
    Some((id.site, id.seq))
}

impl Star {
    /// Builds the administrator's replica of `d0`, with a permissive
    /// policy for all users, and `peers` collaborators that join by state
    /// transfer: each decodes the administrator's snapshot
    /// (`dce_net::snapshot`), as a participant joining a session does.
    /// `obs` is attached to every replica (a disabled handle outside
    /// trace mode).
    pub fn build(peers: u32, d0: &CharDocument, obs: &ObsHandle, probe: bool) -> Star {
        let admin = engine(0, obs);
        admin
            .create_document(DOC, d0.clone(), Policy::permissive(0..=peers))
            .expect("a fresh engine hosts nothing");
        let snapshot = admin.with(DOC, |s| encode_snapshot(s)).expect("document hosted");
        let join = |user: u32| {
            let site =
                decode_snapshot(snapshot.clone(), user, 0).expect("a fresh snapshot decodes");
            let engine = engine(user, obs);
            engine.adopt_site(DOC, site).expect("a fresh engine hosts nothing");
            engine
        };
        Star {
            peers: (1..=peers)
                .map(|user| Peer {
                    user,
                    engine: join(user),
                    inbox: Vec::new(),
                    to_admin: VecDeque::new(),
                    outstanding: Vec::new(),
                })
                .collect(),
            admin,
            in_flight: HashMap::new(),
            run: Run::default(),
            last_done: None,
            probe: probe.then(Probe::default),
        }
    }

    /// Generates `op` at collaborator `i` and queues it for the
    /// administrator. Times the generation; an insertion's time is a
    /// keystroke latency sample.
    pub fn generate(&mut self, i: usize, op: Op<Char>) -> Result<RequestId, CoreError> {
        self.run.attempted += 1;
        let typed = matches!(op, Op::Ins { .. });
        let peer = &mut self.peers[i];
        let t = Instant::now();
        let msg = trace::span("core.generate", || {
            let msg = peer.engine.generate(DOC, op);
            if let Ok(Message::Coop(q)) = &msg {
                trace::tag((q.ot.id.site, q.ot.id.seq));
            }
            msg
        });
        let local = t.elapsed();
        let msg = match msg {
            Ok(msg) => msg,
            Err(e) => {
                self.run.failed += 1;
                return Err(e);
            }
        };
        let Message::Coop(q) = &msg else {
            unreachable!("generation yields a cooperative request")
        };
        let id = q.ot.id;
        if typed {
            self.run.local_us.push(local.as_secs_f64() * 1e6);
        }
        self.run.edits += 1;
        peer.outstanding.push((id, t));
        let bytes = trace::span_rid("net.wire.encode", rid(id), || encode_message(&msg));
        peer.to_admin.push_back(bytes);
        self.in_flight.insert(id, (t, self.peers.len() - 1));
        Ok(id)
    }

    /// Collaborator `i` gossips its heartbeat (through the administrator).
    pub fn peer_heartbeat(&mut self, i: usize) {
        let peer = &mut self.peers[i];
        let hb = peer.engine.with(DOC, |s| s.make_heartbeat()).expect("document hosted");
        let bytes = trace::span("net.wire.encode", || encode_message(&hb));
        peer.to_admin.push_back(bytes);
    }

    /// The administrator gossips its heartbeat to every collaborator.
    pub fn admin_heartbeat(&mut self) {
        let hb = self.admin.with(DOC, |s| s.make_heartbeat()).expect("document hosted");
        let bytes = trace::span("net.wire.encode", || encode_message(&hb));
        for peer in &mut self.peers {
            peer.inbox.push(bytes.clone());
        }
    }

    /// Whether collaborator `i` has messages the administrator has not
    /// processed yet.
    pub fn has_to_admin(&self, i: usize) -> bool {
        !self.peers[i].to_admin.is_empty()
    }

    /// The administrator processes the oldest message from collaborator
    /// `from`: decode, receive, drain its outbox, relay.
    pub fn admin_step(&mut self, from: usize) {
        let Some(bytes) = self.peers[from].to_admin.pop_front() else { return };
        let msg = match trace::span("net.wire.decode", || decode_message::<Char>(bytes.clone())) {
            Ok(msg) => msg,
            Err(e) => return self.run.problem(format!("administrator: undecodable message: {e}")),
        };
        let id = match &msg {
            Message::Coop(q) => rid(q.ot.id),
            _ => None,
        };
        let relay = !matches!(msg, Message::Proposal(_));
        let admin = &self.admin;
        if let Err(e) = trace::span_rid("core.receive_admin", id, || admin.receive(DOC, msg)) {
            return self.run.problem(format!("administrator rejected a message: {e}"));
        }
        let reactions = trace::span("core.drain_outbox", || admin.drain_outbox(DOC));
        if relay {
            for (j, peer) in self.peers.iter_mut().enumerate() {
                if j != from {
                    peer.inbox.push(bytes.clone());
                }
            }
        }
        for reaction in reactions {
            let bytes = trace::span("net.wire.encode", || encode_message(&reaction));
            for peer in &mut self.peers {
                peer.inbox.push(bytes.clone());
            }
        }
    }

    /// Collaborator `i` receives everything relayed to it so far.
    pub fn deliver(&mut self, i: usize) {
        let inbox = std::mem::take(&mut self.peers[i].inbox);
        for bytes in inbox {
            let msg = match trace::span("net.wire.decode", || decode_message::<Char>(bytes)) {
                Ok(msg) => msg,
                Err(e) => {
                    self.run.problem(format!("user {}: undecodable message: {e}", i + 1));
                    continue;
                }
            };
            let (coop, admin) = match &msg {
                Message::Coop(q) => (Some(q.ot.id), false),
                Message::Admin(_) => (None, true),
                _ => (None, false),
            };
            let peer = &self.peers[i];
            let t = Instant::now();
            let out = trace::span_rid("core.receive_peer", coop.and_then(rid), || {
                peer.engine.receive(DOC, msg)
            });
            let done = Instant::now();
            if let Err(e) = out {
                self.run.problem(format!("user {}: receive failed: {e}", peer.user));
                continue;
            }
            if let Some(id) = coop {
                self.run.integrate_us.push((done - t).as_secs_f64() * 1e6);
                self.integrated(i, id, done);
            }
            if admin {
                self.resolve(i);
            }
            if let (0, Some(probe)) = (i, &mut self.probe) {
                probe.sample(&self.peers[0].engine);
            }
        }
    }

    /// Records that collaborator `i` received edit `id`: a remote
    /// latency sample once the replica has integrated it.
    fn integrated(&mut self, i: usize, id: RequestId, at: Instant) {
        let seen =
            self.peers[i].engine.with(DOC, |s| s.engine().has_seen(id)).expect("document hosted");
        if !seen {
            // Relays arrive in a causal order, so a reception integrates.
            return self.run.problem(format!("user {}: relayed {id:?} was parked", i + 1));
        }
        let Some((sent, left)) = self.in_flight.get_mut(&id) else {
            return self.run.problem(format!("user {}: {id:?} integrated twice", i + 1));
        };
        self.run.remote_ms.push((at - *sent).as_secs_f64() * 1e3);
        *left -= 1;
        if *left == 0 {
            self.in_flight.remove(&id);
        }
        self.last_done = Some(at);
    }

    /// Collaborator `i` checks which of its own edits have settled.
    fn resolve(&mut self, i: usize) {
        let peer = &mut self.peers[i];
        let now = Instant::now();
        let engine = &peer.engine;
        let run = &mut self.run;
        let mut settled_any = false;
        peer.outstanding.retain(|&(id, t)| {
            match engine.with(DOC, |s| s.flag_of(id)).expect("document hosted") {
                Some(Flag::Tentative) => true,
                Some(Flag::Valid) | Some(Flag::Invalid) => {
                    run.valid_ms.push((now - t).as_secs_f64() * 1e3);
                    settled_any = true;
                    false
                }
                None => {
                    run.problem(format!("{id:?}: flag pruned before it was seen to settle"));
                    false
                }
            }
        });
        if settled_any {
            self.last_done = Some(now);
        }
    }

    /// Whether every edit has settled at its origin and reached every
    /// collaborator.
    pub fn quiescent(&self) -> bool {
        self.in_flight.is_empty()
            && self
                .peers
                .iter()
                .all(|p| p.outstanding.is_empty() && p.inbox.is_empty() && p.to_admin.is_empty())
    }

    /// Every replica: administrator first, then the collaborators.
    pub fn replicas(&self) -> impl Iterator<Item = (u32, &Engine<Char>)> {
        std::iter::once((0, &self.admin)).chain(self.peers.iter().map(|p| (p.user, &p.engine)))
    }

    /// Takes the denial and undo records of every replica; with no
    /// administrative traffic both must stay empty. Called every round,
    /// before compaction can trim them.
    pub fn check_nothing_refused(&mut self) {
        let mut problems = Vec::new();
        for (user, engine) in self.replicas() {
            let (denied, undone) = engine
                .with(DOC, |s| (s.drain_denials(), s.drain_undone()))
                .expect("document hosted");
            if !denied.is_empty() || !undone.is_empty() {
                problems.push(format!(
                    "user {user}: {} edits denied, {} undone with no administrative traffic",
                    denied.len(),
                    undone.len()
                ));
            }
        }
        for p in problems {
            self.run.problem(p);
        }
    }

    /// End-of-run checks shared by the in-process workloads: every
    /// replica's replica digest and visible document are equal, and every
    /// edit ended `Valid` everywhere (each flag still on file is `Valid`,
    /// and flags on file plus flags compacted away account for every
    /// edit).
    pub fn check_converged(&mut self) {
        if !self.quiescent() {
            self.run.problem("edits still in flight at the end of the run");
        }
        let mut digests = Vec::new();
        let mut docs = Vec::new();
        let mut problems = Vec::new();
        let edits = self.run.edits as usize;
        for (user, engine) in self.replicas() {
            let (digest, doc, all_valid, on_file, pruned) = engine
                .with(DOC, |s| {
                    let on_file = s.flag_table().len();
                    let all_valid = s.flags().all(|(_, f)| f == Flag::Valid);
                    (
                        s.replica_digest(),
                        s.document(),
                        all_valid,
                        on_file,
                        s.engine().pruned_count(),
                    )
                })
                .expect("document hosted");
            if !all_valid {
                problems.push(format!("user {user}: an edit did not end Valid"));
            }
            if on_file + pruned != edits {
                problems.push(format!(
                    "user {user}: {on_file} flags on file + {pruned} compacted != {edits} edits"
                ));
            }
            digests.push(digest);
            docs.push(doc);
        }
        if digests.iter().any(|d| *d != digests[0]) {
            problems.push(format!("replica digests differ: {digests:x?}"));
        }
        if docs.iter().any(|d| *d != docs[0]) {
            problems.push("visible documents differ between replicas".into());
        }
        for p in problems {
            self.run.problem(p);
        }
    }

    /// Per-layer gauges read at the end of a traced run.
    pub fn probe_end(&mut self, obs: &ObsHandle) {
        if let Some(probe) = &self.probe {
            let collaborators: Vec<&Engine<Char>> = self.peers.iter().map(|p| &p.engine).collect();
            probe.finish(
                collaborators[0],
                &collaborators,
                self.run.edits,
                obs,
                &mut self.run.layer,
            );
        }
    }
}

/// `len` seeded random lowercase letters.
pub fn random_text(rng: &mut StdRng, len: usize) -> String {
    (0..len).map(|_| random_letter(rng)).collect()
}

/// One seeded random lowercase letter.
pub fn random_letter(rng: &mut StdRng) -> char {
    char::from(b'a' + rng.gen_range(0..26u8))
}

/// A seeded edit on a document of `len` visible elements: insertion,
/// deletion or update with relative weights `mix`, at a uniform
/// position; `elem_at` reads the element a deletion or update targets
/// (positions are 1-based). An empty document always gets an insertion.
pub fn random_op(
    rng: &mut StdRng,
    mix: (u32, u32, u32),
    len: usize,
    elem_at: impl Fn(usize) -> char,
) -> Op<Char> {
    let (ins, del, up) = mix;
    let roll = rng.gen_range(0..ins + del + up);
    if len == 0 || roll < ins {
        let pos = rng.gen_range(1..=len + 1);
        return Op::ins(pos, Char(random_letter(rng)));
    }
    let pos = rng.gen_range(1..=len);
    let old = Char(elem_at(pos));
    if roll < ins + del {
        Op::del(pos, old)
    } else {
        Op::up(pos, old, Char(random_letter(rng)))
    }
}
