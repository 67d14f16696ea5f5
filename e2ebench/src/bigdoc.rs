//! `big-doc`: an administrator and two collaborators on a document of
//! [`DOC_LEN`] elements, one edit in flight at a time.
//!
//! One round: a seeded collaborator generates one edit (insert/delete/update
//! 40:40:20 at a uniform position) chosen from a plain `Vec<char>` model
//! of the document, which applies it at once; both collaborators then
//! gossip heartbeats, the administrator processes and relays, gossips its
//! own heartbeat, and both collaborators receive. Nothing is concurrent
//! and the compactor keeps the log short, so the cost is position
//! mapping over the tombstone buffer — and deletions keep adding
//! tombstones to it. At the end every replica must equal the model.

use crate::run::{Config, Run};
use crate::star::{random_op, random_text, Star, DOC};
use crate::trace;
use dce_document::{CharDocument, Op};
use dce_obs::ObsHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Collaborator replicas.
pub const PEERS: u32 = 2;
/// Initial document length.
pub const DOC_LEN: usize = 100_000;
/// Initial document length of a self-test run.
pub const SMOKE_DOC_LEN: usize = 5_000;
/// Insert : delete : update weights.
pub const MIX: (u32, u32, u32) = (40, 40, 20);
/// Set-ups timed per run (the median is reported).
pub const SETUPS: usize = 41;

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let len = if cfg.smoke { SMOKE_DOC_LEN } else { DOC_LEN };
    let text = random_text(&mut rng, len);
    let obs = if cfg.trace { ObsHandle::metrics_only() } else { ObsHandle::disabled() };

    // Set-up builds the replicas of the large document from its text.
    let mut setup_s = Vec::new();
    let mut star = None;
    for _ in 0..if cfg.smoke { 3 } else { SETUPS } {
        drop(star.take());
        let t = Instant::now();
        let d0 = CharDocument::from_str(&text);
        star = Some(Star::build(PEERS, &d0, &obs, cfg.trace));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut star = star.expect("built at least once");
    star.run.setup_s = setup_s;
    let mut model: Vec<char> = text.chars().collect();

    if cfg.trace {
        trace::enable();
    }
    let start = Instant::now();
    while !cfg.load_done(&star.run, start) {
        trace::span("bench.round", || round(&mut star, &mut model, &mut rng));
    }
    star.run.trace = trace::finish();
    let end = star.last_done.unwrap_or_else(Instant::now);
    star.run.active_s = (end - start).as_secs_f64();
    star.check_converged();
    let differ: Vec<u32> = star
        .replicas()
        .filter(|(_, engine)| {
            let doc = engine.document(DOC).expect("document hosted");
            doc.iter().map(|c| c.0).ne(model.iter().copied())
        })
        .map(|(user, _)| user)
        .collect();
    for user in differ {
        star.run.problem(format!("user {user}: document differs from the model"));
    }
    if cfg.trace {
        star.probe_end(&obs);
    }
    star.run
}

fn round(star: &mut Star, model: &mut Vec<char>, rng: &mut StdRng) {
    let i = rng.gen_range(0..star.peers.len());
    let op = random_op(rng, MIX, model.len(), |p| model[p - 1]);
    let applied = op.clone();
    match star.generate(i, op) {
        Ok(_) => match applied {
            Op::Ins { pos, elem } => model.insert(pos - 1, elem.0),
            Op::Del { pos, .. } => {
                model.remove(pos - 1);
            }
            Op::Up { pos, new, .. } => model[pos - 1] = new.0,
            Op::Nop => {}
        },
        Err(e) => star.run.problem(format!("user {}: generate failed: {e}", i + 1)),
    }
    for j in 0..star.peers.len() {
        star.peer_heartbeat(j);
    }
    for j in 0..star.peers.len() {
        while star.has_to_admin(j) {
            star.admin_step(j);
        }
    }
    star.admin_heartbeat();
    for j in 0..star.peers.len() {
        star.deliver(j);
    }
    star.check_nothing_refused();
}
