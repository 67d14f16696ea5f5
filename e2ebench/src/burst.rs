//! `burst`: an administrator and four collaborators on a ~1k-element
//! document, every collaborator writing a burst of edits per exchange.
//!
//! One round:
//! 1. every collaborator reads its document and generates [`BURST`] edits
//!    (insert/delete/update 40:40:20), then its heartbeat;
//! 2. the administrator processes the four send queues in a seeded
//!    interleaving that keeps each sender's FIFO order, relaying every
//!    message and its validations to the other collaborators;
//! 3. the administrator gossips its heartbeat;
//! 4. every collaborator receives its relayed stream.
//!
//! Each edit is concurrent with the other collaborators' bursts of the
//! same round, so integration transforms against concurrent and logged
//! edits, and the compactor (armed at the server watermark) has bursty
//! traffic to settle.

use crate::run::{Config, Run};
use crate::star::{random_op, random_text, Star, DOC};
use crate::trace;
use dce_document::CharDocument;
use dce_obs::ObsHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Collaborator replicas.
pub const PEERS: u32 = 4;
/// Edits per collaborator per round.
pub const BURST: usize = 4;
/// Initial document length.
pub const DOC_LEN: usize = 1_000;
/// Insert : delete : update weights.
pub const MIX: (u32, u32, u32) = (40, 40, 20);
/// Set-ups timed per run (the median is reported).
pub const SETUPS: usize = 501;

/// Runs the workload.
pub fn run(cfg: &Config) -> Run {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let d0 = CharDocument::from_str(&random_text(&mut rng, DOC_LEN));
    let obs = if cfg.trace { ObsHandle::metrics_only() } else { ObsHandle::disabled() };

    let mut setup_s = Vec::new();
    let mut star = None;
    for _ in 0..if cfg.smoke { 3 } else { SETUPS } {
        drop(star.take());
        let t = Instant::now();
        star = Some(Star::build(PEERS, &d0, &obs, cfg.trace));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut star = star.expect("built at least once");
    star.run.setup_s = setup_s;

    if cfg.trace {
        trace::enable();
    }
    let start = Instant::now();
    while !cfg.load_done(&star.run, start) {
        trace::span("bench.round", || round(&mut star, &mut rng));
    }
    star.run.trace = trace::finish();
    let end = star.last_done.unwrap_or_else(Instant::now);
    star.run.active_s = (end - start).as_secs_f64();
    star.check_converged();
    if cfg.trace {
        star.probe_end(&obs);
    }
    star.run
}

fn round(star: &mut Star, rng: &mut StdRng) {
    for i in 0..star.peers.len() {
        for _ in 0..BURST {
            let doc = trace::span("core.document", || star.peers[i].engine.document(DOC))
                .expect("document hosted");
            let op = random_op(rng, MIX, doc.len(), |p| doc.get(p).expect("in range").0);
            if let Err(e) = star.generate(i, op) {
                star.run.problem(format!("user {}: generate failed: {e}", i + 1));
            }
        }
        star.peer_heartbeat(i);
    }
    // A seeded interleaving of the send queues, each kept in FIFO order.
    let mut senders: Vec<usize> = (0..star.peers.len()).collect();
    while !senders.is_empty() {
        let k = rng.gen_range(0..senders.len());
        star.admin_step(senders[k]);
        if !star.has_to_admin(senders[k]) {
            senders.swap_remove(k);
        }
    }
    star.admin_heartbeat();
    for i in 0..star.peers.len() {
        star.deliver(i);
    }
    star.check_nothing_refused();
}
