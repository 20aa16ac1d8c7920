//! Runtime-agnostic safety checks over a set of OAR replicas.
//!
//! The propositions of the paper are statements about *server state*, not
//! about the machinery that drove the servers — so the checks live here as
//! free functions over `&[&OarServer]`, usable identically after a simulated
//! run ([`crate::Cluster`] delegates to them) and after a real-clock run on
//! the `oar-rtnet` backend, where there is no `World` to ask.
//!
//! Callers pass only *alive* servers: a replica still mid-catch-up
//! deliberately holds blank state until the transfer installs, so including
//! it would fail every comparison vacuously
//! ([`OarServer::is_recovering`] is the filter).

use std::collections::{HashMap, HashSet};

use crate::client::CompletedRequest;
use crate::message::RequestId;
use crate::server::OarServer;
use crate::state_machine::StateMachine;

/// Checks the server-side safety properties across the given (alive)
/// replicas:
///
/// * the committed sequences (stable + current optimistic deliveries) of
///   any two servers are prefix-compatible (Proposition 5, total order).
///   With log compaction a replica no longer retains its full settled
///   prefix, so the comparison is **compaction-aware**: the settled
///   prefixes are compared through the chained order-hash at the highest
///   common settled position, and the retained suffixes element-wise from
///   the higher of the two compaction bases;
/// * no request appears twice in a retained committed sequence
///   (Propositions 2–3, at-most-once);
/// * servers that delivered the same total number of requests (compacted
///   prefix included) have identical state-machine digests (determinism +
///   total order).
///
/// # Errors
///
/// Returns a human-readable description of the first violated property.
pub fn check_server_consistency<S: StateMachine>(servers: &[&OarServer<S>]) -> Result<(), String> {
    for server in servers {
        let p = server.id();
        let seq = server.committed_sequence();
        let mut seen = HashSet::new();
        for id in seq.iter() {
            if !seen.insert(*id) {
                return Err(format!("server {p} delivered {id} twice"));
            }
        }
    }
    for (i, srv_p) in servers.iter().enumerate() {
        for srv_q in &servers[i + 1..] {
            let (p, q) = (srv_p.id(), srv_q.id());
            // Settled prefixes: both replicas can compute the chain hash at
            // the highest position both have settled, unless one compacted
            // past the other's entire settled log (only possible while the
            // laggard is still far behind — nothing comparable remains then
            // and the digest check below still guards equal-length states).
            let m = srv_p.total_settled().min(srv_q.total_settled());
            if let (Some(hp), Some(hq)) = (srv_p.order_hash_at(m), srv_q.order_hash_at(m)) {
                if hp != hq {
                    return Err(format!(
                        "settled prefixes of {p} and {q} diverge at position {m}"
                    ));
                }
            }
            // Retained suffixes from the higher compaction base onward,
            // optimistic deliveries included: element-wise prefix
            // compatibility, exactly the pre-compaction check.
            let lo = srv_p.a_base().max(srv_q.a_base());
            let sp_all = srv_p.committed_sequence();
            let sq_all = srv_q.committed_sequence();
            let sp = sp_all.suffix_from(((lo - srv_p.a_base()) as usize).min(sp_all.len()));
            let sq = sq_all.suffix_from(((lo - srv_q.a_base()) as usize).min(sq_all.len()));
            if !(sp.is_prefix_of(&sq) || sq.is_prefix_of(&sp)) {
                return Err(format!(
                    "total order violated between {p} and {q}: {sp} vs {sq}"
                ));
            }
        }
    }
    // Digest equality for equal *total* delivery counts (compacted prefix +
    // retained log + current optimistic deliveries).
    let mut by_len: HashMap<u64, (oar_simnet::ProcessId, u64)> = HashMap::new();
    for server in servers {
        let s = server.id();
        let len = server.a_base() + server.committed_sequence().len() as u64;
        let digest = server.state_machine().digest();
        if let Some((other, other_digest)) = by_len.get(&len) {
            if *other_digest != digest {
                return Err(format!(
                    "servers {other} and {s} delivered {len} requests but diverge"
                ));
            }
        } else {
            by_len.insert(len, (s, digest));
        }
    }
    Ok(())
}

/// The global delivery position of every request `server` still retains
/// (settled log after the compaction base, plus the current optimistic
/// deliveries). Positions count from 1 across the compacted prefix: the
/// retained sequence starts at `a_base + 1`.
pub(crate) fn retained_positions<S: StateMachine>(
    server: &OarServer<S>,
) -> HashMap<RequestId, u64> {
    let base = server.a_base();
    server
        .committed_sequence()
        .iter()
        .enumerate()
        .map(|(i, id)| (*id, base + (i + 1) as u64))
        .collect()
}

/// Checks external consistency (Proposition 7) over the given (alive)
/// servers and the per-client completed-request logs: every response adopted
/// by a client matches, at every server that delivered the request without
/// undoing it, the position at which that server processed the request.
///
/// # Errors
///
/// Returns a human-readable description of the first mismatched adoption.
pub fn check_external_consistency<S: StateMachine>(
    servers: &[&OarServer<S>],
    clients: &[&[CompletedRequest<S::Response>]],
) -> Result<(), String> {
    let per_server: Vec<(oar_simnet::ProcessId, HashMap<RequestId, u64>)> = servers
        .iter()
        .map(|server| (server.id(), retained_positions(server)))
        .collect();
    for (c_idx, completed) in clients.iter().enumerate() {
        for done in *completed {
            for (s, positions) in &per_server {
                if let Some(&pos) = positions.get(&done.id) {
                    if pos != done.position {
                        return Err(format!(
                            "client {c_idx} adopted position {} for {} but server {s} settled it at {pos}",
                            done.position, done.id
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}
