//! The correctness oracle every workload runs after every round.
//!
//! Besides the repository's own proposition checks, the settled order is
//! rebuilt from the positions the clients adopted and replayed on one bare
//! `KvMachine` — the single-node reference. Every adopted response and every
//! replica's final state must equal the replay's. Replicas compact their
//! logs, so the adopted positions are the only complete record of the order;
//! that they are exactly `1..=n` is the check that no reply was lost or
//! duplicated.

use oar::state_machine::StateMachine;
use oar::{check_external_consistency, check_server_consistency, CompletedRequest, OarServer};
use oar_apps::{KvCommand, KvMachine, KvResponse};

pub type Server = OarServer<KvMachine>;

/// One request as a client saw it settle.
pub struct Settled<'a> {
    pub position: u64,
    pub command: &'a KvCommand,
    pub response: &'a KvResponse,
}

/// Replays `settled` (any order) and compares with `replicas`, which must all
/// have delivered everything. Returns the violations found and how many of the
/// `attempted` requests they fail: the unanswered and the wrongly answered
/// ones, or all of them when the order itself or a replica's state is wrong.
pub fn check_replay(
    label: &str,
    mut settled: Vec<Settled<'_>>,
    attempted: usize,
    replicas: &[&Server],
) -> (Vec<String>, usize) {
    let mut errors = Vec::new();
    let unanswered = attempted.saturating_sub(settled.len());
    if unanswered > 0 {
        errors.push(format!(
            "{label}: {unanswered} of {attempted} requests never answered"
        ));
    }
    settled.sort_by_key(|s| s.position);
    let mut reference = KvMachine::new();
    let mut wrong = 0;
    for (i, s) in settled.iter().enumerate() {
        if s.position != i as u64 + 1 {
            errors.push(format!(
                "{label}: adopted positions are not 1..={}: position {} at rank {}",
                settled.len(),
                s.position,
                i + 1
            ));
            return (errors, attempted);
        }
        let (response, _undo) = reference.apply(s.command);
        if &response != s.response {
            wrong += 1;
            if wrong <= 8 {
                errors.push(format!(
                    "{label}: position {} adopted {:?}, the single-node replay answers {:?}",
                    s.position, s.response, response
                ));
            }
        }
    }
    let mut diverged = false;
    for replica in replicas {
        let delivered = replica.state_machine().operations();
        if delivered != settled.len() as u64 {
            diverged = true;
            errors.push(format!(
                "{label}: replica {} delivered {delivered} of {} requests",
                replica.id(),
                settled.len()
            ));
        } else if replica.state_machine().digest() != reference.digest() {
            diverged = true;
            errors.push(format!(
                "{label}: replica {} diverges from the single-node replay",
                replica.id()
            ));
        }
    }
    let failed = if diverged {
        attempted
    } else {
        unanswered + wrong
    };
    (errors, failed)
}

/// The whole oracle for one unsharded group: the repository's server and
/// external consistency checks, then the replay.
pub fn check_group(
    replicas: &[&Server],
    commands: &[&[KvCommand]],
    completed: &[&[CompletedRequest<KvResponse>]],
) -> (Vec<String>, usize) {
    let attempted: usize = commands.iter().map(|c| c.len()).sum();
    let mut errors = Vec::new();
    if let Err(e) = check_server_consistency(replicas) {
        errors.push(format!("server consistency: {e}"));
    }
    if let Err(e) = check_external_consistency(replicas, completed) {
        errors.push(format!("external consistency: {e}"));
    }
    let settled = commands
        .iter()
        .zip(completed)
        .flat_map(|(commands, completed)| {
            completed.iter().map(|done| Settled {
                position: done.position,
                command: &commands[done.index],
                response: &done.response,
            })
        })
        .collect();
    let (replay_errors, failed) = check_replay("group", settled, attempted, replicas);
    let failed = if errors.is_empty() { failed } else { attempted };
    errors.extend(replay_errors);
    (errors, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Replays `commands` in order and returns what a correct group would
    /// have the clients adopt.
    fn adopted(commands: &[KvCommand]) -> Vec<KvResponse> {
        let mut machine = KvMachine::new();
        commands.iter().map(|c| machine.apply(c).0).collect()
    }

    fn settled<'a>(
        commands: &'a [KvCommand],
        responses: &'a [KvResponse],
        positions: &[u64],
    ) -> Vec<Settled<'a>> {
        positions
            .iter()
            .enumerate()
            .map(|(i, &position)| Settled {
                position,
                command: &commands[i],
                response: &responses[i],
            })
            .collect()
    }

    #[test]
    fn a_faithful_history_passes_in_any_order() {
        let commands = gen::commands(5, 200);
        let responses = adopted(&commands);
        let positions: Vec<u64> = (1..=200).collect();
        let mut history = settled(&commands, &responses, &positions);
        history.reverse();
        let (errors, wrong) = check_replay("t", history, 200, &[]);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(wrong, 0);
    }

    #[test]
    fn lost_duplicated_and_wrong_replies_are_caught() {
        let commands = gen::commands(5, 200);
        let responses = adopted(&commands);
        let positions: Vec<u64> = (1..=200).collect();

        let mut lost = settled(&commands, &responses, &positions);
        lost.pop();
        let (errors, wrong) = check_replay("t", lost, 200, &[]);
        assert_eq!((errors.len(), wrong), (1, 1));

        let mut twice = positions.clone();
        twice[100] = 100;
        let (errors, wrong) = check_replay("t", settled(&commands, &responses, &twice), 200, &[]);
        assert!(!errors.is_empty());
        assert_eq!(wrong, 200);

        let mut lied = responses.clone();
        lied[7] = KvResponse::Swapped(true);
        let (errors, wrong) = check_replay("t", settled(&commands, &lied, &positions), 200, &[]);
        assert_eq!((errors.len(), wrong), (1, 1));
    }
}
