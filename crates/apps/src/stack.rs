//! The replicated stack of the paper's Figure 1.
//!
//! The introduction of the OAR paper motivates external inconsistency with a
//! replicated stack: a client pushes `x`, another pops, and a mis-ordered
//! sequencer run makes one client observe a value that the final order
//! contradicts. This module implements that stack as a deterministic, undoable
//! [`StateMachine`] so the scenario can be replayed both on the unsafe
//! fixed-sequencer baseline (where the inconsistency shows up) and on OAR
//! (where it cannot).

use oar::state_machine::{entry_term, AdHash, Snapshottable, StateImage, StateMachine};

/// Commands of the replicated stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackCommand {
    /// Push a value.
    Push(i64),
    /// Pop the top value (returns `None` when empty, like the paper's `pop():-`).
    Pop,
    /// Read the top value without removing it.
    Peek,
    /// Return the current depth.
    Len,
}

/// Responses of the replicated stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackResponse {
    /// Result of a push: the new depth.
    Pushed(usize),
    /// Result of a pop: the removed value, if any.
    Popped(Option<i64>),
    /// Result of a peek.
    Top(Option<i64>),
    /// Result of a len query.
    Depth(usize),
}

/// Undo token of the stack.
#[derive(Clone, Debug)]
pub enum StackUndo {
    /// Undo a push: remove the top element.
    UnPush,
    /// Undo a pop that removed `0`: push the value back.
    UnPop(Option<i64>),
    /// Read-only command: nothing to undo.
    Nothing,
}

/// A deterministic, undoable LIFO stack.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StackMachine {
    items: Vec<i64>,
    ops: u64,
    /// The [`AdHash`] of `items`, one term per (position, value), kept in
    /// step by [`StackMachine::push`] and [`StackMachine::pop`] (the only
    /// writers of `items`) so [`StateMachine::digest`] is O(1).
    entries: AdHash,
}

/// The digest term of the item at `position` (0 = bottom).
fn term(position: usize, value: i64) -> u64 {
    entry_term(position as u64, value as u64)
}

impl StackMachine {
    /// Creates an empty stack.
    pub fn new() -> Self {
        StackMachine::default()
    }

    /// The current contents, bottom first.
    pub fn items(&self) -> &[i64] {
        &self.items
    }

    /// Number of operations applied (and not undone).
    pub fn operations(&self) -> u64 {
        self.ops
    }

    fn push(&mut self, value: i64) {
        self.entries.add(term(self.items.len(), value));
        self.items.push(value);
    }

    fn pop(&mut self) -> Option<i64> {
        let value = self.items.pop()?;
        self.entries.remove(term(self.items.len(), value));
        Some(value)
    }
}

impl StateMachine for StackMachine {
    type Command = StackCommand;
    type Response = StackResponse;
    type Undo = StackUndo;

    fn apply(&mut self, command: &StackCommand) -> (StackResponse, StackUndo) {
        self.ops += 1;
        match command {
            StackCommand::Push(v) => {
                self.push(*v);
                (StackResponse::Pushed(self.items.len()), StackUndo::UnPush)
            }
            StackCommand::Pop => {
                let popped = self.pop();
                (StackResponse::Popped(popped), StackUndo::UnPop(popped))
            }
            StackCommand::Peek => (
                StackResponse::Top(self.items.last().copied()),
                StackUndo::Nothing,
            ),
            StackCommand::Len => (StackResponse::Depth(self.items.len()), StackUndo::Nothing),
        }
    }

    fn undo(&mut self, token: StackUndo) {
        self.ops -= 1;
        match token {
            StackUndo::UnPush => {
                self.pop();
            }
            StackUndo::UnPop(Some(v)) => self.push(v),
            StackUndo::UnPop(None) | StackUndo::Nothing => {}
        }
    }

    fn digest(&self) -> u64 {
        self.entries.value() ^ self.ops
    }

    fn snapshot(&self) -> Option<StateImage> {
        Some(self.erased_snapshot())
    }

    fn install(&mut self, image: &StateImage) -> bool {
        self.install_erased(image)
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }
}

/// Snapshots are a full copy of the stack (items + op counter).
impl Snapshottable for StackMachine {
    type Image = StackMachine;

    fn snapshot_image(&self) -> StackMachine {
        self.clone()
    }

    /// Re-hashes the installed items rather than trusting the image's
    /// digest (see [`crate::kv::KvMachine`]'s `install_image`).
    fn install_image(&mut self, image: &StackMachine) {
        self.items = image.items.clone();
        self.ops = image.ops;
        self.entries = self
            .items
            .iter()
            .enumerate()
            .map(|(i, &v)| term(i, v))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_good_run_semantics() {
        // Paper Fig. 1(a): stack contains {y}; order seq(pop; push(x)).
        let mut sm = StackMachine::new();
        sm.apply(&StackCommand::Push(7)); // y = 7
        let (pop_reply, _) = sm.apply(&StackCommand::Pop);
        assert_eq!(pop_reply, StackResponse::Popped(Some(7)));
        let (push_reply, _) = sm.apply(&StackCommand::Push(3)); // x = 3
        assert_eq!(push_reply, StackResponse::Pushed(1));
        assert_eq!(sm.items(), &[3]);
    }

    #[test]
    fn figure1_inconsistent_order_gives_different_replies() {
        // Paper Fig. 1(b): with the opposite order seq(push(x); pop), the pop
        // returns x — the reply the client must never adopt under OAR.
        let mut sm = StackMachine::new();
        sm.apply(&StackCommand::Push(7)); // y
        sm.apply(&StackCommand::Push(3)); // x first
        let (pop_reply, _) = sm.apply(&StackCommand::Pop);
        assert_eq!(pop_reply, StackResponse::Popped(Some(3)));
    }

    #[test]
    fn pop_on_empty_stack() {
        let mut sm = StackMachine::new();
        let (reply, undo) = sm.apply(&StackCommand::Pop);
        assert_eq!(reply, StackResponse::Popped(None));
        sm.undo(undo);
        assert_eq!(sm.items(), &[] as &[i64]);
        assert_eq!(sm.operations(), 0);
    }

    #[test]
    fn undo_restores_exact_state() {
        let mut sm = StackMachine::new();
        sm.apply(&StackCommand::Push(1));
        let before = sm.digest();
        let (_, u1) = sm.apply(&StackCommand::Push(2));
        let (_, u2) = sm.apply(&StackCommand::Pop);
        let (_, u3) = sm.apply(&StackCommand::Peek);
        sm.undo(u3);
        sm.undo(u2);
        sm.undo(u1);
        assert_eq!(sm.digest(), before);
        assert_eq!(sm.items(), &[1]);
    }

    #[test]
    fn peek_and_len_do_not_modify() {
        let mut sm = StackMachine::new();
        sm.apply(&StackCommand::Push(5));
        let (top, _) = sm.apply(&StackCommand::Peek);
        let (depth, _) = sm.apply(&StackCommand::Len);
        assert_eq!(top, StackResponse::Top(Some(5)));
        assert_eq!(depth, StackResponse::Depth(1));
        assert_eq!(sm.items(), &[5]);
    }

    #[test]
    fn determinism_across_replicas() {
        let script = [
            StackCommand::Push(1),
            StackCommand::Push(2),
            StackCommand::Pop,
            StackCommand::Push(3),
            StackCommand::Peek,
        ];
        let mut a = StackMachine::new();
        let mut b = StackMachine::new();
        for c in &script {
            assert_eq!(a.apply(c).0, b.apply(c).0);
        }
        assert_eq!(a.digest(), b.digest());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_command() -> impl Strategy<Value = StackCommand> {
        prop_oneof![
            (0i64..100).prop_map(StackCommand::Push),
            Just(StackCommand::Pop),
            Just(StackCommand::Peek),
            Just(StackCommand::Len),
        ]
    }

    proptest! {
        /// Applying a batch of commands and undoing them in reverse order
        /// restores the exact initial state — the contract `Opt-undeliver`
        /// relies on.
        #[test]
        fn apply_then_undo_roundtrip(commands in proptest::collection::vec(arb_command(), 0..40)) {
            let mut sm = StackMachine::new();
            sm.apply(&StackCommand::Push(42));
            let before_items = sm.items().to_vec();
            let before_digest = sm.digest();
            let mut undos = Vec::new();
            for c in &commands {
                let (_, u) = sm.apply(c);
                undos.push(u);
            }
            for u in undos.into_iter().rev() {
                sm.undo(u);
            }
            prop_assert_eq!(sm.items(), &before_items[..]);
            prop_assert_eq!(sm.digest(), before_digest);
        }

        /// Two replicas applying the same command sequence stay identical.
        #[test]
        fn replicas_converge(commands in proptest::collection::vec(arb_command(), 0..40)) {
            let mut a = StackMachine::new();
            let mut b = StackMachine::new();
            for c in &commands {
                prop_assert_eq!(a.apply(c).0, b.apply(c).0);
            }
            prop_assert_eq!(a.digest(), b.digest());
            prop_assert_eq!(a.items(), b.items());
        }
    }

    /// The digest recomputed from scratch: a full scan of the items.
    fn scanned_digest(sm: &StackMachine) -> u64 {
        sm.items.iter().enumerate().fold(0u64, |h, (i, &v)| {
            h.wrapping_add(entry_term(i as u64, v as u64))
        }) ^ sm.ops
    }

    /// One step: `Some` applies, `None` undoes the most recent token still
    /// on the stack.
    fn arb_step() -> impl Strategy<Value = Option<StackCommand>> {
        prop_oneof![
            arb_command().prop_map(Some),
            arb_command().prop_map(Some),
            Just(None),
        ]
    }

    proptest! {
        /// Differential: after every apply, undo and (every tenth step) a
        /// reinstall from its own snapshot, the incremental digest equals
        /// the one recomputed from scratch.
        #[test]
        fn incremental_digest_matches_a_full_scan(
            steps in proptest::collection::vec(arb_step(), 0..60),
        ) {
            let mut sm = StackMachine::new();
            let mut undos = Vec::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Some(c) => undos.push(sm.apply(&c).1),
                    None => {
                        if let Some(u) = undos.pop() {
                            sm.undo(u);
                        }
                    }
                }
                if i % 10 == 9 {
                    let image = sm.snapshot().expect("stack supports snapshots");
                    sm = StackMachine::new();
                    prop_assert!(sm.install(&image));
                }
                prop_assert_eq!(sm.digest(), scanned_digest(&sm));
            }
        }

        /// Equal stacks reached through different histories have equal
        /// digests: a push-then-pop against two reads, and an undone suffix
        /// against one never applied.
        #[test]
        fn equal_contents_have_equal_digests(
            items in proptest::collection::vec(0i64..100, 0..10),
            pushed in 0i64..100,
            undone in proptest::collection::vec(arb_command(), 0..10),
        ) {
            let mut a = StackMachine::new();
            let mut b = StackMachine::new();
            for &v in &items {
                a.apply(&StackCommand::Push(v));
                b.apply(&StackCommand::Push(v));
            }
            a.apply(&StackCommand::Push(pushed));
            a.apply(&StackCommand::Pop);
            b.apply(&StackCommand::Peek);
            b.apply(&StackCommand::Len);
            let tokens: Vec<StackUndo> = undone.iter().map(|c| b.apply(c).1).collect();
            for token in tokens.into_iter().rev() {
                b.undo(token);
            }
            prop_assert_eq!(a.digest(), b.digest());
        }

        /// snapshot → install → delta replay reproduces the donor's digest.
        #[test]
        fn install_then_replay_reproduces_the_donor(
            prefix in proptest::collection::vec(arb_command(), 0..30),
            delta in proptest::collection::vec(arb_command(), 0..30),
        ) {
            let mut donor = StackMachine::new();
            for c in &prefix {
                donor.apply(c);
            }
            let image = donor.snapshot().expect("stack supports snapshots");
            let mut rejoiner = StackMachine::new();
            rejoiner.apply(&StackCommand::Push(-1));
            prop_assert!(rejoiner.install(&image));
            for c in &delta {
                donor.apply(c);
                rejoiner.apply(c);
            }
            prop_assert_eq!(rejoiner.digest(), donor.digest());
        }

        /// An image whose items were edited after capture installs with a
        /// digest of its own content, so it no longer matches its donor.
        #[test]
        fn an_edited_image_no_longer_matches_its_donor(
            prefix in proptest::collection::vec(arb_command(), 0..30),
            extra in 0i64..100,
        ) {
            let mut donor = StackMachine::new();
            for c in &prefix {
                donor.apply(c);
            }
            let mut image = donor.snapshot_image();
            match image.items.first_mut() {
                Some(bottom) => *bottom += 1,
                None => image.items.push(extra),
            }
            let mut rejoiner = StackMachine::new();
            rejoiner.install_image(&image);
            prop_assert_ne!(rejoiner.digest(), donor.digest());
            prop_assert_eq!(rejoiner.digest(), scanned_digest(&rejoiner));
        }
    }
}
