//! A replicated bank with transactional semantics.
//!
//! The conclusion of the OAR paper singles out transactional environments as
//! the natural fit for the algorithm: each optimistic delivery opens a
//! transaction (or declares a save-point) that is committed when the epoch
//! confirms the order and aborted when the request is `Opt-undeliver`ed. This
//! bank models that: every command's undo token is exactly the save-point that
//! rolls the accounts back.

use std::collections::BTreeMap;

use oar::state_machine::{entry_term, AdHash, Snapshottable, StateImage, StateMachine};

/// Account identifier.
pub type AccountId = u32;
/// Money amounts (integer cents; no floats in a deterministic service).
pub type Amount = i64;

/// Commands of the replicated bank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BankCommand {
    /// Create an account with an initial balance.
    Open {
        /// New account id.
        account: AccountId,
        /// Initial balance.
        initial: Amount,
    },
    /// Deposit into an account.
    Deposit {
        /// Target account.
        account: AccountId,
        /// Amount to add (must be positive).
        amount: Amount,
    },
    /// Withdraw from an account; fails (without effect) on insufficient funds.
    Withdraw {
        /// Source account.
        account: AccountId,
        /// Amount to remove (must be positive).
        amount: Amount,
    },
    /// Transfer between two accounts; fails on insufficient funds.
    Transfer {
        /// Source account.
        from: AccountId,
        /// Destination account.
        to: AccountId,
        /// Amount to move.
        amount: Amount,
    },
    /// Read a balance.
    Balance {
        /// Account to read.
        account: AccountId,
    },
}

/// Responses of the replicated bank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BankResponse {
    /// Operation applied; the new balance of the touched (source) account.
    Ok(Amount),
    /// Read result.
    Balance(Option<Amount>),
    /// The operation was rejected (unknown account, insufficient funds,
    /// duplicate open, non-positive amount).
    Rejected(BankError),
}

/// Why a bank command was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankError {
    /// The account does not exist.
    NoSuchAccount,
    /// The account already exists.
    AlreadyExists,
    /// Insufficient funds for a withdrawal or transfer.
    InsufficientFunds,
    /// The amount was not strictly positive.
    InvalidAmount,
}

/// Undo token: the save-point capturing the balances touched by the command.
#[derive(Clone, Debug)]
pub struct BankUndo {
    /// `(account, balance-before)` pairs; `None` means the account did not
    /// exist before the command.
    touched: Vec<(AccountId, Option<Amount>)>,
}

/// A deterministic, undoable bank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankMachine {
    accounts: BTreeMap<AccountId, Amount>,
    ops: u64,
    /// The [`AdHash`] of `accounts`, kept in step by [`BankMachine::set`]
    /// and [`BankMachine::adjust`] (the only writers of `accounts`) so
    /// [`StateMachine::digest`] is O(1).
    entries: AdHash,
}

/// The digest term of one account.
fn term(account: AccountId, balance: Amount) -> u64 {
    entry_term(account as u64, balance as u64)
}

/// The from-scratch [`AdHash`] of `accounts` — what `entries` must always
/// equal.
fn hash_entries(accounts: &BTreeMap<AccountId, Amount>) -> AdHash {
    accounts.iter().map(|(&a, &b)| term(a, b)).collect()
}

impl BankMachine {
    /// Creates a bank with no accounts.
    pub fn new() -> Self {
        BankMachine::default()
    }

    /// Creates a bank with `accounts` accounts numbered `0..accounts`, each
    /// holding `initial`.
    pub fn with_accounts(accounts: u32, initial: Amount) -> Self {
        let accounts = (0..accounts).map(|a| (a, initial)).collect();
        BankMachine {
            entries: hash_entries(&accounts),
            accounts,
            ops: 0,
        }
    }

    /// The balance of `account`, if it exists.
    pub fn balance(&self, account: AccountId) -> Option<Amount> {
        self.accounts.get(&account).copied()
    }

    /// Sum of all balances — conserved by every successful transfer.
    pub fn total_funds(&self) -> Amount {
        self.accounts.values().sum()
    }

    /// Number of accounts.
    pub fn num_accounts(&self) -> usize {
        self.accounts.len()
    }

    /// Number of operations applied and not undone.
    pub fn operations(&self) -> u64 {
        self.ops
    }

    /// Sets `account` to `balance` (`None` = closes it).
    fn set(&mut self, account: AccountId, balance: Option<Amount>) {
        let previous = match balance {
            Some(b) => {
                self.entries.add(term(account, b));
                self.accounts.insert(account, b)
            }
            None => self.accounts.remove(&account),
        };
        if let Some(old) = previous {
            self.entries.remove(term(account, old));
        }
    }

    /// Adds `delta` to the existing `account`, returning the new balance.
    fn adjust(&mut self, account: AccountId, delta: Amount) -> Amount {
        let balance = self
            .accounts
            .get_mut(&account)
            .expect("callers check the account exists");
        self.entries.remove(term(account, *balance));
        *balance += delta;
        self.entries.add(term(account, *balance));
        *balance
    }

    fn save(&self, accounts: &[AccountId]) -> BankUndo {
        BankUndo {
            touched: accounts
                .iter()
                .map(|&a| (a, self.accounts.get(&a).copied()))
                .collect(),
        }
    }
}

impl StateMachine for BankMachine {
    type Command = BankCommand;
    type Response = BankResponse;
    type Undo = BankUndo;

    fn apply(&mut self, command: &BankCommand) -> (BankResponse, BankUndo) {
        self.ops += 1;
        match *command {
            BankCommand::Open { account, initial } => {
                let undo = self.save(&[account]);
                if initial < 0 {
                    return (BankResponse::Rejected(BankError::InvalidAmount), undo);
                }
                if self.accounts.contains_key(&account) {
                    return (BankResponse::Rejected(BankError::AlreadyExists), undo);
                }
                self.set(account, Some(initial));
                (BankResponse::Ok(initial), undo)
            }
            BankCommand::Deposit { account, amount } => {
                let undo = self.save(&[account]);
                if amount <= 0 {
                    return (BankResponse::Rejected(BankError::InvalidAmount), undo);
                }
                if !self.accounts.contains_key(&account) {
                    return (BankResponse::Rejected(BankError::NoSuchAccount), undo);
                }
                (BankResponse::Ok(self.adjust(account, amount)), undo)
            }
            BankCommand::Withdraw { account, amount } => {
                let undo = self.save(&[account]);
                if amount <= 0 {
                    return (BankResponse::Rejected(BankError::InvalidAmount), undo);
                }
                match self.accounts.get(&account) {
                    None => (BankResponse::Rejected(BankError::NoSuchAccount), undo),
                    Some(&balance) if balance < amount => {
                        (BankResponse::Rejected(BankError::InsufficientFunds), undo)
                    }
                    Some(_) => (BankResponse::Ok(self.adjust(account, -amount)), undo),
                }
            }
            BankCommand::Transfer { from, to, amount } => {
                let undo = self.save(&[from, to]);
                if amount <= 0 {
                    return (BankResponse::Rejected(BankError::InvalidAmount), undo);
                }
                if !self.accounts.contains_key(&from) || !self.accounts.contains_key(&to) {
                    return (BankResponse::Rejected(BankError::NoSuchAccount), undo);
                }
                let from_balance = self.accounts[&from];
                if from_balance < amount {
                    return (BankResponse::Rejected(BankError::InsufficientFunds), undo);
                }
                let from_after = self.adjust(from, -amount);
                self.adjust(to, amount);
                (BankResponse::Ok(from_after), undo)
            }
            BankCommand::Balance { account } => {
                let undo = BankUndo {
                    touched: Vec::new(),
                };
                (
                    BankResponse::Balance(self.accounts.get(&account).copied()),
                    undo,
                )
            }
        }
    }

    fn undo(&mut self, token: BankUndo) {
        self.ops -= 1;
        // Restore in reverse order so a command touching the same account twice
        // (not possible today, but harmless) still restores the oldest value.
        for (account, previous) in token.touched.into_iter().rev() {
            self.set(account, previous);
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

/// Snapshots are a full copy of the ledger (accounts + op counter).
impl Snapshottable for BankMachine {
    type Image = BankMachine;

    fn snapshot_image(&self) -> BankMachine {
        self.clone()
    }

    /// Re-hashes the installed ledger rather than trusting the image's
    /// digest (see [`crate::kv::KvMachine`]'s `install_image`).
    fn install_image(&mut self, image: &BankMachine) {
        self.accounts = image.accounts.clone();
        self.ops = image.ops;
        self.entries = hash_entries(&self.accounts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_deposit_withdraw() {
        let mut bank = BankMachine::new();
        assert_eq!(
            bank.apply(&BankCommand::Open {
                account: 1,
                initial: 100
            })
            .0,
            BankResponse::Ok(100)
        );
        assert_eq!(
            bank.apply(&BankCommand::Deposit {
                account: 1,
                amount: 50
            })
            .0,
            BankResponse::Ok(150)
        );
        assert_eq!(
            bank.apply(&BankCommand::Withdraw {
                account: 1,
                amount: 70
            })
            .0,
            BankResponse::Ok(80)
        );
        assert_eq!(bank.balance(1), Some(80));
    }

    #[test]
    fn rejections_have_no_effect() {
        let mut bank = BankMachine::with_accounts(2, 10);
        let before = bank.clone();
        assert_eq!(
            bank.apply(&BankCommand::Withdraw {
                account: 0,
                amount: 100
            })
            .0,
            BankResponse::Rejected(BankError::InsufficientFunds)
        );
        assert_eq!(
            bank.apply(&BankCommand::Deposit {
                account: 9,
                amount: 5
            })
            .0,
            BankResponse::Rejected(BankError::NoSuchAccount)
        );
        assert_eq!(
            bank.apply(&BankCommand::Deposit {
                account: 0,
                amount: 0
            })
            .0,
            BankResponse::Rejected(BankError::InvalidAmount)
        );
        assert_eq!(
            bank.apply(&BankCommand::Open {
                account: 0,
                initial: 5
            })
            .0,
            BankResponse::Rejected(BankError::AlreadyExists)
        );
        assert_eq!(bank.accounts, before.accounts);
    }

    #[test]
    fn transfer_conserves_total_funds() {
        let mut bank = BankMachine::with_accounts(3, 100);
        let total = bank.total_funds();
        bank.apply(&BankCommand::Transfer {
            from: 0,
            to: 1,
            amount: 30,
        });
        bank.apply(&BankCommand::Transfer {
            from: 1,
            to: 2,
            amount: 130,
        });
        assert_eq!(bank.total_funds(), total);
        assert_eq!(bank.balance(0), Some(70));
        assert_eq!(bank.balance(1), Some(0));
        assert_eq!(bank.balance(2), Some(230));
    }

    #[test]
    fn failed_transfer_is_a_no_op() {
        let mut bank = BankMachine::with_accounts(2, 10);
        let (r, _) = bank.apply(&BankCommand::Transfer {
            from: 0,
            to: 1,
            amount: 50,
        });
        assert_eq!(r, BankResponse::Rejected(BankError::InsufficientFunds));
        assert_eq!(bank.balance(0), Some(10));
        assert_eq!(bank.balance(1), Some(10));
    }

    #[test]
    fn undo_rolls_back_transfers_like_a_transaction_abort() {
        let mut bank = BankMachine::with_accounts(2, 100);
        let before = bank.clone();
        let (_, u1) = bank.apply(&BankCommand::Transfer {
            from: 0,
            to: 1,
            amount: 40,
        });
        let (_, u2) = bank.apply(&BankCommand::Deposit {
            account: 0,
            amount: 5,
        });
        bank.undo(u2);
        bank.undo(u1);
        assert_eq!(bank, before);
    }

    #[test]
    fn undo_of_open_removes_the_account() {
        let mut bank = BankMachine::new();
        let (_, undo) = bank.apply(&BankCommand::Open {
            account: 7,
            initial: 3,
        });
        assert_eq!(bank.num_accounts(), 1);
        bank.undo(undo);
        assert_eq!(bank.num_accounts(), 0);
    }

    #[test]
    fn balance_query_is_read_only() {
        let mut bank = BankMachine::with_accounts(1, 5);
        let (r, undo) = bank.apply(&BankCommand::Balance { account: 0 });
        assert_eq!(r, BankResponse::Balance(Some(5)));
        bank.undo(undo);
        assert_eq!(bank.balance(0), Some(5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_command() -> impl Strategy<Value = BankCommand> {
        let account = 0u32..4;
        prop_oneof![
            (account.clone(), 1i64..100)
                .prop_map(|(account, amount)| BankCommand::Deposit { account, amount }),
            (account.clone(), 1i64..100)
                .prop_map(|(account, amount)| BankCommand::Withdraw { account, amount }),
            (account.clone(), account.clone(), 1i64..100)
                .prop_map(|(from, to, amount)| BankCommand::Transfer { from, to, amount }),
            account
                .clone()
                .prop_map(|account| BankCommand::Balance { account }),
            (4u32..8, 0i64..50)
                .prop_map(|(account, initial)| BankCommand::Open { account, initial }),
        ]
    }

    proptest! {
        /// Transfers (successful or not) never create or destroy money.
        #[test]
        fn conservation_of_funds(commands in proptest::collection::vec(arb_command(), 0..50)) {
            let mut bank = BankMachine::with_accounts(4, 100);
            let mut expected_total = bank.total_funds();
            for c in &commands {
                let (response, _) = bank.apply(c);
                match (c, &response) {
                    (BankCommand::Deposit { amount, .. }, BankResponse::Ok(_)) => expected_total += amount,
                    (BankCommand::Withdraw { amount, .. }, BankResponse::Ok(_)) => expected_total -= amount,
                    (BankCommand::Open { initial, .. }, BankResponse::Ok(_)) => expected_total += initial,
                    _ => {}
                }
                prop_assert_eq!(bank.total_funds(), expected_total);
            }
        }

        /// Reverse-order undo restores the exact initial state.
        #[test]
        fn apply_then_undo_roundtrip(commands in proptest::collection::vec(arb_command(), 0..50)) {
            let mut bank = BankMachine::with_accounts(4, 100);
            let before = bank.clone();
            let mut undos = Vec::new();
            for c in &commands {
                let (_, u) = bank.apply(c);
                undos.push(u);
            }
            for u in undos.into_iter().rev() {
                bank.undo(u);
            }
            prop_assert_eq!(bank, before);
        }

        /// Balances never go negative.
        #[test]
        fn no_negative_balances(commands in proptest::collection::vec(arb_command(), 0..50)) {
            let mut bank = BankMachine::with_accounts(4, 100);
            for c in &commands {
                bank.apply(c);
                for a in 0..8 {
                    if let Some(b) = bank.balance(a) {
                        prop_assert!(b >= 0, "account {a} went negative: {b}");
                    }
                }
            }
        }
    }

    /// The digest recomputed from scratch: a full scan of the ledger.
    fn scanned_digest(bank: &BankMachine) -> u64 {
        bank.accounts.iter().fold(0u64, |h, (&a, &b)| {
            h.wrapping_add(entry_term(a as u64, b as u64))
        }) ^ bank.ops
    }

    /// One step: `Some` applies, `None` undoes the most recent token still
    /// on the stack.
    fn arb_step() -> impl Strategy<Value = Option<BankCommand>> {
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
            let mut bank = BankMachine::with_accounts(4, 100);
            prop_assert_eq!(bank.digest(), scanned_digest(&bank));
            let mut undos = Vec::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Some(c) => undos.push(bank.apply(&c).1),
                    None => {
                        if let Some(u) = undos.pop() {
                            bank.undo(u);
                        }
                    }
                }
                if i % 10 == 9 {
                    let image = bank.snapshot().expect("bank supports snapshots");
                    bank = BankMachine::new();
                    prop_assert!(bank.install(&image));
                }
                prop_assert_eq!(bank.digest(), scanned_digest(&bank));
            }
        }

        /// Equal ledgers reached through different histories have equal
        /// digests: a transfer and its reversal against two reads, and an
        /// undone suffix against one never applied.
        #[test]
        fn equal_contents_have_equal_digests(
            amount in 1i64..100,
            undone in proptest::collection::vec(arb_command(), 0..10),
        ) {
            let mut there_and_back = BankMachine::with_accounts(4, 100);
            there_and_back.apply(&BankCommand::Transfer { from: 0, to: 1, amount });
            there_and_back.apply(&BankCommand::Transfer { from: 1, to: 0, amount });
            let mut reads = BankMachine::with_accounts(4, 100);
            reads.apply(&BankCommand::Balance { account: 0 });
            reads.apply(&BankCommand::Balance { account: 1 });
            let tokens: Vec<BankUndo> = undone.iter().map(|c| reads.apply(c).1).collect();
            for token in tokens.into_iter().rev() {
                reads.undo(token);
            }
            prop_assert_eq!(there_and_back.digest(), reads.digest());
        }

        /// snapshot → install → delta replay reproduces the donor's digest.
        #[test]
        fn install_then_replay_reproduces_the_donor(
            prefix in proptest::collection::vec(arb_command(), 0..30),
            delta in proptest::collection::vec(arb_command(), 0..30),
        ) {
            let mut donor = BankMachine::with_accounts(4, 100);
            for c in &prefix {
                donor.apply(c);
            }
            let image = donor.snapshot().expect("bank supports snapshots");
            let mut rejoiner = BankMachine::with_accounts(2, 7);
            prop_assert!(rejoiner.install(&image));
            for c in &delta {
                donor.apply(c);
                rejoiner.apply(c);
            }
            prop_assert_eq!(rejoiner.digest(), donor.digest());
        }

        /// An image whose balances were edited after capture installs with
        /// a digest of its own content, so it no longer matches its donor.
        #[test]
        fn an_edited_image_no_longer_matches_its_donor(
            prefix in proptest::collection::vec(arb_command(), 0..30),
            account in 0u32..4,
            skew in 1i64..50,
        ) {
            let mut donor = BankMachine::with_accounts(4, 100);
            for c in &prefix {
                donor.apply(c);
            }
            let mut image = donor.snapshot_image();
            *image.accounts.get_mut(&account).expect("accounts 0..4 stay open") += skew;
            let mut rejoiner = BankMachine::new();
            rejoiner.install_image(&image);
            prop_assert_ne!(rejoiner.digest(), donor.digest());
            prop_assert_eq!(rejoiner.digest(), scanned_digest(&rejoiner));
        }
    }
}
