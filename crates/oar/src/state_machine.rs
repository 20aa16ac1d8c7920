//! The replicated-service abstraction.
//!
//! Active replication requires the service to be a **deterministic state
//! machine**: every replica applies the same commands in the same order and
//! therefore produces the same responses. The OAR twist is that optimistic
//! deliveries may later be *undone* (the paper's `Opt-undeliver`), so the state
//! machine must also be able to roll back its most recent commands — the paper
//! suggests transactions / save-points (§6); here the contract is an explicit
//! undo token returned by [`StateMachine::apply`].

use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// The set of state keys one command reads or writes, used by the parallel
/// apply scheduler ([`crate::parallel`]) to decide which commands of a
/// delivery batch may execute concurrently.
///
/// Two commands **conflict** iff their key sets intersect; a command whose
/// footprint is unknown ([`KeySet::All`]) conflicts with every other command
/// and therefore always executes alone, in delivery order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeySet<'a> {
    /// Unknown footprint: conflicts with everything (the safe default).
    All,
    /// The command touches exactly these keys (duplicates are harmless).
    Keys(Vec<&'a str>),
}

impl KeySet<'_> {
    /// Whether the two key sets intersect — i.e. whether the owning commands
    /// conflict and must respect the delivery order.
    pub fn intersects(&self, other: &KeySet<'_>) -> bool {
        match (self, other) {
            (KeySet::All, _) | (_, KeySet::All) => true,
            (KeySet::Keys(a), KeySet::Keys(b)) => a.iter().any(|k| b.contains(k)),
        }
    }
}

/// Commands that can declare the keys they touch.
///
/// This is the conflict relation of Marandi & Pedone's *Optimistic Parallel
/// State-Machine Replication*: non-conflicting commands commute, so a replica
/// may apply them in parallel without breaking determinism. The key space is
/// the same one [`crate::shard::ShardKey`] routes by — a single-key command
/// returns its shard key; a multi-op ([`crate::txn::MultiOp`]) must return
/// the **union** of its members' keys, not one representative.
///
/// Implementations must be conservative: every key the command might read or
/// write has to be listed, and [`KeySet::All`] is always a correct (serial)
/// answer.
pub trait ConflictKeys {
    /// The keys this command reads or writes.
    fn conflict_keys(&self) -> KeySet<'_>;
}

/// The outcome of [`StateMachine::apply_batch`]: per-command results in
/// delivery order, plus the wave partition the applier used (all singleton
/// waves for serial application).
#[derive(Debug)]
pub struct AppliedBatch<S: StateMachine + ?Sized> {
    /// `(response, undo)` per command, in the order passed to `apply_batch`.
    pub results: Vec<(S::Response, S::Undo)>,
    /// Number of commands in each execution wave, in wave order.
    pub wave_sizes: Vec<u64>,
}

/// A deterministic, undoable replicated state machine.
///
/// Implementations must be deterministic: two instances that apply the same
/// sequence of commands must produce identical responses and identical
/// [`digest`](StateMachine::digest) values. `apply` followed by `undo` of the
/// returned token must restore the previous state exactly.
///
/// # Examples
///
/// ```
/// use oar::state_machine::{CounterMachine, CounterCommand, StateMachine};
///
/// let mut sm = CounterMachine::default();
/// let (response, token) = sm.apply(&CounterCommand::Add(5));
/// assert_eq!(response, 5);
/// sm.undo(token);
/// assert_eq!(sm.value(), 0);
/// ```
pub trait StateMachine: fmt::Debug + 'static {
    /// The request type submitted by clients.
    type Command: Clone + fmt::Debug + PartialEq + 'static;
    /// The response returned to clients.
    type Response: Clone + fmt::Debug + PartialEq + 'static;
    /// The token that allows one `apply` to be rolled back. `Clone` so a
    /// server's undo stack can be copied when the model checker forks a
    /// replica mid-epoch.
    type Undo: Clone + fmt::Debug + 'static;

    /// Applies `command`, returning the response for the client and an undo
    /// token. Determinism is required.
    fn apply(&mut self, command: &Self::Command) -> (Self::Response, Self::Undo);

    /// Rolls back a previous `apply`. Undo tokens are always applied in the
    /// reverse order of the corresponding `apply` calls (LIFO), as required by
    /// footnote 2 of the paper.
    fn undo(&mut self, token: Self::Undo);

    /// A deterministic digest of the current state.
    ///
    /// The server reads it at every epoch close, every snapshot, every
    /// catch-up install (to verify the transfer) and in every model-checker
    /// state fingerprint, so it must be **O(1)** and a function of the
    /// state's content only, not of the history that produced it: keep it
    /// incrementally on every mutation (an [`AdHash`] over the entries is
    /// the standard way) rather than scanning the state. A machine whose
    /// state arrives from another process ([`StateMachine::install`]) must
    /// recompute it from the installed content, not copy it from the image.
    fn digest(&self) -> u64;

    /// Applies one delivery batch in delivery order, returning per-command
    /// results plus the wave partition used.
    ///
    /// The default applies serially and ignores `workers`. Machines whose
    /// commands implement [`ConflictKeys`] can override it with
    /// [`crate::parallel::wave_apply`] to execute non-conflicting commands
    /// across a worker pool. Any override must stay **bit-identical** to
    /// this serial default — same responses, same undo tokens, same final
    /// state — because replicas mix both paths freely and the protocol's
    /// propositions are checked against the serial semantics.
    fn apply_batch(&mut self, commands: &[&Self::Command], workers: usize) -> AppliedBatch<Self>
    where
        Self: Sized,
    {
        let _ = workers;
        AppliedBatch {
            results: commands.iter().map(|c| self.apply(c)).collect(),
            wave_sizes: vec![1; commands.len()],
        }
    }

    /// Serializes the current state into a type-erased [`StateImage`], or
    /// `None` if the machine does not support snapshots.
    ///
    /// The default returns `None`; machines implementing [`Snapshottable`]
    /// should forward to [`Snapshottable::erased_snapshot`]. A machine
    /// without snapshots still recovers after a restart — just by full
    /// command replay instead of snapshot + delta, and without log
    /// compaction.
    fn snapshot(&self) -> Option<StateImage> {
        None
    }

    /// Replaces the current state with the one captured in `image`. Returns
    /// `false` (leaving the state untouched) if the machine does not support
    /// snapshots or the image is of a different concrete type.
    fn install(&mut self, image: &StateImage) -> bool {
        let _ = image;
        false
    }

    /// An independent copy of the machine, which may share structure
    /// copy-on-write with it, used when the model checker forks a replica at
    /// a scheduling choice. The default returns `None` ("not forkable");
    /// clonable machines override it with `Some(self.clone())`.
    fn fork(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    // -- Online shard migration hooks (all optional) ------------------------
    //
    // A machine that wants to participate in `Reconfig::Migrate` (key-range
    // hand-off between groups) implements the three methods below; machines
    // without a string key space (e.g. `CounterMachine`) keep the `None`
    // defaults and migration is simply unavailable for them.

    /// The shard key `command` is about, if the command space is keyed —
    /// mirrors [`crate::shard::ShardKey`] at the state-machine level, where
    /// the server (which is generic over `S`, not over the command's traits)
    /// can reach it. `None` = unkeyed (never door-checked against migrated
    /// ranges).
    fn command_key(command: &Self::Command) -> Option<&str> {
        let _ = command;
        None
    }

    /// Extracts the settled `(key, value)` pairs of `range` from the current
    /// state, in key order, and **removes them** — the donor half of a range
    /// hand-off, executed by every donor replica at the same point of the
    /// total order (the migration fence's epoch close), so donor digests
    /// stay aligned. `None` = migration unsupported.
    fn extract_range(&mut self, range: &crate::shard::KeyRange) -> Option<Vec<(String, String)>> {
        let _ = range;
        None
    }

    /// The command that installs extracted `entries` on the recipient group,
    /// fed through the recipient's **own total order** like any client
    /// request (so all recipient replicas install at the same position).
    /// Must be insert-if-absent: a redirected write ordered before the
    /// install wins over the migrated value. `None` = migration unsupported.
    fn install_range_command(entries: Vec<(String, String)>) -> Option<Self::Command> {
        let _ = entries;
        None
    }

    /// Deterministic digest over the `(key, value)` pairs of `range`
    /// currently in the state — the end-to-end check that donor and
    /// recipient agree on the migrated data. `None` = unsupported.
    fn range_digest(&self, range: &crate::shard::KeyRange) -> Option<u64> {
        let _ = range;
        None
    }
}

/// The canonical digest over a migrated range's `(key, value)` entries: the
/// donor stamps it onto the `MigrateState` hand-off, the recipient recomputes
/// it over the installed range ([`StateMachine::range_digest`]) — both sides
/// must use this one fold for the end-to-end check to mean anything.
///
/// It is the [`AdHash`] of the entries' [`entry_term`]s, i.e. the same sum a
/// keyed machine keeps incrementally over its whole store. Key and value are
/// hashed apart, so `("ab", "c")` and `("a", "bc")` differ.
pub fn entries_digest<K: AsRef<str>, V: AsRef<str>>(entries: &[(K, V)]) -> u64 {
    entries
        .iter()
        .map(|(k, v)| entry_term(str_hash(k.as_ref()), str_hash(v.as_ref())))
        .collect::<AdHash>()
        .value()
}

// ---------------------------------------------------------------------------
// Incremental state digests (AdHash: Bellare & Micciancio, "A New Paradigm
// for Collision-free Hashing: Incrementality at Reduced Cost", 1997).
// ---------------------------------------------------------------------------

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijective 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A hash of one string, eight bytes at a time. The length goes in first,
/// so the zero-padded last word is unambiguous and a key hashed apart from
/// its value can never run into it.
pub fn str_hash(s: &str) -> u64 {
    let step =
        |h: u64, word: [u8; 8]| (h.rotate_left(26) ^ u64::from_le_bytes(word)).wrapping_mul(GOLDEN);
    let bytes = s.as_bytes();
    let mut h = (bytes.len() as u64).wrapping_mul(GOLDEN);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = step(h, word.try_into().expect("an 8-byte chunk"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, last);
    }
    mix64(h)
}

/// The digest term of one keyed entry, from the hash of its key and the
/// hash of its value (integers may stand for themselves). Callers hash a
/// key once per mutation and reuse it for both the term they add and the
/// term of the value it replaces.
pub fn entry_term(key_hash: u64, value_hash: u64) -> u64 {
    mix64(key_hash ^ mix64(value_hash.wrapping_add(GOLDEN)))
}

/// A multiset hash: the wrapping sum of one term per entry. Adding or
/// removing an entry is O(1), and the value depends only on which entries
/// are present, never on the order or history that put them there — the
/// shape [`StateMachine::digest`] needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdHash(u64);

impl AdHash {
    /// Adds an entry's term.
    pub fn add(&mut self, term: u64) {
        self.0 = self.0.wrapping_add(term);
    }

    /// Removes an entry's term (which must have been added).
    pub fn remove(&mut self, term: u64) {
        self.0 = self.0.wrapping_sub(term);
    }

    /// The digest of the entries currently added.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The from-scratch digest of a whole set of entry terms.
impl FromIterator<u64> for AdHash {
    fn from_iter<I: IntoIterator<Item = u64>>(terms: I) -> Self {
        let mut sum = AdHash::default();
        terms.into_iter().for_each(|t| sum.add(t));
        sum
    }
}

/// A serialized state-machine image, stamped by the snapshot layer with its
/// delivery position and state digest (see `OarServer`'s snapshot record).
///
/// The payload is type-erased so protocol wires ([`crate::message::OarWire`])
/// can carry images without growing another generic parameter; the concrete
/// type is recovered by [`StateMachine::install`] on a machine of the same
/// type. In a real deployment this would be a byte buffer; in the simulator
/// an `Arc` keeps transfer cheap and deterministic: wrapping an image is one
/// allocation and cloning a `StateImage` (into a record, onto a wire) one
/// reference-count increment, whatever the state's size. What capturing and
/// installing the image cost is up to the machine ([`Snapshottable`]).
#[derive(Clone)]
pub struct StateImage(Arc<dyn Any + Send + Sync>);

impl StateImage {
    /// Wraps a concrete state value.
    pub fn new<T: Any + Send + Sync>(value: T) -> Self {
        StateImage(Arc::new(value))
    }

    /// Recovers the concrete state, if the image holds a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }
}

impl fmt::Debug for StateImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StateImage(..)")
    }
}

/// Equality on images is identity of the underlying allocation: images are
/// compared for protocol bookkeeping (wire `PartialEq` derives), never for
/// state equality — state equality is what digests are for.
impl PartialEq for StateImage {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The typed face of snapshot support: a machine picks a concrete `Image`
/// type and the blanket helpers erase/recover it for the wire layer.
///
/// **Cost.** A capture runs at the conservative close of every
/// `snapshot_every`-th epoch, on the delivery path, so it should not cost
/// O(state): an image that shares the live state's structure copy-on-write
/// (`KvMachine`'s shares its chunks) costs one pointer per shared part, and
/// the first later write to a part copies that part alone. An install runs
/// once per catch-up, on the rejoiner, and may cost O(state): it must
/// recompute the machine's digest from the installed content rather than
/// trust the image, so that the catch-up digest check means something.
///
/// Implementors override [`StateMachine::snapshot`]/[`StateMachine::install`]
/// by forwarding to [`Snapshottable::erased_snapshot`] and
/// [`Snapshottable::install_erased`]:
///
/// ```
/// use oar::state_machine::{Snapshottable, StateImage, StateMachine};
/// use oar::state_machine::{CounterCommand, CounterMachine};
///
/// let mut sm = CounterMachine::default();
/// sm.apply(&CounterCommand::Add(7));
/// let image = sm.snapshot().expect("counter supports snapshots");
/// let mut fresh = CounterMachine::default();
/// assert!(fresh.install(&image));
/// assert_eq!(fresh.digest(), sm.digest());
/// ```
pub trait Snapshottable: StateMachine {
    /// The concrete serialized form of this machine's state.
    type Image: Clone + Send + Sync + 'static;

    /// Captures the current state.
    fn snapshot_image(&self) -> Self::Image;

    /// Replaces the current state with `image`.
    fn install_image(&mut self, image: &Self::Image);

    /// Captures the current state as a type-erased [`StateImage`].
    fn erased_snapshot(&self) -> StateImage {
        StateImage::new(self.snapshot_image())
    }

    /// Installs a type-erased image; `false` if it is not a `Self::Image`.
    fn install_erased(&mut self, image: &StateImage) -> bool {
        match image.downcast_ref::<Self::Image>() {
            Some(concrete) => {
                self.install_image(concrete);
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// A tiny built-in state machine used by unit tests, doc tests and benches.
// Domain-specific services (stack, key-value store, bank) live in `oar-apps`.
// ---------------------------------------------------------------------------

/// Commands of the built-in counter service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterCommand {
    /// Add the given amount and return the new value.
    Add(i64),
    /// Return the current value without modifying it.
    Get,
}

/// A replicated counter: the smallest useful deterministic, undoable service.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterMachine {
    value: i64,
    applied: u64,
}

impl CounterMachine {
    /// The current counter value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Number of commands applied (and not undone).
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

/// Undo token of [`CounterMachine`].
#[derive(Clone, Debug)]
pub struct CounterUndo {
    delta: i64,
}

/// Every counter command touches the single shared cell, so all counter
/// commands conflict pairwise and the parallel scheduler degenerates to
/// serial waves — correct, just without speedup.
impl ConflictKeys for CounterCommand {
    fn conflict_keys(&self) -> KeySet<'_> {
        KeySet::Keys(vec!["counter"])
    }
}

impl StateMachine for CounterMachine {
    type Command = CounterCommand;
    type Response = i64;
    type Undo = CounterUndo;

    fn apply(&mut self, command: &CounterCommand) -> (i64, CounterUndo) {
        match *command {
            CounterCommand::Add(delta) => {
                self.value += delta;
                self.applied += 1;
                (self.value, CounterUndo { delta })
            }
            CounterCommand::Get => {
                self.applied += 1;
                (self.value, CounterUndo { delta: 0 })
            }
        }
    }

    fn undo(&mut self, token: CounterUndo) {
        self.value -= token.delta;
        self.applied -= 1;
    }

    fn digest(&self) -> u64 {
        // Simple mix of the two fields; deterministic and collision-resistant
        // enough for replica comparison in tests.
        (self.value as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.applied
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

impl Snapshottable for CounterMachine {
    type Image = CounterMachine;

    fn snapshot_image(&self) -> CounterMachine {
        self.clone()
    }

    fn install_image(&mut self, image: &CounterMachine) {
        *self = image.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_applies_and_replies_new_value() {
        let mut sm = CounterMachine::default();
        assert_eq!(sm.apply(&CounterCommand::Add(3)).0, 3);
        assert_eq!(sm.apply(&CounterCommand::Add(-1)).0, 2);
        assert_eq!(sm.apply(&CounterCommand::Get).0, 2);
        assert_eq!(sm.value(), 2);
        assert_eq!(sm.applied(), 3);
    }

    #[test]
    fn undo_restores_previous_state() {
        let mut sm = CounterMachine::default();
        let before = sm.digest();
        let (_, t1) = sm.apply(&CounterCommand::Add(10));
        let (_, t2) = sm.apply(&CounterCommand::Add(7));
        sm.undo(t2);
        sm.undo(t1);
        assert_eq!(sm.value(), 0);
        assert_eq!(sm.digest(), before);
    }

    #[test]
    fn determinism_same_commands_same_digest() {
        let commands = [
            CounterCommand::Add(4),
            CounterCommand::Get,
            CounterCommand::Add(-9),
        ];
        let mut a = CounterMachine::default();
        let mut b = CounterMachine::default();
        for c in &commands {
            let (ra, _) = a.apply(c);
            let (rb, _) = b.apply(c);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_states_have_different_digests() {
        let mut a = CounterMachine::default();
        let b = CounterMachine::default();
        a.apply(&CounterCommand::Add(1));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn key_sets_intersect_on_shared_keys_and_always_on_all() {
        let ab = KeySet::Keys(vec!["a", "b"]);
        let bc = KeySet::Keys(vec!["b", "c"]);
        let cd = KeySet::Keys(vec!["c", "d"]);
        assert!(ab.intersects(&bc));
        assert!(!ab.intersects(&cd));
        assert!(KeySet::All.intersects(&ab));
        assert!(ab.intersects(&KeySet::All));
        assert!(KeySet::All.intersects(&KeySet::All));
    }

    #[test]
    fn counter_commands_all_conflict() {
        let add = CounterCommand::Add(1).conflict_keys();
        let get = CounterCommand::Get.conflict_keys();
        assert!(add.intersects(&get));
    }

    #[test]
    fn snapshot_roundtrip_restores_digest_and_value() {
        let mut sm = CounterMachine::default();
        sm.apply(&CounterCommand::Add(42));
        sm.apply(&CounterCommand::Get);
        let image = sm.snapshot().expect("counter supports snapshots");
        let mut fresh = CounterMachine::default();
        assert!(fresh.install(&image));
        assert_eq!(fresh.value(), 42);
        assert_eq!(fresh.applied(), 2);
        assert_eq!(fresh.digest(), sm.digest());
    }

    #[test]
    fn install_rejects_an_image_of_a_different_type() {
        let mut sm = CounterMachine::default();
        sm.apply(&CounterCommand::Add(5));
        let alien = StateImage::new(String::from("not a counter"));
        assert!(!sm.install(&alien));
        assert_eq!(sm.value(), 5, "a rejected install leaves state untouched");
        assert!(alien.downcast_ref::<CounterMachine>().is_none());
    }

    #[test]
    fn state_image_equality_is_allocation_identity() {
        let sm = CounterMachine::default();
        let a = sm.snapshot().unwrap();
        let b = sm.snapshot().unwrap();
        assert_eq!(a, a.clone());
        assert_ne!(a, b, "identical state, distinct allocations");
    }

    /// Regression: key and value bytes used to be hashed back to back, so
    /// moving the boundary between them left the digest unchanged.
    #[test]
    fn entries_digest_marks_where_a_key_ends() {
        assert_ne!(
            entries_digest(&[("ab", "c")]),
            entries_digest(&[("a", "bc")])
        );
        assert_ne!(
            entries_digest(&[("", "abcdefgh")]),
            entries_digest(&[("abcdefgh", "")])
        );
    }

    #[test]
    fn str_hash_distinguishes_zero_padding_and_word_boundaries() {
        assert_ne!(str_hash("a"), str_hash("a\0"));
        assert_ne!(str_hash(""), str_hash("\0"));
        assert_ne!(str_hash("abcdefgh"), str_hash("abcdefgh\0"));
        assert_ne!(str_hash("abcdefghi"), str_hash("abcdefgih"));
    }

    #[test]
    fn adhash_is_order_free_and_removal_cancels_addition() {
        let forward: AdHash = [1, 2, 3].map(|v| entry_term(7, v)).into_iter().collect();
        let backward: AdHash = [3, 2, 1].map(|v| entry_term(7, v)).into_iter().collect();
        assert_eq!(forward, backward);
        let mut sum = forward;
        sum.add(entry_term(8, 4));
        sum.remove(entry_term(8, 4));
        assert_eq!(sum, forward);
        assert_ne!(entry_term(1, 2), entry_term(2, 1));
    }

    #[test]
    fn default_apply_batch_is_serial_and_matches_apply() {
        let commands = [
            CounterCommand::Add(4),
            CounterCommand::Get,
            CounterCommand::Add(-9),
        ];
        let refs: Vec<&CounterCommand> = commands.iter().collect();
        let mut batched = CounterMachine::default();
        let mut serial = CounterMachine::default();
        let out = batched.apply_batch(&refs, 8);
        let expected: Vec<i64> = commands.iter().map(|c| serial.apply(c).0).collect();
        let got: Vec<i64> = out.results.iter().map(|(r, _)| *r).collect();
        assert_eq!(got, expected);
        assert_eq!(out.wave_sizes, vec![1; commands.len()]);
        assert_eq!(batched.digest(), serial.digest());
    }
}
