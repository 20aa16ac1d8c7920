//! A replicated key-value store.
//!
//! The store is the "generic service" used by the examples and the throughput
//! experiments: writes, reads, deletes, atomic compare-and-swap, and atomic
//! multi-op batches (the per-group partition of a multi-key transaction) —
//! all deterministic and undoable so that optimistic deliveries can be
//! rolled back.
//!
//! The store is copy-on-write (path copying, Driscoll, Sarnak, Sleator &
//! Tarjan, *Making Data Structures Persistent*, 1989): its entries live in
//! hash-partitioned chunks behind `Arc`s, so a snapshot, an installed image
//! and a fork share every chunk, and a write copies only the chunk it
//! touches.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use oar::parallel::ParallelStateMachine;
use oar::shard::ShardKey;
use oar::state_machine::{
    entry_term, str_hash, AdHash, AppliedBatch, ConflictKeys, KeySet, Snapshottable, StateImage,
    StateMachine,
};
use oar::txn::MultiOp;

/// Keys are small strings; values are strings too (the protocol does not care).
pub type Key = String;
/// Value type of the store.
pub type Value = String;

/// Commands of the key-value store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvCommand {
    /// Write `value` under `key`, returning the previous value.
    Put {
        /// The key to write.
        key: Key,
        /// The value to store.
        value: Value,
    },
    /// Read the value under `key`.
    Get {
        /// The key to read.
        key: Key,
    },
    /// Remove `key`, returning the removed value.
    Delete {
        /// The key to remove.
        key: Key,
    },
    /// Write `new` under `key` only if the current value equals `expected`.
    CompareAndSwap {
        /// The key to update.
        key: Key,
        /// Expected current value (`None` = key absent).
        expected: Option<Value>,
        /// New value to store on success.
        new: Value,
    },
    /// Apply several commands atomically, in order, as **one** delivery.
    ///
    /// This is the per-group partition of a multi-key transaction
    /// ([`oar::txn`]): within the owning group's total order the whole batch
    /// occupies a single position, so no replica ever observes a prefix of
    /// it. The ops must be non-empty ([`KvCommand::key`] — and therefore
    /// client-side routing — panics on an empty batch), must not themselves
    /// be `Multi`, and in a sharded deployment must all be owned by one
    /// group (the transaction layer's router guarantees all three).
    Multi(Vec<KvCommand>),
    /// Install the entries of a migrated key range (the recipient half of an
    /// online shard migration, [`oar::ReconfigCmd::Migrate`]), atomically at
    /// one position of the recipient group's total order.
    ///
    /// **Insert-if-absent**: a key already present locally wins — it was
    /// written by a redirected request ordered *before* this install, and
    /// the migrated (older) value must not clobber it. Servers craft this
    /// command from a `MigrateState` hand-off; clients never send it.
    InstallRange(Vec<(Key, Value)>),
}

impl KvCommand {
    /// The key this command is about. For `Multi`, the first op's key —
    /// sufficient for routing, because a `Multi` built by the transaction
    /// layer only ever holds ops of one owning group. **Not** sufficient for
    /// conflict detection: use [`ConflictKeys::conflict_keys`], which reports
    /// the union of a `Multi`'s member keys.
    pub fn key(&self) -> &str {
        match self {
            KvCommand::Put { key, .. }
            | KvCommand::Get { key }
            | KvCommand::Delete { key }
            | KvCommand::CompareAndSwap { key, .. } => key,
            KvCommand::Multi(ops) => ops.first().expect("non-empty multi").key(),
            KvCommand::InstallRange(entries) => {
                entries.first().map(|(k, _)| k.as_str()).unwrap_or_default()
            }
        }
    }

    /// Appends every key this command touches (members recursively for
    /// `Multi`) to `keys`.
    fn collect_keys<'a>(&'a self, keys: &mut Vec<&'a str>) {
        match self {
            KvCommand::Put { key, .. }
            | KvCommand::Get { key }
            | KvCommand::Delete { key }
            | KvCommand::CompareAndSwap { key, .. } => keys.push(key),
            KvCommand::Multi(ops) => {
                for op in ops {
                    op.collect_keys(keys);
                }
            }
            KvCommand::InstallRange(entries) => {
                for (k, _) in entries {
                    keys.push(k);
                }
            }
        }
    }
}

/// The conflict footprint of a command is exactly the keys it reads or
/// writes. A `Multi` conflicts on the **union** of its member keys — its
/// routing key ([`KvCommand::key`], the first member's) would miss conflicts
/// on every other member, so two `Multi`s with disjoint key sets may share a
/// wave while overlapping ones keep their delivery order.
impl ConflictKeys for KvCommand {
    fn conflict_keys(&self) -> KeySet<'_> {
        let mut keys = Vec::new();
        self.collect_keys(&mut keys);
        KeySet::Keys(keys)
    }
}

/// Every simple command touches exactly one key, so the store shards
/// naturally: per-key ordering is the owning group's total order. A `Multi`
/// batch routes by its first key (all its keys share one owning group).
impl ShardKey for KvCommand {
    fn shard_key(&self) -> &str {
        self.key()
    }
}

/// The store supports atomic per-group transaction partitions: `multi`
/// simply wraps the ops, and [`KvMachine::apply`] applies the batch in one
/// delivery.
impl MultiOp for KvCommand {
    fn multi(ops: Vec<KvCommand>) -> KvCommand {
        KvCommand::Multi(ops)
    }
}

/// Responses of the key-value store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvResponse {
    /// Previous value (for `Put` / `Delete`).
    Previous(Option<Value>),
    /// Read result.
    Value(Option<Value>),
    /// Whether a compare-and-swap succeeded.
    Swapped(bool),
    /// Responses of an atomic `Multi` batch, one per op, in op order.
    Multi(Vec<KvResponse>),
    /// Number of keys an `InstallRange` actually inserted (keys already
    /// present — written by redirected requests ordered earlier — are
    /// skipped and not counted).
    Installed(u64),
}

/// Undo token: the key touched and the value it held before the command.
#[derive(Clone, Debug)]
pub enum KvUndo {
    /// Restore `key` to `previous` (which may be "absent").
    Restore {
        /// The key to restore.
        key: Key,
        /// The value before the command (`None` = key was absent).
        previous: Option<Value>,
    },
    /// Read-only command: nothing to undo.
    Nothing,
    /// Undo tokens of a `Multi` batch, already reversed so they are rolled
    /// back in reverse op order.
    Multi(Vec<KvUndo>),
}

/// The mean number of entries per chunk the store keeps to. A snapshot
/// copies one pointer per chunk and the first write to a chunk after it
/// copies that chunk's entries, so a small load keeps both cheap.
const CHUNK_LOAD: usize = 4;

/// One hash partition of the store, shared by every copy of the store until
/// one of them writes to it.
type Chunk = BTreeMap<Key, Value>;

/// A map from keys to values, split by key hash into a power-of-two number
/// of chunks that copies share copy-on-write. The chunk count follows the
/// size: it doubles when the mean load passes [`CHUNK_LOAD`] and halves when
/// it drops below one, and an empty map holds no chunk.
///
/// Equality and `Debug` are over the content, in key order, whatever the
/// chunk layout.
#[derive(Clone, Default)]
struct ChunkedMap {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl ChunkedMap {
    /// The index of the chunk `key_hash` falls in, out of `count` (a power
    /// of two).
    fn slot(key_hash: u64, count: usize) -> usize {
        key_hash as usize & (count - 1)
    }

    /// The chunk `key_hash` falls in; `None` while the map is empty.
    fn chunk(&self, key_hash: u64) -> Option<&Chunk> {
        (!self.chunks.is_empty()).then(|| &*self.chunks[Self::slot(key_hash, self.chunks.len())])
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.chunk(str_hash(key))?.get(key)
    }

    /// Writes `key = value`, `key_hash` being `str_hash(key)`; un-shares
    /// the one chunk the key falls in.
    fn insert(&mut self, key: Key, key_hash: u64, value: Value) -> Option<Value> {
        if self.chunks.is_empty() {
            self.chunks.push(Arc::default());
        }
        let slot = Self::slot(key_hash, self.chunks.len());
        let previous = Arc::make_mut(&mut self.chunks[slot]).insert(key, value);
        if previous.is_none() {
            self.len += 1;
            if self.len > CHUNK_LOAD * self.chunks.len() {
                self.repartition(2 * self.chunks.len());
            }
        }
        previous
    }

    /// Removes `key`, `key_hash` being `str_hash(key)`. A chunk that does
    /// not hold the key stays shared.
    fn remove(&mut self, key: &str, key_hash: u64) -> Option<Value> {
        if !self.chunk(key_hash)?.contains_key(key) {
            return None;
        }
        let slot = Self::slot(key_hash, self.chunks.len());
        let previous = Arc::make_mut(&mut self.chunks[slot]).remove(key);
        self.len -= 1;
        if self.len == 0 {
            self.chunks.clear();
        } else if self.len < self.chunks.len() {
            self.repartition(self.chunks.len() / 2);
        }
        previous
    }

    /// Re-distributes every entry over `count` chunks. Amortised O(1) per
    /// write: the count doubles or halves, and only past a factor-two gap.
    fn repartition(&mut self, count: usize) {
        let mut chunks = vec![Chunk::new(); count];
        for chunk in std::mem::take(&mut self.chunks) {
            for (key, value) in Arc::unwrap_or_clone(chunk) {
                chunks[Self::slot(str_hash(&key), count)].insert(key, value);
            }
        }
        self.chunks = chunks.into_iter().map(Arc::new).collect();
    }

    /// Every entry, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Every entry, in key order.
    fn sorted(&self) -> Vec<(&Key, &Value)> {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        entries
    }
}

impl PartialEq for ChunkedMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl Eq for ChunkedMap {}

impl fmt::Debug for ChunkedMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted()).finish()
    }
}

/// A deterministic, undoable key-value store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvMachine {
    map: ChunkedMap,
    ops: u64,
    /// The [`AdHash`] of `map`, so [`StateMachine::digest`] is O(1). Every
    /// write of `map` goes through [`KvMachine::put_entry`] or
    /// [`KvMachine::remove_entry`], which keep it in step; `install_image`
    /// recomputes it.
    entries: AdHash,
}

/// The digest term of the entry `key = value`, `key_hash` being
/// `str_hash(key)`.
fn term(key_hash: u64, value: &str) -> u64 {
    entry_term(key_hash, str_hash(value))
}

/// The from-scratch [`AdHash`] of `map` — what `entries` must always equal.
fn hash_entries(map: &ChunkedMap) -> AdHash {
    map.iter().map(|(k, v)| term(str_hash(k), v)).collect()
}

impl KvMachine {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvMachine::default()
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.len == 0
    }

    /// Direct read access (for tests and examples).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.map.get(key)
    }

    /// Number of operations applied and not undone.
    pub fn operations(&self) -> u64 {
        self.ops
    }
}

impl KvMachine {
    /// Writes `key = value`, returning the replaced value. The key is hashed
    /// once, for the term added and the term of the value it replaces.
    fn put_entry(&mut self, key: Key, value: Value) -> Option<Value> {
        let key_hash = str_hash(&key);
        self.entries.add(term(key_hash, &value));
        let previous = self.map.insert(key, key_hash, value);
        if let Some(old) = &previous {
            self.entries.remove(term(key_hash, old));
        }
        previous
    }

    /// Removes `key`, returning its value.
    fn remove_entry(&mut self, key: &str) -> Option<Value> {
        let key_hash = str_hash(key);
        let previous = self.map.remove(key, key_hash);
        if let Some(old) = &previous {
            self.entries.remove(term(key_hash, old));
        }
        previous
    }

    /// Applies one command without touching the operation counter (so a
    /// whole `Multi` batch counts as a single operation — one delivery, one
    /// position in the replicated order).
    fn apply_inner(&mut self, command: &KvCommand) -> (KvResponse, KvUndo) {
        match command {
            KvCommand::Put { key, value } => {
                let previous = self.put_entry(key.clone(), value.clone());
                (
                    KvResponse::Previous(previous.clone()),
                    KvUndo::Restore {
                        key: key.clone(),
                        previous,
                    },
                )
            }
            KvCommand::Get { key } => (
                KvResponse::Value(self.map.get(key).cloned()),
                KvUndo::Nothing,
            ),
            KvCommand::Delete { key } => {
                let previous = self.remove_entry(key);
                (
                    KvResponse::Previous(previous.clone()),
                    KvUndo::Restore {
                        key: key.clone(),
                        previous,
                    },
                )
            }
            KvCommand::CompareAndSwap { key, expected, new } => {
                let current = self.map.get(key).cloned();
                if &current == expected {
                    self.put_entry(key.clone(), new.clone());
                    (
                        KvResponse::Swapped(true),
                        KvUndo::Restore {
                            key: key.clone(),
                            previous: current,
                        },
                    )
                } else {
                    (KvResponse::Swapped(false), KvUndo::Nothing)
                }
            }
            KvCommand::Multi(ops) => {
                let mut responses = Vec::with_capacity(ops.len());
                let mut undos = Vec::with_capacity(ops.len());
                for op in ops {
                    let (response, undo) = self.apply_inner(op);
                    responses.push(response);
                    undos.push(undo);
                }
                // Rolled back in reverse op order, like any undo stack.
                undos.reverse();
                (KvResponse::Multi(responses), KvUndo::Multi(undos))
            }
            KvCommand::InstallRange(entries) => {
                let mut undos = Vec::new();
                for (key, value) in entries {
                    if self.map.get(key).is_none() {
                        self.put_entry(key.clone(), value.clone());
                        undos.push(KvUndo::Restore {
                            key: key.clone(),
                            previous: None,
                        });
                    }
                }
                let installed = undos.len() as u64;
                undos.reverse();
                (KvResponse::Installed(installed), KvUndo::Multi(undos))
            }
        }
    }

    /// Reads `key` as staged execution would see it: the overlay (this
    /// command's own earlier writes, `None` = deleted) shadows the map.
    fn staged_read(&self, overlay: &BTreeMap<Key, Option<Value>>, key: &str) -> Option<Value> {
        match overlay.get(key) {
            Some(value) => value.clone(),
            None => self.map.get(key).cloned(),
        }
    }

    /// Stages one command without mutating the store: the response and undo
    /// are computed against `map ∪ overlay`, and every write lands in both
    /// the overlay (so later `Multi` members see it) and `writes` (the
    /// effect replayed by [`ParallelStateMachine::commit`]).
    fn stage_inner(
        &self,
        command: &KvCommand,
        overlay: &mut BTreeMap<Key, Option<Value>>,
        writes: &mut Vec<(Key, Option<Value>)>,
    ) -> (KvResponse, KvUndo) {
        fn write(
            overlay: &mut BTreeMap<Key, Option<Value>>,
            writes: &mut Vec<(Key, Option<Value>)>,
            key: &Key,
            value: Option<Value>,
        ) {
            overlay.insert(key.clone(), value.clone());
            writes.push((key.clone(), value));
        }
        match command {
            KvCommand::Put { key, value } => {
                let previous = self.staged_read(overlay, key);
                write(overlay, writes, key, Some(value.clone()));
                (
                    KvResponse::Previous(previous.clone()),
                    KvUndo::Restore {
                        key: key.clone(),
                        previous,
                    },
                )
            }
            KvCommand::Get { key } => (
                KvResponse::Value(self.staged_read(overlay, key)),
                KvUndo::Nothing,
            ),
            KvCommand::Delete { key } => {
                let previous = self.staged_read(overlay, key);
                write(overlay, writes, key, None);
                (
                    KvResponse::Previous(previous.clone()),
                    KvUndo::Restore {
                        key: key.clone(),
                        previous,
                    },
                )
            }
            KvCommand::CompareAndSwap { key, expected, new } => {
                let current = self.staged_read(overlay, key);
                if &current == expected {
                    write(overlay, writes, key, Some(new.clone()));
                    (
                        KvResponse::Swapped(true),
                        KvUndo::Restore {
                            key: key.clone(),
                            previous: current,
                        },
                    )
                } else {
                    (KvResponse::Swapped(false), KvUndo::Nothing)
                }
            }
            KvCommand::Multi(ops) => {
                let mut responses = Vec::with_capacity(ops.len());
                let mut undos = Vec::with_capacity(ops.len());
                for op in ops {
                    let (response, undo) = self.stage_inner(op, overlay, writes);
                    responses.push(response);
                    undos.push(undo);
                }
                undos.reverse();
                (KvResponse::Multi(responses), KvUndo::Multi(undos))
            }
            KvCommand::InstallRange(entries) => {
                let mut undos = Vec::new();
                for (key, value) in entries {
                    if self.staged_read(overlay, key).is_none() {
                        write(overlay, writes, key, Some(value.clone()));
                        undos.push(KvUndo::Restore {
                            key: key.clone(),
                            previous: None,
                        });
                    }
                }
                let installed = undos.len() as u64;
                undos.reverse();
                (KvResponse::Installed(installed), KvUndo::Multi(undos))
            }
        }
    }

    fn undo_inner(&mut self, token: KvUndo) {
        match token {
            KvUndo::Restore { key, previous } => match previous {
                Some(v) => {
                    self.put_entry(key, v);
                }
                None => {
                    self.remove_entry(&key);
                }
            },
            KvUndo::Nothing => {}
            KvUndo::Multi(tokens) => {
                for token in tokens {
                    self.undo_inner(token);
                }
            }
        }
    }
}

/// The staged write-set of one command: `(key, new value)` pairs in op
/// order, `None` meaning the key is removed. Replaying them serially is
/// exactly the command's mutation.
#[derive(Debug)]
pub struct KvEffect {
    writes: Vec<(Key, Option<Value>)>,
}

/// Staged apply for the wave executor ([`oar::parallel::wave_apply`]):
/// `stage` computes response, undo and write-set against the wave-start
/// state (a private overlay gives `Multi` members their left-to-right
/// visibility), `commit` replays the writes. For commands whose key sets are
/// disjoint — the only ones a wave contains — this is bit-identical to
/// [`StateMachine::apply`].
impl ParallelStateMachine for KvMachine {
    type Effect = KvEffect;

    fn stage(&self, command: &KvCommand) -> (KvResponse, KvUndo, KvEffect) {
        let mut overlay = BTreeMap::new();
        let mut writes = Vec::new();
        let (response, undo) = self.stage_inner(command, &mut overlay, &mut writes);
        (response, undo, KvEffect { writes })
    }

    fn commit(&mut self, effect: KvEffect) {
        self.ops += 1;
        for (key, value) in effect.writes {
            match value {
                Some(v) => {
                    self.put_entry(key, v);
                }
                None => {
                    self.remove_entry(&key);
                }
            }
        }
    }
}

impl StateMachine for KvMachine {
    type Command = KvCommand;
    type Response = KvResponse;
    type Undo = KvUndo;

    fn apply(&mut self, command: &KvCommand) -> (KvResponse, KvUndo) {
        self.ops += 1;
        self.apply_inner(command)
    }

    /// Conflict-graph wave scheduling: non-conflicting commands of the batch
    /// are staged concurrently across `workers` threads, bit-identically to
    /// the serial default (the differential proptests below pin this down).
    fn apply_batch(&mut self, commands: &[&KvCommand], workers: usize) -> AppliedBatch<Self> {
        oar::parallel::wave_apply(self, commands, workers)
    }

    fn undo(&mut self, token: KvUndo) {
        self.ops -= 1;
        self.undo_inner(token);
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

    fn command_key(command: &KvCommand) -> Option<&str> {
        match command {
            // Server-crafted; never door-checked against migrated ranges.
            KvCommand::InstallRange(_) => None,
            keyed => Some(keyed.key()),
        }
    }

    fn extract_range(&mut self, range: &oar::KeyRange) -> Option<Vec<(Key, Value)>> {
        let mut keys: Vec<Key> = self
            .map
            .iter()
            .filter(|(k, _)| range.contains(k))
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_unstable();
        Some(
            keys.into_iter()
                .map(|k| {
                    let v = self.remove_entry(&k).expect("key just listed");
                    (k, v)
                })
                .collect(),
        )
    }

    fn install_range_command(entries: Vec<(Key, Value)>) -> Option<KvCommand> {
        Some(KvCommand::InstallRange(entries))
    }

    fn range_digest(&self, range: &oar::KeyRange) -> Option<u64> {
        // The digest is a sum over the entries, so they need no sorting.
        let entries: Vec<(&Key, &Value)> =
            self.map.iter().filter(|(k, _)| range.contains(k)).collect();
        Some(oar::state_machine::entries_digest(&entries))
    }
}

/// A snapshot is a copy of the store that shares every chunk with it: taking
/// one copies a pointer per chunk, O(len / `CHUNK_LOAD`), and the first later
/// write to a chunk, on either side, copies that chunk alone. In the
/// simulator the image stands for the byte buffer a real deployment would
/// serialize.
impl Snapshottable for KvMachine {
    type Image = KvMachine;

    fn snapshot_image(&self) -> KvMachine {
        self.clone()
    }

    /// Shares the image's chunks, but its digest is not trusted: state that
    /// arrives from another process is re-hashed from its content, O(len),
    /// so an image whose content no longer matches its donor fails the
    /// catch-up digest check.
    fn install_image(&mut self, image: &KvMachine) {
        self.map = image.map.clone();
        self.ops = image.ops;
        self.entries = hash_entries(&self.map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(key: &str, value: &str) -> KvCommand {
        KvCommand::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    #[test]
    fn put_get_delete_cycle() {
        let mut kv = KvMachine::new();
        let (r, _) = kv.apply(&put("a", "1"));
        assert_eq!(r, KvResponse::Previous(None));
        let (r, _) = kv.apply(&KvCommand::Get { key: "a".into() });
        assert_eq!(r, KvResponse::Value(Some("1".into())));
        let (r, _) = kv.apply(&put("a", "2"));
        assert_eq!(r, KvResponse::Previous(Some("1".into())));
        let (r, _) = kv.apply(&KvCommand::Delete { key: "a".into() });
        assert_eq!(r, KvResponse::Previous(Some("2".into())));
        assert!(kv.is_empty());
        assert_eq!(kv.operations(), 4);
    }

    #[test]
    fn shard_key_is_the_command_key() {
        assert_eq!(put("a", "1").key(), "a");
        assert_eq!(KvCommand::Get { key: "b".into() }.key(), "b");
        assert_eq!(KvCommand::Delete { key: "c".into() }.shard_key(), "c");
        assert_eq!(
            KvCommand::CompareAndSwap {
                key: "d".into(),
                expected: None,
                new: "v".into(),
            }
            .shard_key(),
            "d"
        );
    }

    #[test]
    fn compare_and_swap_success_and_failure() {
        let mut kv = KvMachine::new();
        kv.apply(&put("x", "old"));
        let (r, _) = kv.apply(&KvCommand::CompareAndSwap {
            key: "x".into(),
            expected: Some("old".into()),
            new: "new".into(),
        });
        assert_eq!(r, KvResponse::Swapped(true));
        let (r, _) = kv.apply(&KvCommand::CompareAndSwap {
            key: "x".into(),
            expected: Some("old".into()),
            new: "newer".into(),
        });
        assert_eq!(r, KvResponse::Swapped(false));
        assert_eq!(kv.get("x"), Some(&"new".to_string()));
    }

    #[test]
    fn cas_on_absent_key() {
        let mut kv = KvMachine::new();
        let (r, undo) = kv.apply(&KvCommand::CompareAndSwap {
            key: "k".into(),
            expected: None,
            new: "v".into(),
        });
        assert_eq!(r, KvResponse::Swapped(true));
        kv.undo(undo);
        assert!(kv.get("k").is_none());
    }

    #[test]
    fn multi_applies_atomically_and_counts_as_one_operation() {
        let mut kv = KvMachine::new();
        kv.apply(&put("a", "0"));
        let before = kv.digest();
        let ops_before = kv.operations();
        let (r, undo) = kv.apply(&KvCommand::Multi(vec![
            put("a", "1"),
            put("b", "2"),
            KvCommand::CompareAndSwap {
                key: "a".into(),
                expected: Some("1".into()),
                new: "1'".into(),
            },
            KvCommand::Get { key: "b".into() },
        ]));
        // Per-op responses in op order; later ops see earlier ops' writes.
        assert_eq!(
            r,
            KvResponse::Multi(vec![
                KvResponse::Previous(Some("0".into())),
                KvResponse::Previous(None),
                KvResponse::Swapped(true),
                KvResponse::Value(Some("2".into())),
            ])
        );
        assert_eq!(kv.get("a"), Some(&"1'".to_string()));
        assert_eq!(kv.operations(), ops_before + 1, "one delivery, one op");
        kv.undo(undo);
        assert_eq!(kv.digest(), before, "multi undo restores the exact state");
        assert_eq!(kv.get("a"), Some(&"0".to_string()));
        assert!(kv.get("b").is_none());
    }

    #[test]
    fn multi_routes_by_its_first_key() {
        let multi = KvCommand::Multi(vec![put("x", "1"), put("y", "2")]);
        assert_eq!(multi.key(), "x");
        assert_eq!(multi.shard_key(), "x");
    }

    /// Regression: a `Multi` must conflict on the **union** of its member
    /// keys. Keying it by its routing key (the first member's) would let
    /// `Multi[x,y]` share a wave with a command touching `y`.
    #[test]
    fn multi_conflicts_on_the_union_of_member_keys() {
        let multi = KvCommand::Multi(vec![put("x", "1"), put("y", "2")]);
        assert_eq!(multi.conflict_keys(), KeySet::Keys(vec!["x", "y"]));
        assert!(multi
            .conflict_keys()
            .intersects(&KvCommand::Get { key: "y".into() }.conflict_keys()));
        assert!(!multi
            .conflict_keys()
            .intersects(&KvCommand::Get { key: "z".into() }.conflict_keys()));
    }

    /// Regression: two `Multi`s with disjoint key sets schedule in the same
    /// wave, while a third overlapping one waits — with first-key-only
    /// granularity the planner would either miss the `b`–`b` conflict or
    /// serialise the disjoint pair, depending on the representative chosen.
    #[test]
    fn disjoint_key_multis_schedule_in_the_same_wave() {
        let batch = [
            KvCommand::Multi(vec![put("a", "1"), put("b", "2")]),
            KvCommand::Multi(vec![put("c", "3"), put("d", "4")]),
            KvCommand::Multi(vec![put("e", "5"), put("b", "6")]),
        ];
        let refs: Vec<&KvCommand> = batch.iter().collect();
        assert_eq!(oar::parallel::plan_waves(&refs), vec![vec![0, 1], vec![2]]);
    }

    /// stage + commit ≡ apply, command by command (the contract the wave
    /// executor relies on), including `Multi` members seeing earlier
    /// members' writes.
    #[test]
    fn stage_commit_matches_apply() {
        let commands = [
            put("a", "0"),
            KvCommand::Multi(vec![
                put("a", "1"),
                KvCommand::Get { key: "a".into() },
                KvCommand::Delete { key: "a".into() },
                KvCommand::Get { key: "a".into() },
            ]),
            KvCommand::CompareAndSwap {
                key: "b".into(),
                expected: None,
                new: "v".into(),
            },
            KvCommand::Delete { key: "b".into() },
        ];
        let mut staged = KvMachine::new();
        let mut serial = KvMachine::new();
        for command in &commands {
            let (r1, u1, effect) = staged.stage(command);
            staged.commit(effect);
            let (r2, u2) = serial.apply(command);
            assert_eq!(r1, r2, "{command:?}");
            assert_eq!(format!("{u1:?}"), format!("{u2:?}"), "{command:?}");
            assert_eq!(staged, serial, "{command:?}");
        }
    }

    /// The migration hand-off contract: extraction removes exactly the
    /// range, installation is insert-if-absent (a redirected write ordered
    /// before the install wins), undo restores, and donor/recipient range
    /// digests agree end to end.
    #[test]
    fn extract_install_range_roundtrip() {
        let range = oar::KeyRange::new("h", "p");
        let mut donor = KvMachine::new();
        for (k, v) in [
            ("apple", "0"),
            ("house", "1"),
            ("melon", "2"),
            ("zebra", "3"),
        ] {
            donor.apply(&put(k, v));
        }
        let donated = oar::state_machine::StateMachine::range_digest(&donor, &range).unwrap();
        let entries = donor.extract_range(&range).unwrap();
        assert_eq!(
            entries,
            vec![
                ("house".to_string(), "1".to_string()),
                ("melon".to_string(), "2".to_string()),
            ]
        );
        assert_eq!(donor.len(), 2, "extraction removes the range");
        assert_eq!(
            oar::state_machine::StateMachine::range_digest(&donor, &range).unwrap(),
            oar::state_machine::entries_digest::<&str, &str>(&[]),
            "donor's range is empty after extraction"
        );
        assert_eq!(oar::state_machine::entries_digest(&entries), donated);

        let mut recipient = KvMachine::new();
        // A redirected write ordered before the install must win.
        recipient.apply(&put("melon", "newer"));
        let install = KvMachine::install_range_command(entries).unwrap();
        assert!(KvMachine::command_key(&install).is_none());
        let before = recipient.clone();
        let (r, undo) = recipient.apply(&install);
        assert_eq!(r, KvResponse::Installed(1), "melon already present");
        assert_eq!(recipient.get("house"), Some(&"1".to_string()));
        assert_eq!(recipient.get("melon"), Some(&"newer".to_string()));
        recipient.undo(undo);
        assert_eq!(recipient, before);
    }

    #[test]
    fn undo_restores_previous_values() {
        let mut kv = KvMachine::new();
        kv.apply(&put("k", "v1"));
        let before = kv.digest();
        let (_, u1) = kv.apply(&put("k", "v2"));
        let (_, u2) = kv.apply(&KvCommand::Delete { key: "k".into() });
        kv.undo(u2);
        kv.undo(u1);
        assert_eq!(kv.get("k"), Some(&"v1".to_string()));
        assert_eq!(kv.digest(), before);
    }

    #[test]
    fn digest_differs_for_different_contents() {
        let mut a = KvMachine::new();
        let mut b = KvMachine::new();
        a.apply(&put("k", "1"));
        b.apply(&put("k", "2"));
        assert_ne!(a.digest(), b.digest());
    }

    /// A snapshot image, a fork and an installed copy hold the very chunks
    /// of their source, and a write to the source un-shares only the chunk
    /// its key falls in: the O(touched) cost of copy-on-write, pinned
    /// without timing anything.
    #[test]
    fn a_snapshot_shares_every_chunk_and_a_write_unshares_one() {
        let mut kv = KvMachine::new();
        assert!(kv.map.chunks.is_empty(), "a fresh store holds no chunk");
        for i in 0..200 {
            kv.apply(&put(&format!("key-{i}"), "v"));
        }
        let chunks = kv.map.chunks.len();
        assert!(chunks > 1);
        let mut installed = KvMachine::new();
        installed.install_image(&kv.snapshot_image());
        let copies = [kv.snapshot_image(), kv.fork().unwrap(), installed];
        let shared = |kv: &KvMachine| -> Vec<usize> {
            copies
                .iter()
                .map(|copy| {
                    assert_eq!(copy.map.chunks.len(), chunks);
                    (copy.map.chunks.iter())
                        .zip(&kv.map.chunks)
                        .filter(|(a, b)| Arc::ptr_eq(a, b))
                        .count()
                })
                .collect()
        };
        assert_eq!(shared(&kv), [chunks; 3]);

        // A read, a delete of an absent key and a failed swap write nothing.
        kv.apply(&KvCommand::Get {
            key: "key-7".into(),
        });
        kv.apply(&KvCommand::Delete {
            key: "absent".into(),
        });
        kv.apply(&KvCommand::CompareAndSwap {
            key: "key-7".into(),
            expected: None,
            new: "w".into(),
        });
        assert_eq!(shared(&kv), [chunks; 3]);

        kv.apply(&put("key-7", "w"));
        assert_eq!(shared(&kv), [chunks - 1; 3]);
        // The chunk is the source's own now: writing it again copies nothing.
        kv.apply(&put("key-7", "x"));
        kv.apply(&KvCommand::Delete {
            key: "key-7".into(),
        });
        assert_eq!(shared(&kv), [chunks - 1; 3]);
        for copy in &copies {
            assert_eq!(copy.get("key-7"), Some(&"v".to_string()));
        }
    }

    /// Equality and `Debug` see the content, not the chunk layout: a store
    /// that grew to many chunks and shrank again equals, and prints as, one
    /// that only ever held the remaining keys.
    #[test]
    fn equality_and_debug_ignore_the_chunk_layout() {
        let mut shrunk = KvMachine::new();
        for i in 0..100 {
            shrunk.apply(&put(&format!("key-{i:03}"), "v"));
        }
        for i in 2..100 {
            shrunk.apply(&KvCommand::Delete {
                key: format!("key-{i:03}"),
            });
        }
        let mut direct = KvMachine::new();
        direct.apply(&put("key-001", "v"));
        direct.apply(&put("key-000", "v"));
        direct.ops = shrunk.ops;
        assert_ne!(shrunk.map.chunks.len(), direct.map.chunks.len());
        assert_eq!(shrunk, direct);
        assert_eq!(
            format!("{direct:?}"),
            format!(
                "KvMachine {{ map: {{\"key-000\": \"v\", \"key-001\": \"v\"}}, ops: 198, \
                 entries: {:?} }}",
                direct.entries
            )
        );
        assert_eq!(format!("{shrunk:?}"), format!("{direct:?}"));
        direct.apply(&put("key-001", "w"));
        assert_ne!(shrunk.map, direct.map);
    }

    /// Regression: key and value bytes used to be hashed back to back, so
    /// `{"ab": "c"}` and `{"a": "bc"}` had the same digest.
    #[test]
    fn digest_marks_where_a_key_ends() {
        let mut a = KvMachine::new();
        let mut b = KvMachine::new();
        a.apply(&put("ab", "c"));
        b.apply(&put("a", "bc"));
        assert_ne!(a.digest(), b.digest());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_simple_command() -> impl Strategy<Value = KvCommand> {
        let key = prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(String::from);
        let value = "[a-z]{1,4}".prop_map(String::from);
        prop_oneof![
            (key.clone(), value.clone()).prop_map(|(key, value)| KvCommand::Put { key, value }),
            key.clone().prop_map(|key| KvCommand::Get { key }),
            key.clone().prop_map(|key| KvCommand::Delete { key }),
            (key, proptest::option::of(value.clone()), value).prop_map(|(key, expected, new)| {
                KvCommand::CompareAndSwap { key, expected, new }
            }),
        ]
    }

    fn arb_command() -> impl Strategy<Value = KvCommand> {
        // Simple commands listed three times to keep batches the minority,
        // as in a realistic transactional mix.
        prop_oneof![
            arb_simple_command(),
            arb_simple_command(),
            arb_simple_command(),
            proptest::collection::vec(arb_simple_command(), 1..5).prop_map(KvCommand::Multi),
        ]
    }

    proptest! {
        /// Reverse-order undo restores the exact initial state.
        #[test]
        fn apply_then_undo_roundtrip(commands in proptest::collection::vec(arb_command(), 0..30)) {
            let mut kv = KvMachine::new();
            kv.apply(&KvCommand::Put { key: "seed".into(), value: "1".into() });
            let before = kv.clone();
            let mut undos = Vec::new();
            for c in &commands {
                let (_, u) = kv.apply(c);
                undos.push(u);
            }
            for u in undos.into_iter().rev() {
                kv.undo(u);
            }
            prop_assert_eq!(kv, before);
        }

        /// Replicas applying the same commands converge.
        #[test]
        fn replicas_converge(commands in proptest::collection::vec(arb_command(), 0..30)) {
            let mut a = KvMachine::new();
            let mut b = KvMachine::new();
            for c in &commands {
                prop_assert_eq!(a.apply(c).0, b.apply(c).0);
            }
            prop_assert_eq!(a.digest(), b.digest());
        }

        /// The tentpole safety argument, differentially: for arbitrary
        /// command batches and worker counts, parallel apply is
        /// bit-identical to serial apply — same responses, same undo
        /// stack, same state. The 3-key universe of `arb_command` makes
        /// intra-batch conflicts (and conflicting `Multi`s) the common
        /// case, so the wave planner's ordering edges are exercised hard.
        #[test]
        fn parallel_apply_is_bit_identical_to_serial(
            commands in proptest::collection::vec(arb_command(), 0..40),
            workers in 0usize..6,
        ) {
            let refs: Vec<&KvCommand> = commands.iter().collect();
            let mut serial = KvMachine::new();
            let mut serial_results = Vec::with_capacity(refs.len());
            for c in &refs {
                serial_results.push(serial.apply(c));
            }
            let mut parallel = KvMachine::new();
            let out = oar::parallel::wave_apply(&mut parallel, &refs, workers);
            prop_assert_eq!(out.results.len(), serial_results.len());
            for ((rp, up), (rs, us)) in out.results.iter().zip(&serial_results) {
                prop_assert_eq!(rp, rs);
                // KvUndo carries no Eq on purpose; its Debug form is total.
                prop_assert_eq!(format!("{up:?}"), format!("{us:?}"));
            }
            prop_assert_eq!(&parallel, &serial);
            prop_assert_eq!(
                out.wave_sizes.iter().sum::<u64>(),
                refs.len() as u64
            );
            // And the undo stacks behave identically: rolling back the whole
            // batch in reverse delivery order restores the initial state.
            for (_, undo) in out.results.into_iter().rev() {
                parallel.undo(undo);
            }
            prop_assert_eq!(parallel, KvMachine::new());
        }
    }

    fn put(key: &str, value: &str) -> KvCommand {
        KvCommand::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// The digest recomputed from scratch: a full scan of the store.
    fn scanned_digest(kv: &KvMachine) -> u64 {
        let entries: Vec<(&Key, &Value)> = kv.map.iter().collect();
        oar::state_machine::entries_digest(&entries) ^ kv.ops
    }

    /// One step over the store's mutation paths.
    #[derive(Clone, Debug)]
    enum Step {
        /// `apply` (including `InstallRange`).
        Apply(KvCommand),
        /// `apply_batch` through the wave executor's `stage` + `commit`.
        Batch(Vec<KvCommand>, usize),
        /// `undo` of the most recent token still on the stack.
        Undo,
        /// `extract_range` of the keys in `lo..hi`.
        Extract(&'static str, &'static str),
        /// snapshot, then `install` into a fresh machine that carries on.
        Reinstall,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let key = prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(String::from);
        let value = "[a-z]{1,4}".prop_map(String::from);
        let install =
            proptest::collection::vec((key, value), 1..4).prop_map(KvCommand::InstallRange);
        // Applies and undos listed twice: they are the common case.
        prop_oneof![
            arb_command().prop_map(Step::Apply),
            arb_command().prop_map(Step::Apply),
            install.prop_map(Step::Apply),
            (proptest::collection::vec(arb_command(), 1..6), 1usize..4)
                .prop_map(|(batch, workers)| Step::Batch(batch, workers)),
            Just(Step::Undo),
            Just(Step::Undo),
            prop_oneof![Just(("a", "b")), Just(("b", "d")), Just(("a", "z"))]
                .prop_map(|(lo, hi)| Step::Extract(lo, hi)),
            Just(Step::Reinstall),
        ]
    }

    /// Takes `step` on `kv`, whose undo tokens still on the stack are `undos`.
    fn take_step(kv: &mut KvMachine, undos: &mut Vec<KvUndo>, step: &Step) {
        match step {
            Step::Apply(c) => undos.push(kv.apply(c).1),
            Step::Batch(batch, workers) => {
                let refs: Vec<&KvCommand> = batch.iter().collect();
                let out = kv.apply_batch(&refs, *workers);
                undos.extend(out.results.into_iter().map(|(_, u)| u));
            }
            Step::Undo => {
                if let Some(u) = undos.pop() {
                    kv.undo(u);
                }
            }
            Step::Extract(lo, hi) => {
                kv.extract_range(&oar::KeyRange::new(*lo, *hi));
            }
            Step::Reinstall => {
                let image = kv.snapshot().expect("kv supports snapshots");
                *kv = KvMachine::new();
                assert!(kv.install(&image));
            }
        }
    }

    /// What a copy must keep whatever its source does: content and digest.
    fn observed(kv: &KvMachine) -> (String, u64) {
        (format!("{kv:?}"), kv.digest())
    }

    /// Keys of the differential test: enough of them to take the store
    /// through many chunk counts.
    const MODEL_KEYS: u16 = 400;

    fn model_key(i: u16) -> String {
        format!("k{i:03}")
    }

    /// One step of the differential test against a `BTreeMap`.
    #[derive(Clone, Debug)]
    enum ModelStep {
        Put(u16, String),
        Delete(u16),
        /// `extract_range` of the keys `lo..lo + width`.
        Extract(u16, u16),
    }

    fn arb_model_step() -> impl Strategy<Value = ModelStep> {
        let put = (0..MODEL_KEYS, "[a-z]{1,3}").prop_map(|(k, v)| ModelStep::Put(k, v));
        // Puts listed three times, so the store grows; deletes and
        // extractions shrink it again.
        prop_oneof![
            put.clone(),
            put.clone(),
            put,
            (0..MODEL_KEYS).prop_map(ModelStep::Delete),
            (0..MODEL_KEYS, 1u16..150).prop_map(|(lo, width)| ModelStep::Extract(lo, width)),
        ]
    }

    /// Everything the store shows of its content equals the model's.
    fn assert_matches(kv: &KvMachine, model: &BTreeMap<Key, Value>) {
        let chunks = &kv.map.chunks;
        for (slot, chunk) in chunks.iter().enumerate() {
            for key in chunk.keys() {
                assert_eq!(ChunkedMap::slot(str_hash(key), chunks.len()), slot);
            }
        }
        for i in 0..MODEL_KEYS {
            assert_eq!(kv.get(&model_key(i)), model.get(&model_key(i)));
        }
        for (lo, hi) in [(0, 1), (0, 50), (120, 360), (0, 999)] {
            let range = oar::KeyRange::new(model_key(lo), model_key(hi));
            let entries: Vec<(&Key, &Value)> =
                model.iter().filter(|(k, _)| range.contains(k)).collect();
            let expected = oar::state_machine::entries_digest(&entries);
            assert_eq!(kv.range_digest(&range), Some(expected));
        }
        assert_eq!(format!("{:?}", kv.map), format!("{model:?}"));
    }

    proptest! {
        /// Differential: whatever path changed the store, the incremental
        /// digest equals the one recomputed from scratch.
        #[test]
        fn incremental_digest_matches_a_full_scan(
            steps in proptest::collection::vec(arb_step(), 0..40),
        ) {
            let mut kv = KvMachine::new();
            let mut undos = Vec::new();
            for step in &steps {
                take_step(&mut kv, &mut undos, step);
                prop_assert_eq!(kv.digest(), scanned_digest(&kv));
            }
        }

        /// Copies that share chunks never see each other's writes: a
        /// snapshot image, a fork and an installed copy keep their content
        /// and digest while the source goes through every write path, and
        /// the source keeps its own while each copy does.
        #[test]
        fn copies_never_see_each_others_writes(
            prefix in proptest::collection::vec(("[a-z]{1,2}", "[a-z]{1,3}"), 0..120),
            steps in proptest::collection::vec(arb_step(), 1..30),
        ) {
            let mut source = KvMachine::new();
            for (k, v) in &prefix {
                source.apply(&put(k, v));
            }
            let copies_of = |source: &KvMachine| {
                let mut installed = KvMachine::new();
                installed.install_image(&source.snapshot_image());
                [source.snapshot_image(), source.fork().unwrap(), installed]
            };

            let copies = copies_of(&source);
            let kept: Vec<_> = copies.iter().map(observed).collect();
            let mut undos = Vec::new();
            for step in &steps {
                take_step(&mut source, &mut undos, step);
                for (copy, kept) in copies.iter().zip(&kept) {
                    prop_assert_eq!(&observed(copy), kept, "after {:?}", step);
                }
            }

            let kept = observed(&source);
            for mut copy in copies_of(&source) {
                let mut undos = Vec::new();
                for step in &steps {
                    take_step(&mut copy, &mut undos, step);
                    prop_assert_eq!(&observed(&source), &kept, "after {:?}", step);
                }
            }
        }

        /// Differential against a plain `BTreeMap`: responses, sizes, reads,
        /// extraction (entries and their key order), range digests and the
        /// sorted content agree while the chunk count grows and shrinks, and
        /// the count stays within a factor of the size.
        #[test]
        fn the_chunked_store_matches_a_btreemap(
            steps in proptest::collection::vec(arb_model_step(), 100..600),
        ) {
            let mut kv = KvMachine::new();
            let mut model: BTreeMap<Key, Value> = BTreeMap::new();
            for (i, step) in steps.iter().enumerate() {
                match step {
                    ModelStep::Put(k, v) => {
                        let key = model_key(*k);
                        let previous = model.insert(key.clone(), v.clone());
                        prop_assert_eq!(kv.apply(&put(&key, v)).0, KvResponse::Previous(previous));
                    }
                    ModelStep::Delete(k) => {
                        let key = model_key(*k);
                        let previous = model.remove(&key);
                        let response = kv.apply(&KvCommand::Delete { key }).0;
                        prop_assert_eq!(response, KvResponse::Previous(previous));
                    }
                    ModelStep::Extract(lo, width) => {
                        let range = oar::KeyRange::new(model_key(*lo), model_key(lo + width));
                        let (taken, kept): (BTreeMap<Key, Value>, _) = std::mem::take(&mut model)
                            .into_iter()
                            .partition(|(k, _)| range.contains(k));
                        model = kept;
                        prop_assert_eq!(kv.extract_range(&range), Some(taken.into_iter().collect()));
                    }
                }
                let (len, chunks) = (kv.len(), kv.map.chunks.len());
                prop_assert_eq!(len, model.len());
                prop_assert_eq!(kv.is_empty(), model.is_empty());
                prop_assert!(
                    if len == 0 {
                        chunks == 0
                    } else {
                        chunks.is_power_of_two() && chunks <= len && len <= CHUNK_LOAD * chunks
                    },
                    "{} entries in {} chunks",
                    len,
                    chunks
                );
                if i % 25 == 0 {
                    assert_matches(&kv, &model);
                }
            }
            assert_matches(&kv, &model);
        }

        /// Equal contents reached through different histories have equal
        /// digests: insertion order, a put-then-delete against two reads,
        /// and an undone suffix against one never applied.
        #[test]
        fn equal_contents_have_equal_digests(
            entries in proptest::collection::vec(("[a-z]{1,3}", "[a-z]{0,3}"), 0..8),
            undone in proptest::collection::vec(arb_command(), 0..10),
        ) {
            let entries: BTreeMap<String, String> = entries.into_iter().collect();
            let mut forward = KvMachine::new();
            for (k, v) in &entries {
                forward.apply(&put(k, v));
            }
            forward.apply(&put("fresh-key", "x"));
            forward.apply(&KvCommand::Delete { key: "fresh-key".into() });
            let mut backward = KvMachine::new();
            for (k, v) in entries.iter().rev() {
                backward.apply(&put(k, v));
            }
            backward.apply(&KvCommand::Get { key: "a".into() });
            backward.apply(&KvCommand::Get { key: "b".into() });
            let tokens: Vec<KvUndo> = undone.iter().map(|c| backward.apply(c).1).collect();
            for token in tokens.into_iter().rev() {
                backward.undo(token);
            }
            prop_assert_eq!(forward.digest(), backward.digest());
        }

        /// snapshot → install → delta replay reproduces the donor's digest,
        /// whatever the rejoiner held before.
        #[test]
        fn install_then_replay_reproduces_the_donor(
            prefix in proptest::collection::vec(arb_command(), 0..20),
            delta in proptest::collection::vec(arb_command(), 0..20),
            stale in proptest::collection::vec(arb_command(), 0..5),
        ) {
            let mut donor = KvMachine::new();
            for c in &prefix {
                donor.apply(c);
            }
            let image = donor.snapshot().expect("kv supports snapshots");
            let mut rejoiner = KvMachine::new();
            for c in &stale {
                rejoiner.apply(c);
            }
            prop_assert!(rejoiner.install(&image));
            for c in &delta {
                donor.apply(c);
                rejoiner.apply(c);
            }
            prop_assert_eq!(rejoiner.digest(), donor.digest());
        }

        /// An image whose content was edited after capture installs with a
        /// digest of its own content, so it no longer matches its donor.
        #[test]
        fn an_edited_image_no_longer_matches_its_donor(
            prefix in proptest::collection::vec(arb_command(), 0..20),
            key in "[a-d]",
            value in proptest::option::of("[a-z]{1,4}"),
        ) {
            let mut donor = KvMachine::new();
            for c in &prefix {
                donor.apply(c);
            }
            let mut image = donor.snapshot_image();
            // Edited behind the machine's back: `entries` still describes
            // the donor's content. The image may hold no chunk yet.
            let key_hash = str_hash(&key);
            let edited = match &value {
                Some(v) => image.map.insert(key.clone(), key_hash, v.clone()).as_ref() != Some(v),
                None => image.map.remove(&key, key_hash).is_some(),
            };
            prop_assume!(edited);
            let mut rejoiner = KvMachine::new();
            rejoiner.install_image(&image);
            prop_assert_ne!(rejoiner.digest(), donor.digest());
            prop_assert_eq!(rejoiner.digest(), scanned_digest(&rejoiner));
        }
    }
}
