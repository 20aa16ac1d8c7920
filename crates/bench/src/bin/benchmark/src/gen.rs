//! Seeded input generation. The program under test receives only what is
//! generated here: the same `--seed` gives byte-identical command streams.

use oar::ShardRouter;
use oar_apps::KvCommand;

/// Keys are drawn uniformly from this many distinct keys.
pub const KEYS: u64 = 1024;

/// SplitMix64 — local to the benchmark so the streams do not change when a
/// repository crate changes its RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seed of stream number `stream` under `seed`: the rounds of a run and
/// the clients of a round get unrelated streams from the one `--seed`.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

fn key(index: u64) -> String {
    format!("key-{index:04}")
}

/// One command on `key`: 75 % `Put` of a 32-byte value, 25 % `Get`.
fn command_on(rng: &mut SplitMix64, key: String) -> KvCommand {
    if rng.next_u64() % 4 == 3 {
        KvCommand::Get { key }
    } else {
        let value = format!("{:016x}{:016x}", rng.next_u64(), rng.next_u64());
        KvCommand::Put { key, value }
    }
}

/// `n` single-key commands, keys uniform over [`KEYS`].
pub fn commands(seed: u64, n: usize) -> Vec<KvCommand> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let k = key(rng.next_u64() % KEYS);
            command_on(&mut rng, k)
        })
        .collect()
}

/// `n` two-key transactions, alternating between both keys in one group
/// (the fast path) and the keys in two different groups (one prepare per
/// group). Second keys are redrawn until the router places them as wanted.
pub fn transactions(seed: u64, n: usize, router: &ShardRouter) -> Vec<Vec<KvCommand>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let first = key(rng.next_u64() % KEYS);
            let want_same_group = i % 2 == 0;
            let second = loop {
                let candidate = key(rng.next_u64() % KEYS);
                let same = router.route_key(&candidate) == router.route_key(&first);
                if candidate != first && same == want_same_group {
                    break candidate;
                }
            };
            vec![command_on(&mut rng, first), command_on(&mut rng, second)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        assert_eq!(
            format!("{:?}", commands(7, 500)),
            format!("{:?}", commands(7, 500))
        );
        let router = ShardRouter::hash(4);
        assert_eq!(
            format!("{:?}", transactions(7, 200, &router)),
            format!("{:?}", transactions(7, 200, &router))
        );
    }

    #[test]
    fn another_seed_changes_the_stream_but_not_its_mix() {
        let a = commands(1, 20_000);
        let b = commands(2, 20_000);
        assert_ne!(a, b);
        for stream in [&a, &b] {
            let gets = stream
                .iter()
                .filter(|c| matches!(c, KvCommand::Get { .. }))
                .count();
            let share = gets as f64 / stream.len() as f64;
            assert!((share - 0.25).abs() < 0.02, "get share {share}");
        }
    }

    #[test]
    fn transactions_alternate_fast_path_and_cross_group() {
        let router = ShardRouter::hash(4);
        for (i, txn) in transactions(3, 100, &router).iter().enumerate() {
            let groups = router.groups_for_keys(txn.iter().map(|c| c.key()));
            assert_eq!(groups.len(), if i % 2 == 0 { 1 } else { 2 });
        }
    }
}
