//! Deployment harnesses for the baseline protocols, mirroring
//! [`oar::cluster::Cluster`] so that the experiment harness can run the same
//! workloads against OAR and against the baselines.

use oar::state_machine::StateMachine;
use oar::{run_until_done, RequestId};
use oar_fd::FdConfig;
use oar_simnet::{NetConfig, ProcessId, Samples, SimDuration, SimTime, World};

use crate::ct_abcast::{CtClient, CtServer, CtWire};
use crate::fixed_sequencer::{SeqWire, SequencerClient, SequencerServer};

/// Shared deployment parameters for the baseline clusters.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Number of replicas.
    pub num_servers: usize,
    /// Number of clients.
    pub num_clients: usize,
    /// Network configuration.
    pub net: NetConfig,
    /// Failure-detector configuration.
    pub fd: FdConfig,
    /// Maintenance tick of the replicas.
    pub tick: SimDuration,
    /// Client think time.
    pub think_time: SimDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            num_servers: 3,
            num_clients: 1,
            net: NetConfig::lan(),
            fd: FdConfig::default(),
            tick: SimDuration::from_millis(1),
            think_time: SimDuration::ZERO,
            seed: 1,
        }
    }
}

/// What the external-consistency audit of a fixed-sequencer run found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InconsistencyReport {
    /// Completed requests whose adopted reply disagrees with a later reply for
    /// the same request (position or response differ) — the paper's external
    /// inconsistency.
    pub client_inconsistencies: usize,
    /// Pairs of alive replicas whose delivery orders are not prefix-compatible.
    pub diverging_replica_pairs: usize,
    /// Total completed requests audited.
    pub requests_audited: usize,
}

impl InconsistencyReport {
    /// Whether any inconsistency (client-visible or replica-level) was found.
    pub fn is_consistent(&self) -> bool {
        self.client_inconsistencies == 0 && self.diverging_replica_pairs == 0
    }
}

/// A deployment of the fixed-sequencer baseline.
pub struct SequencerCluster<S: StateMachine> {
    /// The simulation world (exposed for fault injection).
    pub world: World<SeqWire<S::Command, S::Response>>,
    /// Server identifiers.
    pub servers: Vec<ProcessId>,
    /// Client identifiers.
    pub clients: Vec<ProcessId>,
}

impl<S: StateMachine> SequencerCluster<S> {
    /// Builds the deployment.
    pub fn build(
        config: &BaselineConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> Vec<S::Command>,
    ) -> Self {
        let mut world: World<SeqWire<S::Command, S::Response>> =
            World::new(config.net.clone(), config.seed);
        let group: Vec<ProcessId> = (0..config.num_servers).map(ProcessId::new).collect();
        for &id in &group {
            world.add_process(SequencerServer::new(
                id,
                group.clone(),
                config.fd,
                config.tick,
                make_sm(),
            ));
        }
        let clients = (0..config.num_clients)
            .map(|c| {
                world.add_process(SequencerClient::<S>::new(
                    ProcessId::new(config.num_servers + c),
                    group.clone(),
                    workload_for(c),
                    config.think_time,
                ))
            })
            .collect();
        SequencerCluster {
            world,
            servers: group,
            clients,
        }
    }

    /// Runs until all clients are done or `horizon` is reached; returns whether
    /// all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        let clients = &self.clients;
        run_until_done(&mut self.world, horizon, |world| {
            clients
                .iter()
                .all(|&c| world.process_ref::<SequencerClient<S>>(c).is_done())
        })
    }

    /// Client-observed latencies (ms) of the completed requests.
    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::new();
        for &c in &self.clients {
            for done in self.world.process_ref::<SequencerClient<S>>(c).completed() {
                samples.record_duration(done.latency());
            }
        }
        samples
    }

    /// Audits the run for external inconsistency and replica divergence.
    pub fn audit(&self) -> InconsistencyReport {
        let mut report = InconsistencyReport::default();
        for &c in &self.clients {
            for done in self.world.process_ref::<SequencerClient<S>>(c).completed() {
                report.requests_audited += 1;
                let inconsistent = done
                    .all_replies
                    .iter()
                    .any(|(_, pos, resp)| *pos != done.position || resp != &done.response);
                if inconsistent {
                    report.client_inconsistencies += 1;
                }
            }
        }
        let alive_orders: Vec<Vec<RequestId>> = self
            .servers
            .iter()
            .filter(|&&s| !self.world.is_crashed(s))
            .map(|&s| {
                self.world
                    .process_ref::<SequencerServer<S>>(s)
                    .delivery_order()
                    .to_vec()
            })
            .collect();
        for i in 0..alive_orders.len() {
            for j in (i + 1)..alive_orders.len() {
                let a = &alive_orders[i];
                let b = &alive_orders[j];
                let prefix_len = a.len().min(b.len());
                if a[..prefix_len] != b[..prefix_len] {
                    report.diverging_replica_pairs += 1;
                }
            }
        }
        report
    }
}

/// A deployment of the consensus-based (CT) atomic-broadcast baseline.
pub struct CtCluster<S: StateMachine> {
    /// The simulation world (exposed for fault injection).
    pub world: World<CtWire<S::Command, S::Response>>,
    /// Server identifiers.
    pub servers: Vec<ProcessId>,
    /// Client identifiers.
    pub clients: Vec<ProcessId>,
}

impl<S: StateMachine> CtCluster<S> {
    /// Builds the deployment.
    pub fn build(
        config: &BaselineConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> Vec<S::Command>,
    ) -> Self {
        let mut world: World<CtWire<S::Command, S::Response>> =
            World::new(config.net.clone(), config.seed);
        let group: Vec<ProcessId> = (0..config.num_servers).map(ProcessId::new).collect();
        for &id in &group {
            world.add_process(CtServer::new(
                id,
                group.clone(),
                config.fd,
                config.tick,
                make_sm(),
            ));
        }
        let clients = (0..config.num_clients)
            .map(|c| {
                world.add_process(CtClient::<S>::new(
                    ProcessId::new(config.num_servers + c),
                    group.clone(),
                    workload_for(c),
                    config.think_time,
                ))
            })
            .collect();
        CtCluster {
            world,
            servers: group,
            clients,
        }
    }

    /// Runs until all clients are done or `horizon` is reached; returns whether
    /// all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        let clients = &self.clients;
        run_until_done(&mut self.world, horizon, |world| {
            clients
                .iter()
                .all(|&c| world.process_ref::<CtClient<S>>(c).is_done())
        })
    }

    /// Client-observed latencies (ms) of the completed requests.
    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::new();
        for &c in &self.clients {
            for done in self.world.process_ref::<CtClient<S>>(c).completed() {
                samples.record_duration(done.latency());
            }
        }
        samples
    }

    /// Checks that alive replicas delivered prefix-compatible orders.
    pub fn check_total_order(&self) -> Result<(), String> {
        let orders: Vec<Vec<RequestId>> = self
            .servers
            .iter()
            .filter(|&&s| !self.world.is_crashed(s))
            .map(|&s| {
                self.world
                    .process_ref::<CtServer<S>>(s)
                    .delivery_order()
                    .to_vec()
            })
            .collect();
        for i in 0..orders.len() {
            for j in (i + 1)..orders.len() {
                let prefix_len = orders[i].len().min(orders[j].len());
                if orders[i][..prefix_len] != orders[j][..prefix_len] {
                    return Err(format!("replicas {i} and {j} diverge"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oar::state_machine::{CounterCommand, CounterMachine};

    fn workload(n: usize) -> Vec<CounterCommand> {
        (0..n).map(|i| CounterCommand::Add(i as i64 + 1)).collect()
    }

    #[test]
    fn sequencer_cluster_failure_free_is_consistent() {
        let config = BaselineConfig::default();
        let mut cluster: SequencerCluster<CounterMachine> =
            SequencerCluster::build(&config, CounterMachine::default, |_| workload(5));
        assert!(cluster.run_to_completion(SimTime::from_secs(10)));
        let report = cluster.audit();
        assert!(report.is_consistent(), "{report:?}");
        assert_eq!(report.requests_audited, 5);
        assert_eq!(cluster.latencies().len(), 5);
    }

    #[test]
    fn ct_cluster_failure_free_is_consistent() {
        let config = BaselineConfig::default();
        let mut cluster: CtCluster<CounterMachine> =
            CtCluster::build(&config, CounterMachine::default, |_| workload(5));
        assert!(cluster.run_to_completion(SimTime::from_secs(20)));
        cluster.check_total_order().unwrap();
        assert_eq!(cluster.latencies().len(), 5);
    }

    #[test]
    fn ct_latency_is_higher_than_sequencer_latency() {
        let config = BaselineConfig {
            seed: 7,
            ..BaselineConfig::default()
        };
        let mut seq: SequencerCluster<CounterMachine> =
            SequencerCluster::build(&config, CounterMachine::default, |_| workload(20));
        assert!(seq.run_to_completion(SimTime::from_secs(20)));
        let mut ct: CtCluster<CounterMachine> =
            CtCluster::build(&config, CounterMachine::default, |_| workload(20));
        assert!(ct.run_to_completion(SimTime::from_secs(20)));
        let seq_mean = seq.latencies().mean().unwrap();
        let ct_mean = ct.latencies().mean().unwrap();
        assert!(
            ct_mean > seq_mean,
            "consensus-based broadcast ({ct_mean:.3} ms) should cost more than the sequencer ({seq_mean:.3} ms)"
        );
    }
}
