//! Cross-protocol integration tests: the latency/consistency trade-off the
//! paper argues for, measured on identical workloads.

use oar_bench::experiments;
use oar_bench::row::by_key as row;

#[test]
fn latency_ordering_oar_tracks_sequencer_and_beats_consensus() {
    let rows = experiments::latency_experiment(&[3, 5], 40, 77);
    for &n in &[3usize, 5] {
        let mean = |protocol: &str| row(&rows, &format!("{protocol}@{n}")).num("latency_ms.mean");
        let oar = mean("oar");
        let seq = mean("fixed-sequencer");
        let ct = mean("ct-abcast");
        assert!(
            oar < ct,
            "n={n}: OAR ({oar:.3} ms) should beat consensus-based broadcast ({ct:.3} ms)"
        );
        assert!(
            oar < seq * 2.0,
            "n={n}: OAR ({oar:.3} ms) should stay within 2x of the sequencer baseline ({seq:.3} ms)"
        );
    }
}

#[test]
fn throughput_rows_cover_all_protocols() {
    let rows = experiments::throughput_experiment(3, &[1, 4], 20, 5);
    // Five protocols (oar, oar-batched, oar-pipelined, fixed-sequencer,
    // ct-abcast) × two client counts.
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert!(r.num("requests_per_second") > 0.0, "{r:?}");
        assert!(r.u64("requests") > 0, "{r:?}");
    }
    // More closed-loop clients => more total completed requests per second for
    // every protocol (the sweep is far from saturation at these sizes).
    for protocol in ["oar", "oar-batched", "fixed-sequencer", "ct-abcast"] {
        let one = row(&rows, &format!("{protocol}@1")).num("requests_per_second");
        let four = row(&rows, &format!("{protocol}@4")).num("requests_per_second");
        assert!(four > one, "{protocol}: {four} vs {one}");
    }
    // The batched sequencer amortises its ordering broadcasts.
    let batched = row(&rows, "oar-batched@4");
    assert!(
        batched.u64("order_messages_sent") < batched.u64("requests"),
        "batched sequencer sent {} OrderMsgs for {} requests",
        batched.u64("order_messages_sent"),
        batched.u64("requests")
    );
    // The pipelined variant also amortises the reply traffic: fewer
    // ReplyBatch wires than individual replies, while answering everything.
    let pipelined = row(&rows, "oar-pipelined@4");
    assert_eq!(pipelined.u64("replies_sent"), 3 * pipelined.u64("requests"));
    assert!(
        pipelined.u64("reply_messages_sent") * 2 < pipelined.u64("replies_sent"),
        "reply batching should at least halve the wire count ({} vs {})",
        pipelined.u64("reply_messages_sent"),
        pipelined.u64("replies_sent")
    );
}

#[test]
fn undo_experiment_scenarios_stay_consistent() {
    let rows = experiments::undo_experiment(123);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.bool("consistent"), "{r:?}");
    }
    let failure_free = row(&rows, "failure-free");
    assert_eq!(failure_free.u64("opt_undeliveries"), 0);
    assert_eq!(failure_free.u64("phase2_entries"), 0);
}

#[test]
fn failover_recovery_grows_with_fd_timeout() {
    let rows = experiments::failover_experiment(&[3], &[10, 100], 11);
    let fast = row(&rows, "n3/fd10");
    let slow = row(&rows, "n3/fd100");
    assert!(fast.bool("consistent") && slow.bool("consistent"));
    assert!(
        slow.num("recovery_ms") > fast.num("recovery_ms"),
        "a larger suspicion timeout must lengthen fail-over ({} vs {})",
        slow.num("recovery_ms"),
        fast.num("recovery_ms")
    );
}

#[test]
fn gc_ablation_is_safe_and_bounds_epoch_length() {
    let rows = experiments::gc_experiment(&[None, Some(10)], 30, 21);
    for r in &rows {
        assert!(r.bool("consistent"), "{r:?}");
    }
    let never = row(&rows, "cut-never");
    let cut = row(&rows, "cut-10");
    assert!(cut.num("epochs_per_server") > never.num("epochs_per_server"));
}
