//! Model persistence: trained models round-trip through serde (JSON
//! here; any serde format works). Enabled through the facade crate's
//! `flow-icm/serde` feature.

use infoflow::graph::{EdgeId, NodeId};
use infoflow::icm::evidence::{AttributedEvidence, AttributedRecord};
use infoflow::icm::state::simulate_cascade;
use infoflow::icm::{BetaIcm, Icm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained_model(seed: u64) -> BetaIcm {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = infoflow::graph::generate::uniform_edges(&mut rng, 20, 60);
    let truth = Icm::with_uniform_probability(graph.clone(), 0.4);
    let mut ev = AttributedEvidence::new();
    for i in 0..300 {
        let src = NodeId(i % 20);
        ev.push(AttributedRecord::from_active_state(&simulate_cascade(
            &truth,
            &[src],
            &mut rng,
        )));
    }
    BetaIcm::train(graph, &ev)
}

#[test]
fn beta_icm_roundtrips_through_json() {
    let model = trained_model(31);
    let json = serde_json::to_string(&model).expect("serialize");
    let back: BetaIcm = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.edge_count(), model.edge_count());
    assert_eq!(back.graph().node_count(), model.graph().node_count());
    for e in model.graph().edges() {
        assert_eq!(back.graph().endpoints(e), model.graph().endpoints(e));
        assert_eq!(back.edge_beta(e), model.edge_beta(e), "edge {e}");
    }
}

#[test]
fn icm_roundtrips_and_stays_queryable() {
    let model = trained_model(32).expected_icm();
    let json = serde_json::to_string(&model).expect("serialize");
    let back: Icm = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.probabilities(), model.probabilities());
    // The deserialized model answers the same exact queries.
    let small = {
        let g = infoflow::graph::graph::graph_from_edges(3, &[(0, 1), (1, 2)]);
        Icm::new(g, vec![0.5, 0.4])
    };
    let json = serde_json::to_string(&small).unwrap();
    let back: Icm = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back.exact_flow_probability(NodeId(0), NodeId(2)),
        small.exact_flow_probability(NodeId(0), NodeId(2))
    );
}

#[test]
fn evidence_roundtrips_through_json() {
    let mut rng = StdRng::seed_from_u64(33);
    let graph = infoflow::graph::generate::uniform_edges(&mut rng, 10, 25);
    let truth = Icm::with_uniform_probability(graph.clone(), 0.5);
    let record =
        AttributedRecord::from_active_state(&simulate_cascade(&truth, &[NodeId(0)], &mut rng));
    let json = serde_json::to_string(&record).expect("serialize");
    let back: AttributedRecord = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, record);
    assert_eq!(back.validate(&graph), Ok(()));
    // Edge ids survive the trip.
    for i in 0..graph.edge_count() {
        assert_eq!(
            back.is_edge_active(EdgeId(i as u32)),
            record.is_edge_active(EdgeId(i as u32))
        );
    }
}

#[test]
fn model_files_load_through_the_validating_constructors() {
    let g = infoflow::graph::graph::graph_from_edges(3, &[(0, 1), (1, 2)]);
    let json = serde_json::to_string(&Icm::new(g.clone(), vec![0.5, 0.4])).unwrap();
    assert!(json.contains("\"probs\":[0.5,0.4]"), "{json}");
    assert!(serde_json::from_str::<Icm>(&json).is_ok());
    // An out-of-range probability, and one probability for two edges.
    for probs in ["[1.5,0.4]", "[0.5]"] {
        let bad = json.replace("[0.5,0.4]", probs);
        assert!(serde_json::from_str::<Icm>(&bad).is_err(), "{bad}");
    }

    let beta = BetaIcm::uniform_prior(g);
    let json = serde_json::to_string(&beta).unwrap();
    let one = "{\"alpha\":1,\"beta\":1}";
    assert!(json.contains(&format!("[{one},{one}]")), "{json}");
    assert!(serde_json::from_str::<BetaIcm>(&json).is_ok());
    // A non-positive parameter, and one Beta for two edges.
    let negative = "{\"alpha\":-1,\"beta\":1}";
    for params in [format!("[{negative},{one}]"), format!("[{one}]")] {
        let bad = json.replace(&format!("[{one},{one}]"), &params);
        assert!(serde_json::from_str::<BetaIcm>(&bad).is_err(), "{bad}");
    }
}
