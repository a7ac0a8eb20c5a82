//! Integration tests for persistence: model checkpoints survive a full
//! save/load cycle across crate boundaries, and dataset caching returns
//! identical graphs.

use rand::{rngs::StdRng, SeedableRng};
use trkx::detector::{generate_cached, DatasetConfig};
use trkx::ignn::InteractionGnn;
use trkx::pipeline::{infer_logits, prepare_graphs, Checkpoint, GnnTrainConfig};

#[test]
fn trained_model_checkpoint_roundtrip_through_disk() {
    let graphs = prepare_graphs(&DatasetConfig::ex3_like(0.01).generate(2, 77));
    let cfg = GnnTrainConfig {
        hidden: 12,
        gnn_layers: 2,
        epochs: 2,
        batch_size: 32,
        ..Default::default()
    };

    // Train briefly so weights are non-initial.
    let result = trkx::pipeline::train_minibatch(
        &cfg,
        trkx::pipeline::SamplerKind::Bulk { k: 2 },
        trkx::ddp::DdpConfig::single(),
        &graphs[..1],
        &graphs[1..],
    );
    let reference = infer_logits(&result.model, &graphs[0]);

    let path = std::env::temp_dir().join(format!("trkx_it_ckpt_{}.json", std::process::id()));
    Checkpoint::from_params(&result.model.params())
        .save_json(&path)
        .unwrap();

    // Fresh model, different seed: restore and compare predictions.
    let mut rng = StdRng::seed_from_u64(999);
    let mut restored = InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng);
    let loaded = Checkpoint::load_json(&path).unwrap();
    let mut params = restored.params_mut();
    loaded.apply_to(&mut params).unwrap();
    assert_eq!(infer_logits(&restored, &graphs[0]), reference);
    let _ = std::fs::remove_file(path);
}

#[test]
fn dataset_cache_returns_identical_graphs() {
    let cfg = DatasetConfig::ex3_like(0.01);
    let path = std::env::temp_dir().join(format!("trkx_it_ds_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let generated = generate_cached(&path, &cfg, 2, 11).unwrap();
    let cached = generate_cached(&path, &cfg, 2, 11).unwrap();
    assert_eq!(generated.len(), cached.len());
    for (a, b) in generated.iter().zip(&cached) {
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }
    let _ = std::fs::remove_file(path);
}

/// A small trained pipeline plus one fresh event to reconstruct.
fn tiny_trained_pipeline() -> (trkx::pipeline::TrainedPipeline, trkx::detector::Event) {
    use trkx::detector::{simulate_event, DetectorGeometry, GunConfig};
    use trkx::pipeline::{train_pipeline, EmbeddingConfig, PipelineConfig};
    use trkx::sampling::ShadowConfig;

    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(55);
    let events: Vec<_> = (0..4)
        .map(|_| simulate_event(&geometry, &gun, 15, 0.1, &mut rng))
        .collect();
    let config = PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: 4,
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: 12,
            gnn_layers: 2,
            epochs: 2,
            batch_size: 32,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 3,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let (pipeline, _) = train_pipeline(config, &events[..3], &events[3..]);
    let test_event = simulate_event(&geometry, &gun, 15, 0.1, &mut rng);
    (pipeline, test_event)
}

#[test]
fn trained_pipeline_bundle_roundtrip() {
    use trkx::pipeline::TrainedPipeline;

    let (pipeline, test_event) = tiny_trained_pipeline();
    let before = pipeline.reconstruct(&test_event);

    let path = std::env::temp_dir().join(format!("trkx_it_pipe_{}.json", std::process::id()));
    pipeline.save_json(&path).unwrap();
    let restored = TrainedPipeline::load_json(&path).unwrap();
    let after = restored.reconstruct(&test_event);
    assert_eq!(before.component_of_hit, after.component_of_hit);
    assert_eq!(before.edges_kept, after.edges_kept);
    assert_eq!(before.metrics, after.metrics);
    assert_eq!(restored.radius, pipeline.radius);
    let _ = std::fs::remove_file(path);
}

#[test]
fn bundle_with_legacy_construct_backend_key_still_loads() {
    use trkx::pipeline::TrainedPipeline;

    // Older bundles carry the stage-2 backend choice, which no longer
    // exists; every backend built the same edges, so such a bundle must
    // load and reconstruct exactly as the same bundle without the key.
    let (pipeline, test_event) = tiny_trained_pipeline();
    let dir = std::env::temp_dir();
    let plain = dir.join(format!("trkx_it_plain_{}.json", std::process::id()));
    let legacy = dir.join(format!("trkx_it_legacy_{}.json", std::process::id()));
    pipeline.save_json(&plain).unwrap();
    let json = std::fs::read_to_string(&plain).unwrap();
    assert!(
        json.starts_with("{\"config\":{"),
        "unexpected bundle layout"
    );
    let injected = json.replacen(
        "{\"config\":{",
        "{\"config\":{\"construct_backend\":\"kd\",",
        1,
    );
    std::fs::write(&legacy, injected).unwrap();

    let a = TrainedPipeline::load_json(&plain).unwrap();
    let b = TrainedPipeline::load_json(&legacy).unwrap();
    let (ra, rb) = (a.reconstruct(&test_event), b.reconstruct(&test_event));
    assert_eq!(ra.component_of_hit, rb.component_of_hit);
    assert_eq!(ra.edges_kept, rb.edges_kept);
    assert_eq!(ra.metrics, rb.metrics);
    assert_eq!(a.radius.to_bits(), b.radius.to_bits());
    let _ = std::fs::remove_file(plain);
    let _ = std::fs::remove_file(legacy);
}

#[test]
fn checkpoint_rejects_mismatched_architecture() {
    let cfg_small = GnnTrainConfig {
        hidden: 8,
        gnn_layers: 2,
        ..Default::default()
    };
    let cfg_large = GnnTrainConfig {
        hidden: 16,
        gnn_layers: 2,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let small = InteractionGnn::new(cfg_small.ignn_config(6, 2), &mut rng);
    let mut large = InteractionGnn::new(cfg_large.ignn_config(6, 2), &mut rng);
    let ckpt = Checkpoint::from_params(&small.params());
    let mut params = large.params_mut();
    assert!(ckpt.apply_to(&mut params).is_err());
}
