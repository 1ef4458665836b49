//! Primitive timings for the traced run: single calls into each layer's
//! public functions at the workload's shape, made outside the round loop.

use std::hint::black_box;

use krum_attacks::AttackContext;
use krum_core::AggregationContext;
use krum_dist::stream_rng;
use krum_scenario::ScenarioSpec;
use krum_tensor::Vector;
use krum_wire::{checksum, Frame};

use crate::stats::time_us;
use crate::workload::{Workload, BFP};

/// How long each primitive is sampled for.
const BUDGET_MS: f64 = 150.0;

#[derive(Default)]
pub struct Primitives {
    /// One `GradientEstimator::estimate`.
    pub estimate_us: f64,
    /// One `Aggregator::aggregate_in` over a full round of proposals.
    pub aggregate_us: f64,
    /// One `Attack::forge` for all `f` Byzantine slots.
    pub forge_us: f64,
    /// One proposal `GradientCodec::encode` / `decode` (served only).
    pub encode_us: f64,
    pub decode_us: f64,
    /// Codec work one served round does, from the protocol's per-round
    /// operation counts.
    pub codec_ms_per_round: f64,
    pub checksum_mb_per_s: f64,
    /// Mean `Frame::encode` / `Frame::decode` time over one round's frames.
    pub frame_encode_us: f64,
    pub frame_decode_us: f64,
    pub frames_per_round: f64,
    /// Encoded size of one round's frames, to check the frame model
    /// against the bytes the server counted.
    pub frame_bytes_per_round: f64,
    /// Encode, checksum and decode of one round's frames.
    pub wire_ms_per_round: f64,
}

pub fn measure(workload: Workload, spec: &ScenarioSpec) -> Result<Primitives, String> {
    let (n, f, dim) = workload.shape();
    let honest = n - f;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let built = spec
        .estimator
        .build(honest, spec.seed)
        .map_err(|e| err(&e))?;
    let estimators = built.estimators;
    let probe = built.probe.as_deref().unwrap_or(&*estimators[0]);
    let params = Vector::filled(dim, 1.0);
    let mut rng = stream_rng(spec.seed, 0);

    let estimate_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(estimators[0].estimate(black_box(&params), &mut rng)).ok();
    });

    let honest_proposals = estimators
        .iter()
        .map(|e| e.estimate(&params, &mut rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| err(&e))?;
    let rule = spec
        .rule
        .build(spec.execution.aggregation_arity(n), f)
        .map_err(|e| err(&e))?;
    let attack = spec.attack.build(dim).map_err(|e| err(&e))?;
    let true_gradient = probe.true_gradient(&params);
    let rule_name = rule.name();
    let ctx = AttackContext {
        honest_proposals: &honest_proposals,
        current_params: &params,
        true_gradient: true_gradient.as_ref(),
        byzantine_count: f,
        total_workers: n,
        round: 0,
        aggregator_name: &rule_name,
    };
    let mut attack_rng = stream_rng(spec.seed, 1 << 40);
    let forge_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(attack.forge(black_box(&ctx), &mut attack_rng)).ok();
    });
    let forged = attack.forge(&ctx, &mut attack_rng).map_err(|e| err(&e))?;

    // Aggregation under the engine's default execution policy. On the reuse
    // table each call refreshes `q` rows, as a round does, so the Gram
    // cache recomputes only those.
    let mut proposals = honest_proposals.clone();
    proposals.extend(forged.iter().cloned());
    let mut agg_ctx = AggregationContext::new();
    let mut generations = vec![0u64; n];
    let mut next = 0;
    rule.aggregate_in(&mut agg_ctx, &proposals)
        .map_err(|e| err(&e))?;
    let aggregate_us = time_us(5, 2000, BUDGET_MS, || {
        if let Some(q) = workload.refreshes() {
            for _ in 0..q {
                generations[next] += 1;
                next = (next + 1) % n;
            }
            agg_ctx.set_generations(&generations);
        }
        black_box(rule.aggregate_in(&mut agg_ctx, black_box(&proposals))).ok();
    });

    let mut out = Primitives {
        estimate_us,
        aggregate_us,
        forge_us,
        ..Primitives::default()
    };
    if workload.is_served() {
        wire_and_codec(&mut out, &params, &honest_proposals, &forged, n)?;
    }
    Ok(out)
}

/// Codec and frame costs of one served round. The frame mix follows the
/// protocol: a compressed broadcast to each honest worker, one relay of
/// every honest proposal to the adversary connection, one proposal per
/// worker slot, and a round-closed notice to each connection.
fn wire_and_codec(
    out: &mut Primitives,
    params: &Vector,
    honest: &[Vector],
    forged: &[Vector],
    n: usize,
) -> Result<(), String> {
    let codec = BFP.build();
    let dim = params.dim();
    let reference = params.as_slice();
    let x = honest[0].as_slice();
    let encoded = codec.encode(x, reference);
    let encoded_params = codec.encode_params(reference);
    out.encode_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(codec.encode(black_box(x), reference));
    });
    out.decode_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(codec.decode(black_box(&encoded), reference, dim)).ok();
    });
    let encode_params_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(codec.encode_params(black_box(reference)));
    });
    let decode_params_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(codec.decode_params(black_box(&encoded_params), dim)).ok();
    });
    codec
        .decode(&encoded, reference, dim)
        .map_err(|e| e.to_string())?;

    // Per round: the server encodes the params twice (broadcast, relay) and
    // every honest proposal once (relay); honest workers and the adversary
    // decode the params once each; workers encode their proposals; the
    // server decodes every proposal and the adversary every relayed one.
    let (h, f) = (honest.len() as f64, forged.len() as f64);
    out.codec_ms_per_round = (2.0 * encode_params_us
        + (2.0 * h + f) * out.encode_us
        + (h + 1.0) * decode_params_us
        + (2.0 * h + f) * out.decode_us)
        * 1e-3;

    let job = 0;
    let round = 0;
    let broadcast = Frame::BroadcastC {
        job,
        round,
        params: encoded_params.clone(),
        observed: Vec::new(),
    };
    let relay = Frame::BroadcastC {
        job,
        round,
        params: encoded_params,
        observed: honest
            .iter()
            .map(|v| codec.encode(v.as_slice(), reference))
            .collect(),
    };
    let propose = |worker: usize, v: &Vector| Frame::ProposeC {
        job,
        round,
        worker: worker as u32,
        proposal: codec.encode(v.as_slice(), reference),
    };
    let closed = Frame::RoundClosed {
        job,
        round,
        quorum: n as u32,
        aggregate_norm: 1.0,
    };
    let connections = honest.len() + usize::from(!forged.is_empty());
    let mut frames: Vec<Frame> = vec![broadcast; honest.len()];
    frames.push(relay);
    frames.extend(
        honest
            .iter()
            .chain(forged)
            .enumerate()
            .map(|(w, v)| propose(w, v)),
    );
    frames.extend(std::iter::repeat_n(closed, connections));

    let mut encode_us = 0.0;
    let mut decode_us = 0.0;
    let mut checksum_us = 0.0;
    let mut bytes = 0usize;
    for frame in &frames {
        let wire = frame.encode();
        let payload = &wire[4..wire.len() - 4];
        bytes += wire.len();
        encode_us += time_us(3, 500, BUDGET_MS / 10.0, || {
            black_box(black_box(frame).encode());
        });
        decode_us += time_us(3, 500, BUDGET_MS / 10.0, || {
            black_box(Frame::decode(black_box(payload))).ok();
        });
        checksum_us += time_us(3, 500, BUDGET_MS / 10.0, || {
            black_box(checksum(black_box(payload)));
        });
    }
    let count = frames.len() as f64;
    out.frames_per_round = count;
    out.frame_bytes_per_round = bytes as f64;
    out.frame_encode_us = encode_us / count;
    out.frame_decode_us = decode_us / count;
    // Every frame is checksummed by its sender (inside `encode`) and again
    // by its receiver before `decode`.
    out.wire_ms_per_round = (encode_us + checksum_us + decode_us) * 1e-3;

    let buffer: Vec<u8> = (0..bytes)
        .map(|i| ((i * 2_654_435_761) >> 13) as u8)
        .collect();
    let crc_us = time_us(5, 2000, BUDGET_MS, || {
        black_box(checksum(black_box(&buffer)));
    });
    out.checksum_mb_per_s = bytes as f64 / crc_us;
    Ok(())
}
